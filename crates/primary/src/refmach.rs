//! The *test machine* (paper §4): a plain sequential SPARC machine.
//!
//! "Test mode puts two machines to run together: the DTSVLIW and a test
//! machine with the same characteristics of the Primary Processor. ...
//! The SPARC ISA state of both machines is compared and, if not equal,
//! an error is signalled." The test machine also provides the precise
//! sequential instruction count that forms the IPC numerator.

use crate::interp::{execute, step, Halt, Step, StepError};
use dtsvliw_asm::Image;
use dtsvliw_isa::ArchState;
use dtsvliw_mem::Memory;

/// A standalone sequential machine over the SPARC subset.
#[derive(Debug, Clone)]
pub struct RefMachine {
    /// Architectural state.
    pub state: ArchState,
    /// Its own private memory.
    pub mem: Memory,
    /// Instructions retired so far ("as counted by the test machine").
    pub retired: u64,
    /// Console output accumulated from PUTC/PUTU traps.
    pub output: Vec<u8>,
}

/// Why a [`RefMachine::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed `ta EXIT`.
    Halted {
        /// Exit value from `%o0`.
        code: u32,
        /// Total retired instructions including the trap.
        retired: u64,
    },
    /// The instruction budget ran out first.
    OutOfFuel,
}

impl RefMachine {
    /// Load an image and point the machine at its entry.
    pub fn new(image: &Image) -> Self {
        let mut mem = Memory::new();
        image.load_into(&mut mem);
        RefMachine {
            state: ArchState::new(image.entry),
            mem,
            retired: 0,
            output: Vec::new(),
        }
    }

    /// Retire one instruction.
    #[inline]
    pub fn step(&mut self) -> Result<Step, StepError> {
        let s = step(&mut self.state, &mut self.mem, self.retired)?;
        self.retired += 1;
        if let Some(bytes) = &s.output {
            self.output.extend_from_slice(bytes);
        }
        Ok(s)
    }

    /// Run until halt or until `fuel` instructions have retired.
    pub fn run(&mut self, fuel: u64) -> Result<RunOutcome, StepError> {
        for _ in 0..fuel {
            if let Some(Halt::Exit(code)) = self.step()?.halt {
                return Ok(RunOutcome::Halted {
                    code,
                    retired: self.retired,
                });
            }
        }
        Ok(RunOutcome::OutOfFuel)
    }

    /// Retire instructions until `retired == target` or a halt, without
    /// recording them: PUTC/PUTU bytes go to `out` (not to
    /// [`RefMachine::output`]), and a halting `ta` is counted in
    /// `retired` like any other instruction.
    pub fn run_to(&mut self, target: u64, out: &mut Vec<u8>) -> Result<Option<Halt>, StepError> {
        while self.retired < target {
            let halt = execute(&mut self.state, &mut self.mem, out)?;
            self.retired += 1;
            if halt.is_some() {
                return Ok(halt);
            }
        }
        Ok(None)
    }

    /// Console output as UTF-8 (lossy).
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_asm::assemble;

    #[test]
    fn counts_retired_instructions() {
        let img = assemble("_start: mov 1, %o0\n add %o0, 1, %o0\n ta 0\n").unwrap();
        let mut m = RefMachine::new(&img);
        let out = m.run(100).unwrap();
        assert_eq!(
            out,
            RunOutcome::Halted {
                code: 2,
                retired: 3
            }
        );
    }

    #[test]
    fn fuel_limit() {
        let img = assemble("_start: ba _start\n nop\n").unwrap();
        let mut m = RefMachine::new(&img);
        assert_eq!(m.run(10).unwrap(), RunOutcome::OutOfFuel);
        assert_eq!(m.retired, 10);
    }

    #[test]
    fn console_output() {
        let img = assemble(
            "_start: mov 'H', %o0\n ta 2\n mov 'i', %o0\n ta 2\n mov 321, %o0\n ta 3\n ta 0\n",
        )
        .unwrap();
        let mut m = RefMachine::new(&img);
        m.run(100).unwrap();
        assert_eq!(m.output_string(), "Hi321");
    }

    #[test]
    fn vector_sum_program() {
        // The paper's Figure 2(a) loop: sum a vector of x elements.
        let src = "
            .org 0x1000
        _start:
            or %g0, 0, %o1       ! sum
            sethi %hi(vec), %o0
            or %o0, %lo(vec), %o3
            or %g0, 0, %o2       ! 4*i
        loop:
            ld [%o2 + %o3], %o0
            add %o1, %o0, %o1
            add %o2, 4, %o2
            subcc %o2, 39, %g0
            ble loop
            nop
            mov %o1, %o0
            ta 0
            .org 0x4000
        vec: .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
        ";
        let img = assemble(src).unwrap();
        let mut m = RefMachine::new(&img);
        match m.run(1000).unwrap() {
            RunOutcome::Halted { code, .. } => assert_eq!(code, 55),
            o => panic!("{o:?}"),
        }
    }
}
