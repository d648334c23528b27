//! Architectural interpreter: one SPARC instruction per step.

use dtsvliw_isa::alu::{exec_alu, exec_fp};
use dtsvliw_isa::insn::{FpOp, Instr, Src2};
use dtsvliw_isa::regs::{r, restore_cwp, save_cwp};
use dtsvliw_isa::{ArchState, DynInstr};
use dtsvliw_mem::Memory;
use std::io::Write;

/// Program termination, reported through `ta` traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// `ta EXIT`: normal exit with the value of `%o0`.
    Exit(u32),
}

/// What one interpreter step produced.
#[derive(Debug, Clone)]
pub struct Step {
    /// The retired instruction with its observed execution facts.
    pub dyn_instr: DynInstr,
    /// A register-window overflow/underflow trap fired as part of a
    /// `save`/`restore` (16 extra memory accesses were performed).
    pub window_trap: bool,
    /// Bytes appended to the console by a PUTC/PUTU trap.
    pub output: Option<Vec<u8>>,
    /// Program halted (the instruction still retires).
    pub halt: Option<Halt>,
}

/// Interpreter-detected errors: all of them indicate a broken program or
/// a simulator bug and abort the simulation loudly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// Undecodable instruction word.
    Illegal {
        /// Faulting PC.
        pc: u32,
        /// The raw word.
        word: u32,
    },
    /// Misaligned memory access.
    Misaligned {
        /// Faulting PC.
        pc: u32,
        /// Effective address.
        addr: u32,
        /// Access size.
        size: u8,
    },
    /// `ta FAIL`: a workload self-check failed.
    SelfCheckFailed {
        /// Faulting PC.
        pc: u32,
        /// Failure site id from `%o0`.
        site: u32,
    },
    /// Unknown trap code.
    BadTrap {
        /// Faulting PC.
        pc: u32,
        /// The code.
        code: u8,
    },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Illegal { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at {pc:#x}")
            }
            StepError::Misaligned { pc, addr, size } => {
                write!(f, "misaligned {size}-byte access to {addr:#x} at {pc:#x}")
            }
            StepError::SelfCheckFailed { pc, site } => {
                write!(f, "workload self-check failed (site {site}) at {pc:#x}")
            }
            StepError::BadTrap { pc, code } => write!(f, "unknown trap {code} at {pc:#x}"),
        }
    }
}

impl std::error::Error for StepError {}

fn src2_val(state: &ArchState, s: Src2) -> u32 {
    match s {
        Src2::Reg(rr) => state.get(rr),
        Src2::Imm(i) => i as u32,
    }
}

/// Spill the oldest resident window's locals and ins to that window's
/// stack pointer (window-overflow trap). 16 word stores.
fn spill_oldest(state: &mut ArchState, mem: &mut Memory) {
    let w = state.oldest_window();
    let sp = state.get_w(w, r::SP);
    for k in 0..8u8 {
        mem.write_u32(sp.wrapping_add(4 * k as u32), state.get_w(w, r::L0 + k));
        mem.write_u32(
            sp.wrapping_add(32 + 4 * k as u32),
            state.get_w(w, r::I0 + k),
        );
    }
    state.resident -= 1;
}

/// Fill the window being restored into from the current frame pointer
/// (window-underflow trap). 16 word loads.
fn fill_next(state: &mut ArchState, mem: &Memory) {
    let w = restore_cwp(state.cwp);
    let fp = state.get(r::FP);
    for k in 0..8u8 {
        state.set_w(w, r::L0 + k, mem.read_u32(fp.wrapping_add(4 * k as u32)));
        state.set_w(
            w,
            r::I0 + k,
            mem.read_u32(fp.wrapping_add(32 + 4 * k as u32)),
        );
    }
    state.resident += 1;
}

/// What the interpreter body reports about the instruction it executes,
/// besides the state change itself. Every hook defaults to doing
/// nothing, so `()` is the recorder of the lockstep oracle, which keeps
/// only output and halt.
trait Record {
    /// The instruction about to execute.
    fn fetched(&mut self, _instr: Instr) {}
    /// A load or store's effective address.
    fn access(&mut self, _addr: u32) {}
    /// A control transfer's direction and, when it redirects, its target.
    fn transfer(&mut self, _taken: bool, _target: Option<u32>) {}
    /// `save`/`restore`: the new window, and whether it trapped.
    fn window(&mut self, _cwp: u8, _trap: bool) {}
    /// A control transfer at `pc` executed; its delay slot is `pc + 4`.
    fn delay_slot(&mut self, _mem: &mut Memory, _pc: u32) {}
}

impl Record for () {}

/// The recorder behind [`step`]: everything a [`Step`] carries.
struct Full {
    d: DynInstr,
    window_trap: bool,
}

impl Record for Full {
    fn fetched(&mut self, instr: Instr) {
        self.d.instr = instr;
    }
    fn access(&mut self, addr: u32) {
        self.d.eff_addr = Some(addr);
    }
    fn transfer(&mut self, taken: bool, target: Option<u32>) {
        self.d.taken = Some(taken);
        self.d.target = target;
    }
    fn window(&mut self, cwp: u8, trap: bool) {
        self.d.cwp_after = cwp;
        self.window_trap = trap;
    }
    fn delay_slot(&mut self, mem: &mut Memory, pc: u32) {
        self.d.delay_is_nop = mem.fetch(pc.wrapping_add(4)).is_nop();
    }
}

/// Execute exactly one instruction at `state.pc`.
///
/// Advances the `pc`/`npc` pair with SPARC delayed-transfer semantics:
/// a control transfer at `pc` sets `npc`'s successor, so the instruction
/// in the delay slot executes before the target.
pub fn step(state: &mut ArchState, mem: &mut Memory, seq: u64) -> Result<Step, StepError> {
    let mut rec = Full {
        d: DynInstr {
            seq,
            pc: state.pc,
            instr: Instr::NOP, // set by `fetched`
            cwp_before: state.cwp,
            cwp_after: state.cwp,
            eff_addr: None,
            taken: None,
            target: None,
            delay_is_nop: true,
        },
        window_trap: false,
    };
    let mut output = Vec::new();
    let halt = body(state, mem, &mut rec, &mut output)?;
    Ok(Step {
        dyn_instr: rec.d,
        window_trap: rec.window_trap,
        output: (!output.is_empty()).then_some(output),
        halt,
    })
}

/// [`step`] without the record: execute one instruction, append any
/// PUTC/PUTU bytes to `out` and report a halt. The lockstep oracle and
/// the replay after a rolled-back block run this; they read nothing
/// else of a [`Step`].
#[inline]
pub fn execute(
    state: &mut ArchState,
    mem: &mut Memory,
    out: &mut Vec<u8>,
) -> Result<Option<Halt>, StepError> {
    body(state, mem, &mut (), out)
}

/// The instruction semantics, once, for every recorder.
#[inline(always)]
fn body<R: Record>(
    state: &mut ArchState,
    mem: &mut Memory,
    rec: &mut R,
    out: &mut Vec<u8>,
) -> Result<Option<Halt>, StepError> {
    let pc = state.pc;
    let instr = mem.fetch(pc);
    if let Instr::Illegal(w) = instr {
        return Err(StepError::Illegal { pc, word: w });
    }
    rec.fetched(instr);

    let mut halt = None;
    // Default control flow: fall through the delay-slot pair.
    let mut next_npc = state.npc.wrapping_add(4);
    let mut is_cti = false;

    match instr {
        Instr::Alu {
            op,
            cc,
            rd,
            rs1,
            src2,
        } => {
            let a = state.get(rs1);
            let b = src2_val(state, src2);
            let res = exec_alu(op, a, b, state.icc, state.y);
            state.set(rd, res.value);
            if cc {
                state.icc = res.icc;
            }
            if op == dtsvliw_isa::insn::AluOp::MulScc {
                state.y = res.y;
            }
        }
        Instr::Sethi { rd, imm22 } => state.set(rd, imm22 << 10),
        Instr::Mem { op, rd, rs1, src2 } => {
            let addr = state.get(rs1).wrapping_add(src2_val(state, src2));
            let size = op.size();
            if !addr.is_multiple_of(size as u32) {
                return Err(StepError::Misaligned { pc, addr, size });
            }
            rec.access(addr);
            use dtsvliw_isa::insn::MemOp::*;
            match op {
                Ld => state.set(rd, mem.read_u32(addr)),
                Ldub => state.set(rd, mem.read_u8(addr) as u32),
                Ldsb => state.set(rd, mem.read_u8(addr) as i8 as i32 as u32),
                Lduh => state.set(rd, mem.read_u16(addr) as u32),
                Ldsh => state.set(rd, mem.read_u16(addr) as i16 as i32 as u32),
                St => mem.write_u32(addr, state.get(rd)),
                Stb => mem.write_u8(addr, state.get(rd) as u8),
                Sth => mem.write_u16(addr, state.get(rd) as u16),
                Ldf => state.fp[rd as usize] = mem.read_u32(addr),
                Stf => mem.write_u32(addr, state.fp[rd as usize]),
            }
        }
        Instr::Bicc { cond, disp22 } => {
            is_cti = true;
            let taken = cond.eval(state.icc);
            let t = pc.wrapping_add((disp22 as u32).wrapping_mul(4));
            rec.transfer(taken, taken.then_some(t));
            if taken {
                next_npc = t;
            }
        }
        Instr::FBfcc { cond, disp22 } => {
            is_cti = true;
            let taken = cond.eval(state.fcc);
            let t = pc.wrapping_add((disp22 as u32).wrapping_mul(4));
            rec.transfer(taken, taken.then_some(t));
            if taken {
                next_npc = t;
            }
        }
        Instr::Call { disp30 } => {
            is_cti = true;
            state.set(r::O7, pc);
            let t = pc.wrapping_add((disp30 as u32).wrapping_mul(4));
            rec.transfer(true, Some(t));
            next_npc = t;
        }
        Instr::Jmpl { rd, rs1, src2 } => {
            is_cti = true;
            let t = state.get(rs1).wrapping_add(src2_val(state, src2));
            if !t.is_multiple_of(4) {
                return Err(StepError::Misaligned {
                    pc,
                    addr: t,
                    size: 4,
                });
            }
            state.set(rd, pc);
            rec.transfer(true, Some(t));
            next_npc = t;
        }
        Instr::Save { rd, rs1, src2 } => {
            let a = state.get(rs1);
            let b = src2_val(state, src2);
            let trap = state.resident == ArchState::MAX_RESIDENT;
            if trap {
                spill_oldest(state, mem);
            }
            state.cwp = save_cwp(state.cwp);
            state.resident += 1;
            state.set(rd, a.wrapping_add(b));
            rec.window(state.cwp, trap);
        }
        Instr::Restore { rd, rs1, src2 } => {
            let a = state.get(rs1);
            let b = src2_val(state, src2);
            let trap = state.resident == 1;
            if trap {
                fill_next(state, mem);
            }
            state.cwp = restore_cwp(state.cwp);
            state.resident -= 1;
            state.set(rd, a.wrapping_add(b));
            rec.window(state.cwp, trap);
        }
        Instr::Fpop { op, rd, rs1, rs2 } => {
            let res = exec_fp(
                op,
                state.fp[rs1 as usize],
                state.fp[rs2 as usize],
                state.fcc,
            );
            if op == FpOp::FCmps {
                state.fcc = res.fcc;
            } else {
                state.fp[rd as usize] = res.value;
            }
        }
        Instr::RdY { rd } => state.set(rd, state.y),
        Instr::WrY { rs1, src2 } => {
            // SPARC defines wr as rs1 XOR src2.
            state.y = state.get(rs1) ^ src2_val(state, src2);
        }
        Instr::Trap { code } => {
            let o0 = state.get(r::O0);
            match code {
                crate::trap::EXIT => halt = Some(Halt::Exit(o0)),
                crate::trap::FAIL => return Err(StepError::SelfCheckFailed { pc, site: o0 }),
                crate::trap::PUTC => out.push(o0 as u8),
                crate::trap::PUTU => {
                    // Writing to a `Vec` cannot fail.
                    let _ = write!(out, "{o0}");
                }
                code => return Err(StepError::BadTrap { pc, code }),
            }
        }
        Instr::Illegal(_) => unreachable!("checked above"),
    }

    if is_cti {
        rec.delay_slot(mem, pc);
    }

    state.pc = state.npc;
    state.npc = next_npc;
    Ok(halt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_asm::assemble;
    use dtsvliw_isa::regs::NWINDOWS;

    fn machine(src: &str) -> (ArchState, Memory) {
        let img = assemble(src).expect("assembles");
        let mut mem = Memory::new();
        img.load_into(&mut mem);
        (ArchState::new(img.entry), mem)
    }

    fn run_n(state: &mut ArchState, mem: &mut Memory, n: usize) {
        for i in 0..n {
            step(state, mem, i as u64).unwrap();
        }
    }

    #[test]
    fn delay_slot_executes_before_target() {
        let (mut st, mut mem) = machine(
            "_start: ba t\n mov 1, %o0   ! delay slot: must execute\n mov 9, %o0\nt: nop\n",
        );
        run_n(&mut st, &mut mem, 3); // ba, delay, nop-at-target
        assert_eq!(st.get(r::O0), 1);
    }

    #[test]
    fn not_taken_branch_falls_through() {
        let (mut st, mut mem) =
            machine("_start: cmp %g0, 1\n be t\n nop\n mov 5, %o1\nt: mov 7, %o2\n");
        run_n(&mut st, &mut mem, 4);
        assert_eq!(st.get(r::O1), 5);
    }

    #[test]
    fn call_links_o7_and_ret_returns() {
        let (mut st, mut mem) =
            machine("_start: call f\n nop\n mov 42, %o1\n ta 0\nf: retl\n nop\n");
        // call, delay, retl, delay, mov
        run_n(&mut st, &mut mem, 5);
        assert_eq!(st.get(r::O1), 42);
        assert_eq!(st.get(r::O7), 0x1000);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let (mut st, mut mem) = machine(
            "_start: set 0x2000, %o0\n mov 0x55, %o1\n stb %o1, [%o0]\n ldsb [%o0], %o2\n sth %o1, [%o0 + 2]\n lduh [%o0 + 2], %o3\n",
        );
        run_n(&mut st, &mut mem, 7); // set = 2 instrs
        assert_eq!(st.get(r::O2), 0x55);
        assert_eq!(st.get(r::O3), 0x55);
    }

    #[test]
    fn signed_byte_load_extends() {
        let (mut st, mut mem) = machine(
            "_start: set 0x2000, %o0\n mov -1, %o1\n stb %o1, [%o0]\n ldsb [%o0], %o2\n ldub [%o0], %o3\n",
        );
        run_n(&mut st, &mut mem, 6);
        assert_eq!(st.get(r::O2), 0xffff_ffff);
        assert_eq!(st.get(r::O3), 0xff);
    }

    #[test]
    fn misaligned_access_errors() {
        let (mut st, mut mem) = machine("_start: set 0x2001, %o0\n ld [%o0], %o1\n");
        run_n(&mut st, &mut mem, 2);
        let e = step(&mut st, &mut mem, 2).unwrap_err();
        assert!(matches!(e, StepError::Misaligned { addr: 0x2001, .. }));
    }

    #[test]
    fn save_restore_pass_values_through_windows() {
        let (mut st, mut mem) = machine(
            "_start: set 0x9000, %sp\n mov 11, %o0\n save %sp, -96, %sp\n add %i0, 1, %i0\n restore %i0, 0, %o0\n",
        );
        run_n(&mut st, &mut mem, 6);
        assert_eq!(st.get(r::O0), 12, "restore's add crosses back");
        assert_eq!(st.cwp, 0);
        assert_eq!(st.resident, 1);
    }

    #[test]
    fn exit_trap_halts_with_code() {
        let (mut st, mut mem) = machine("_start: mov 3, %o0\n ta 0\n");
        step(&mut st, &mut mem, 0).unwrap();
        let s = step(&mut st, &mut mem, 1).unwrap();
        assert_eq!(s.halt, Some(Halt::Exit(3)));
    }

    #[test]
    fn fail_trap_is_an_error() {
        let (mut st, mut mem) = machine("_start: mov 77, %o0\n ta 1\n");
        step(&mut st, &mut mem, 0).unwrap();
        let e = step(&mut st, &mut mem, 1).unwrap_err();
        assert_eq!(
            e,
            StepError::SelfCheckFailed {
                pc: 0x1004,
                site: 77
            }
        );
    }

    #[test]
    fn window_overflow_spills_and_refills() {
        // Recurse deeper than the register file and come back: locals
        // must survive via spill/fill.
        let depth = NWINDOWS + 3;
        let src = format!(
            "_start:
                set 0x20000, %sp
                mov {depth}, %o0
                call rec
                nop
                ! %o0 = sum of depths = depth + depth-1 + ... + 1
                ta 0
            rec:
                save %sp, -96, %sp
                mov %i0, %l0          ! keep depth in a local
                cmp %i0, 1
                ble base
                nop
                sub %i0, 1, %o0
                call rec
                nop
                add %o0, %l0, %i0    ! child sum + my depth
                ret
                restore %i0, 0, %o0
            base:
                mov %l0, %i0
                ret
                restore %i0, 0, %o0
            ",
        );
        let (mut st, mut mem) = machine(&src);
        let mut traps = 0;
        for i in 0..100_000u64 {
            let s = step(&mut st, &mut mem, i).unwrap();
            traps += s.window_trap as u32;
            if let Some(Halt::Exit(code)) = s.halt {
                let expect: u32 = (1..=depth as u32).sum();
                assert_eq!(code, expect);
                assert!(
                    traps > 0,
                    "recursion of {depth} must overflow {NWINDOWS} windows"
                );
                return;
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn mulscc_umul_routine_in_asm() {
        // Software unsigned multiply: 32 mulscc steps + final shift,
        // mirroring the .umul library routine. Result low word in %o0.
        let src = "
            _start:
                set 51234, %o0
                set 77777, %o1
                call umul
                nop
                ta 0
            umul:
                wr %o1, 0, %y
                andcc %g0, %g0, %o4   ! clear partial product and icc
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %o0, %o4
                mulscc %o4, %g0, %o4
                retl
                rd %y, %o0
        ";
        let (mut st, mut mem) = machine(src);
        for i in 0..200u64 {
            if let Some(Halt::Exit(code)) = step(&mut st, &mut mem, i).unwrap().halt {
                assert_eq!(code, 51234u32.wrapping_mul(77777));
                return;
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn stores_over_executed_code_take_effect() {
        // Patch an instruction that has already executed, then a branch's
        // delay slot: each new word must run on the next pass, and
        // `delay_is_nop` must follow the new delay-slot word.
        let src = "
            _start:
                set patch, %l0
                set slot, %l1
                set repl, %l2
                ld [%l2], %l3        ! add %o1, 100, %o1
                ld [%l2 + 4], %l4    ! add %o1, 1000, %o1
                mov 0, %o1
                mov 3, %o0
            loop:
            patch:
                add %o1, 1, %o1
                st %l3, [%l0]
                cmp %o0, 2
                bne skip
                nop
                st %l4, [%l1]
            skip:
                subcc %o0, 1, %o0
            back:
                bne loop
            slot:
                nop
                mov %o1, %o0
                ta 3
                ta 0
            repl:
                add %o1, 100, %o1
                add %o1, 1000, %o1
        ";
        // 1 + 100 + 1000 + 100 + 1000: the delay slot runs on the taken
        // and the final not-taken `bne`.
        let expect = 2201;
        let img = assemble(src).unwrap();
        let back = img.symbols["back"];
        let (mut st, mut mem) = machine(src);
        let mut delay_nops = Vec::new();
        let mut output = Vec::new();
        for i in 0..1000u64 {
            let s = step(&mut st, &mut mem, i).unwrap();
            if s.dyn_instr.pc == back {
                delay_nops.push(s.dyn_instr.delay_is_nop);
            }
            output.extend(s.output.unwrap_or_default());
            if let Some(Halt::Exit(code)) = s.halt {
                assert_eq!(code, expect);
                assert_eq!(delay_nops, [true, false, false]);
                let mut reference = crate::RefMachine::new(&img);
                assert_eq!(
                    reference.run(1000).unwrap(),
                    crate::RunOutcome::Halted {
                        code,
                        retired: i + 1
                    }
                );
                assert_eq!(reference.output, output);
                assert_eq!(output, expect.to_string().into_bytes());
                return;
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn delay_is_nop_flag() {
        let (mut st, mut mem) = machine("_start: ba t\n mov 1, %o0\nt: nop\n");
        let s = step(&mut st, &mut mem, 0).unwrap();
        assert!(!s.dyn_instr.delay_is_nop, "mov in delay slot");
        let (mut st2, mut mem2) = machine("_start: ba t\n nop\nt: nop\n");
        let s = step(&mut st2, &mut mem2, 0).unwrap();
        assert!(s.dyn_instr.delay_is_nop);
    }
}
