//! Architectural machine state shared by the Primary Processor and the
//! VLIW Engine.
//!
//! The DTSVLIW's two engines "share the DTSVLIW machine state" and "no
//! machine state has to be transferred between them" (paper §3.6); this
//! struct is that shared state. Renaming registers are *not* part of it —
//! they belong to the VLIW Engine and never survive a block.

use crate::cond::{Fcc, Icc};
use crate::regs::{phys_reg, NUM_PHYS_INT, NWINDOWS};

/// The complete SPARC ISA state of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchState {
    /// Physical integer register file (globals + windowed). Fixed-size,
    /// so cloning a state (a block-entry checkpoint) never allocates.
    pub int: [u32; NUM_PHYS_INT],
    /// FP registers as raw bit patterns.
    pub fp: [u32; 32],
    /// Integer condition codes.
    pub icc: Icc,
    /// FP condition code.
    pub fcc: Fcc,
    /// The `%y` register.
    pub y: u32,
    /// Current window pointer.
    pub cwp: u8,
    /// Number of register-window frames currently resident in the file
    /// (1..=NWINDOWS-1). Tracks when `save`/`restore` must trap to spill
    /// or fill; architecturally this is the WIM, linearised.
    pub resident: u8,
    /// Program counter of the next instruction to execute.
    pub pc: u32,
    /// Next PC (SPARC delayed control transfer: `npc` is where execution
    /// goes after the instruction at `pc`).
    pub npc: u32,
}

impl ArchState {
    /// Fresh state with every register zero, started at `entry`.
    pub fn new(entry: u32) -> Self {
        ArchState {
            int: [0; NUM_PHYS_INT],
            fp: [0; 32],
            icc: Icc::default(),
            fcc: Fcc::default(),
            y: 0,
            cwp: 0,
            resident: 1,
            pc: entry,
            npc: entry.wrapping_add(4),
        }
    }

    /// Read visible integer register `reg` in the current window.
    #[inline]
    pub fn get(&self, reg: u8) -> u32 {
        self.get_w(self.cwp, reg)
    }

    /// Read visible register `reg` as seen from window `cwp`.
    #[inline]
    pub fn get_w(&self, cwp: u8, reg: u8) -> u32 {
        if reg == 0 {
            0
        } else {
            self.int[phys_reg(cwp, reg) as usize]
        }
    }

    /// Write visible integer register `reg` in the current window
    /// (writes to `%g0` are discarded).
    #[inline]
    pub fn set(&mut self, reg: u8, value: u32) {
        self.set_w(self.cwp, reg, value);
    }

    /// Write visible register `reg` as seen from window `cwp`.
    #[inline]
    pub fn set_w(&mut self, cwp: u8, reg: u8, value: u32) {
        if reg != 0 {
            self.int[phys_reg(cwp, reg) as usize] = value;
        }
    }

    /// Maximum simultaneously-resident window frames.
    pub const MAX_RESIDENT: u8 = (NWINDOWS - 1) as u8;

    /// The window index holding the *oldest* resident frame.
    pub fn oldest_window(&self) -> u8 {
        ((self.cwp as usize + self.resident as usize - 1) % NWINDOWS) as u8
    }

    /// Compare the SPARC-visible state against another machine's,
    /// returning a description of the first mismatch (test mode, paper
    /// §4). PCs are compared by the caller since engines sync at
    /// different granularities.
    pub fn diff_visible(&self, other: &ArchState) -> Option<String> {
        if self.cwp != other.cwp {
            return Some(format!("cwp {} != {}", self.cwp, other.cwp));
        }
        if self.int != other.int {
            for (i, (a, b)) in self.int.iter().zip(&other.int).enumerate() {
                if a != b {
                    return Some(format!("int phys r{i}: {a:#x} != {b:#x}"));
                }
            }
        }
        if self.fp != other.fp {
            return Some("fp register mismatch".into());
        }
        if self.icc != other.icc {
            return Some(format!("icc {:?} != {:?}", self.icc, other.icc));
        }
        if self.fcc != other.fcc {
            return Some(format!("fcc {:?} != {:?}", self.fcc, other.fcc));
        }
        if self.y != other.y {
            return Some(format!("y {:#x} != {:#x}", self.y, other.y));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::r;

    #[test]
    fn g0_reads_zero_ignores_writes() {
        let mut s = ArchState::new(0);
        s.set(0, 123);
        assert_eq!(s.get(0), 0);
    }

    #[test]
    fn window_overlap_visible_through_state() {
        let mut s = ArchState::new(0);
        s.set(r::O0, 42);
        s.cwp = crate::regs::save_cwp(s.cwp);
        assert_eq!(s.get(r::I0), 42, "callee's %i0 is caller's %o0");
        s.set(r::I0, 7);
        s.cwp = crate::regs::restore_cwp(s.cwp);
        assert_eq!(s.get(r::O0), 7);
    }

    #[test]
    fn diff_visible_reports_first_mismatch() {
        let a = ArchState::new(0);
        let mut b = ArchState::new(0);
        assert!(a.diff_visible(&b).is_none());
        b.set(r::L0, 1);
        assert!(a.diff_visible(&b).unwrap().contains("int phys"));
    }
}
