//! The *dynamic* instruction record handed from the Primary Processor to
//! the Scheduler Unit.
//!
//! When an instruction completes execution, the Primary Processor sends
//! it to the Scheduler Unit (paper §3.1) together with everything the
//! hardware observed: the window pointer (§3.9 — "the value of the cwp
//! register ... accompany the instructions to the scheduling list"), the
//! effective address of loads/stores (§3.9 memory dependence testing) and
//! the direction/target of control transfers (§3.5 — "the direction taken
//! by them during the scheduling, recorded in the VLIW Cache").

use crate::insn::{Instr, Src2};
use crate::regs::phys_reg;
use crate::resource::{ResList, Resource};

/// A retired instruction plus the execution facts the Scheduler Unit and
/// VLIW Engine need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInstr {
    /// Dynamic sequence number (for diagnostics and test mode).
    pub seq: u64,
    /// The instruction's memory address.
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Window pointer when the instruction read its sources.
    pub cwp_before: u8,
    /// Window pointer for the destination (differs from `cwp_before`
    /// only for `save`/`restore`).
    pub cwp_after: u8,
    /// Observed effective address of a load/store.
    pub eff_addr: Option<u32>,
    /// Observed direction of a conditional branch.
    pub taken: Option<bool>,
    /// Observed target of a taken conditional branch or of a `jmpl`.
    pub target: Option<u32>,
    /// True when the instruction in this CTI's delay slot was a `nop`;
    /// CTIs with live delay slots are not schedulable into VLIW blocks
    /// (our code generators always pad delay slots with `nop`).
    pub delay_is_nop: bool,
}

impl DynInstr {
    /// Where the trace continues if this conditional branch is *not*
    /// taken: past the delay slot.
    pub fn fall_through(&self) -> u32 {
        self.pc.wrapping_add(8)
    }

    /// The statically-encoded target of a PC-relative branch.
    pub fn static_target(&self) -> Option<u32> {
        match self.instr {
            Instr::Bicc { disp22, .. } | Instr::FBfcc { disp22, .. } => {
                Some(self.pc.wrapping_add((disp22 as u32).wrapping_mul(4)))
            }
            Instr::Call { disp30 } => Some(self.pc.wrapping_add((disp30 as u32).wrapping_mul(4))),
            _ => None,
        }
    }

    #[inline]
    fn int_res(&self, cwp: u8, reg: u8) -> Option<Resource> {
        if reg == 0 {
            None
        } else {
            Some(Resource::Int(phys_reg(cwp, reg)))
        }
    }

    #[inline]
    fn src2_res(&self, src2: Src2) -> Option<Resource> {
        src2.reg()
            .map(|r| Resource::Int(phys_reg(self.cwp_before, r)))
    }

    /// The memory resource of a load/store, using the observed address.
    /// `None` also for a malformed record (a load/store with no observed
    /// address), so corrupted inputs degrade instead of panicking.
    #[inline]
    pub fn mem_resource(&self) -> Option<Resource> {
        match self.instr {
            Instr::Mem { op, .. } => self.eff_addr.map(|addr| Resource::Mem {
                addr,
                size: op.size(),
            }),
            _ => None,
        }
    }

    /// Storage locations this instruction reads.
    #[inline]
    pub fn reads(&self) -> ResList {
        let mut l = ResList::new();
        match self.instr {
            Instr::Alu {
                op,
                rd: _,
                rs1,
                src2,
                ..
            } => {
                l.push_opt(self.int_res(self.cwp_before, rs1));
                l.push_opt(self.src2_res(src2));
                if op == crate::insn::AluOp::MulScc {
                    l.push(Resource::Icc);
                    l.push(Resource::Y);
                }
            }
            Instr::Sethi { .. } => {}
            Instr::Mem { op, rd, rs1, src2 } => {
                l.push_opt(self.int_res(self.cwp_before, rs1));
                l.push_opt(self.src2_res(src2));
                if op.is_store() {
                    if op.is_fp() {
                        l.push(Resource::Fp(rd));
                    } else {
                        l.push_opt(self.int_res(self.cwp_before, rd));
                    }
                } else {
                    l.push_opt(self.mem_resource());
                }
            }
            Instr::Bicc { .. } => l.push(Resource::Icc),
            Instr::FBfcc { .. } => l.push(Resource::Fcc),
            Instr::Call { .. } => {}
            Instr::Jmpl { rs1, src2, .. } => {
                l.push_opt(self.int_res(self.cwp_before, rs1));
                l.push_opt(self.src2_res(src2));
            }
            Instr::Save { rs1, src2, .. } | Instr::Restore { rs1, src2, .. } => {
                l.push_opt(self.int_res(self.cwp_before, rs1));
                l.push_opt(self.src2_res(src2));
                l.push(Resource::Cwp);
            }
            Instr::Fpop { op, rs1, rs2, .. } => {
                if !op.is_unary() {
                    l.push(Resource::Fp(rs1));
                }
                l.push(Resource::Fp(rs2));
            }
            Instr::RdY { .. } => l.push(Resource::Y),
            Instr::WrY { rs1, src2 } => {
                l.push_opt(self.int_res(self.cwp_before, rs1));
                l.push_opt(self.src2_res(src2));
            }
            Instr::Trap { .. } | Instr::Illegal(_) => {}
        }
        l
    }

    /// Storage locations this instruction writes.
    #[inline]
    pub fn writes(&self) -> ResList {
        let mut l = ResList::new();
        match self.instr {
            Instr::Alu { op, cc, rd, .. } => {
                l.push_opt(self.int_res(self.cwp_after, rd));
                if cc {
                    l.push(Resource::Icc);
                }
                if op == crate::insn::AluOp::MulScc {
                    l.push(Resource::Y);
                }
            }
            Instr::Sethi { rd, .. } if rd != 0 => {
                l.push(Resource::Int(phys_reg(self.cwp_after, rd)))
            }
            Instr::Sethi { .. } => {}
            Instr::Mem { op, rd, .. } => {
                if op.is_store() {
                    l.push_opt(self.mem_resource());
                } else if op.is_fp() {
                    l.push(Resource::Fp(rd));
                } else {
                    l.push_opt(self.int_res(self.cwp_after, rd));
                }
            }
            Instr::Bicc { .. } | Instr::FBfcc { .. } => {}
            Instr::Call { .. } => {
                // call writes %o7 (reg 15)
                l.push_opt(self.int_res(self.cwp_after, 15));
            }
            Instr::Jmpl { rd, .. } => l.push_opt(self.int_res(self.cwp_after, rd)),
            Instr::Save { rd, .. } | Instr::Restore { rd, .. } => {
                l.push_opt(self.int_res(self.cwp_after, rd));
                l.push(Resource::Cwp);
            }
            Instr::Fpop { op, rd, .. } => {
                if op == crate::insn::FpOp::FCmps {
                    l.push(Resource::Fcc);
                } else {
                    l.push(Resource::Fp(rd));
                }
            }
            Instr::RdY { rd } => l.push_opt(self.int_res(self.cwp_after, rd)),
            Instr::WrY { .. } => l.push(Resource::Y),
            Instr::Trap { .. } | Instr::Illegal(_) => {}
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cond;
    use crate::insn::{AluOp, MemOp};
    use crate::regs::r;

    fn dyn_of(instr: Instr) -> DynInstr {
        DynInstr {
            seq: 0,
            pc: 0x1000,
            instr,
            cwp_before: 0,
            cwp_after: 0,
            eff_addr: None,
            taken: None,
            target: None,
            delay_is_nop: true,
        }
    }

    #[test]
    fn alu_reads_writes() {
        let d = dyn_of(Instr::Alu {
            op: AluOp::Add,
            cc: true,
            rd: r::O1,
            rs1: r::O2,
            src2: Src2::Reg(r::O3),
        });
        let reads = d.reads();
        assert_eq!(reads.len(), 2);
        let writes = d.writes();
        assert!(writes.contains_conflict(&Resource::Icc));
        assert!(writes.contains_conflict(&Resource::Int(phys_reg(0, r::O1))));
    }

    #[test]
    fn g0_is_never_a_resource() {
        let d = dyn_of(Instr::Alu {
            op: AluOp::Or,
            cc: false,
            rd: 0,
            rs1: 0,
            src2: Src2::Imm(0),
        });
        assert!(d.reads().is_empty());
        assert!(d.writes().is_empty());
    }

    #[test]
    fn store_reads_data_and_writes_memory() {
        let mut d = dyn_of(Instr::Mem {
            op: MemOp::St,
            rd: r::O0,
            rs1: r::O1,
            src2: Src2::Imm(4),
        });
        d.eff_addr = Some(0x2000);
        assert!(d
            .reads()
            .contains_conflict(&Resource::Int(phys_reg(0, r::O0))));
        assert!(d.writes().contains_conflict(&Resource::Mem {
            addr: 0x2000,
            size: 4
        }));
        assert!(!d.writes().contains_conflict(&Resource::Mem {
            addr: 0x2004,
            size: 4
        }));
    }

    #[test]
    fn load_reads_memory() {
        let mut d = dyn_of(Instr::Mem {
            op: MemOp::Ldub,
            rd: r::O0,
            rs1: r::O1,
            src2: Src2::Imm(0),
        });
        d.eff_addr = Some(0x2001);
        assert!(d.reads().contains_conflict(&Resource::Mem {
            addr: 0x2000,
            size: 4
        }));
        assert!(!d.reads().contains_conflict(&Resource::Mem {
            addr: 0x2002,
            size: 1
        }));
    }

    #[test]
    fn save_crosses_windows() {
        let mut d = dyn_of(Instr::Save {
            rd: r::SP,
            rs1: r::SP,
            src2: Src2::Imm(-96),
        });
        d.cwp_after = crate::regs::save_cwp(0);
        // reads caller's %sp, writes callee's %sp: different physical regs
        assert!(d
            .reads()
            .contains_conflict(&Resource::Int(phys_reg(0, r::SP))));
        assert!(d
            .writes()
            .contains_conflict(&Resource::Int(phys_reg(d.cwp_after, r::SP))));
        assert!(d.writes().contains_conflict(&Resource::Cwp));
    }

    #[test]
    fn branch_reads_flags() {
        let d = dyn_of(Instr::Bicc {
            cond: Cond::Le,
            disp22: -4,
        });
        assert!(d.reads().contains_conflict(&Resource::Icc));
        assert_eq!(d.static_target(), Some(0x1000 - 16));
        assert_eq!(d.fall_through(), 0x1008);
    }
}
