//! Class-preserving block corruption.
//!
//! Every helper mutates a sealed [`Block`] the way a hardware fault in
//! the VLIW Cache SRAM or in the Scheduler Unit's datapath would: the
//! *value* of an operand field, a next-block address, a branch tag or a
//! COPY companion rots, but the operation's class (opcode, destination
//! list, functional unit) stays intact. That restriction is what makes
//! the faults *survivable*: the VLIW Engine can always execute a
//! corrupted block to its boundary, where the lockstep oracle or the
//! integrity checksum catches the damage — the fault model stresses the
//! machine's recovery mechanisms, not the simulator's slot plumbing.
//!
//! All helpers draw picks from the caller's seeded [`Rng64`] and return
//! whether a mutation actually landed (a block with no eligible field is
//! left untouched).

use crate::Rng64;
use dtsvliw_isa::{Instr, Src2};
use dtsvliw_sched::{Block, SlotOp};

/// Operand fields eligible for a bit-flip, located by `(li, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlipKind {
    /// ALU immediate, bits 0..12 (sign bit untouched so the value stays
    /// a valid 13-bit immediate).
    AluImm,
    /// ALU first source register, bits 0..5.
    AluRs1,
    /// `sethi` 22-bit immediate (only when `rd != 0`; corrupting a `nop`
    /// is architecturally invisible).
    SethiImm,
    /// Load/store immediate, bits 2..12 — flipping a multiple of 4
    /// preserves the access's alignment class.
    MemImm,
    /// FP second source register, bits 0..5.
    FpopRs2,
}

/// Flip one bit of one operand field of one scheduled instruction
/// (models a single-event upset in the VLIW Cache SRAM). Returns `false`
/// when the block holds no eligible operand.
pub fn flip_operand_bit(b: &mut Block, rng: &mut Rng64) -> bool {
    let mut candidates: Vec<(usize, usize, FlipKind)> = Vec::new();
    for (li, slot, op) in occupied(b) {
        let SlotOp::Instr(s) = op else { continue };
        match s.d.instr {
            Instr::Alu { rs1, src2, .. } => {
                if matches!(src2, Src2::Imm(_)) {
                    candidates.push((li, slot, FlipKind::AluImm));
                }
                if rs1 < 32 {
                    candidates.push((li, slot, FlipKind::AluRs1));
                }
            }
            Instr::Sethi { rd, .. } if rd != 0 => {
                candidates.push((li, slot, FlipKind::SethiImm));
            }
            Instr::Mem { src2, .. } => {
                if matches!(src2, Src2::Imm(_)) {
                    candidates.push((li, slot, FlipKind::MemImm));
                }
            }
            Instr::Fpop { rs2, .. } if rs2 < 32 => {
                candidates.push((li, slot, FlipKind::FpopRs2));
            }
            _ => {}
        }
    }
    let Some(&(li, slot, kind)) = pick(&candidates, rng) else {
        return false;
    };
    let Some(SlotOp::Instr(s)) = b.lis[li].get_mut(slot) else {
        unreachable!("candidate slot vanished");
    };
    match (&mut s.d.instr, kind) {
        (
            Instr::Alu {
                src2: Src2::Imm(v), ..
            },
            FlipKind::AluImm,
        ) => {
            *v ^= 1 << rng.below(12);
        }
        (Instr::Alu { rs1, .. }, FlipKind::AluRs1) => {
            *rs1 ^= 1 << rng.below(5);
        }
        (Instr::Sethi { imm22, .. }, FlipKind::SethiImm) => {
            *imm22 ^= 1 << rng.below(22);
        }
        (
            Instr::Mem {
                src2: Src2::Imm(v), ..
            },
            FlipKind::MemImm,
        ) => {
            *v ^= 1 << (2 + rng.below(10));
        }
        (Instr::Fpop { rs2, .. }, FlipKind::FpopRs2) => {
            *rs2 ^= 1 << rng.below(5);
        }
        _ => unreachable!("candidate kind does not match instruction"),
    }
    true
}

/// Corrupt the block's next-block-address store by flipping one word-
/// aligned address bit (bits 2..10): the chain continues at a wrong but
/// well-formed address, which the lockstep oracle catches on the very
/// next PC comparison.
pub fn corrupt_nba(b: &mut Block, rng: &mut Rng64) -> bool {
    b.nba_addr ^= 1 << (2 + rng.below(8));
    true
}

/// Zero the branch tag of one operation scheduled under a branch: the
/// operation now commits even when its guarding branch leaves the
/// recorded direction (§3.8 inverted). Harmless until a guard actually
/// mispredicts, which is exactly the paper's failure scenario.
pub fn invert_branch_tag(b: &mut Block, rng: &mut Rng64) -> bool {
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (li, slot, op) in occupied(b) {
        if op.tag() > 0 {
            candidates.push((li, slot));
        }
    }
    let Some(&(li, slot)) = pick(&candidates, rng) else {
        return false;
    };
    match b.lis[li].get_mut(slot) {
        Some(SlotOp::Instr(s)) => s.tag = 0,
        Some(SlotOp::Copy(c)) => c.tag = 0,
        None => unreachable!("candidate slot vanished"),
    }
    true
}

/// Drop one COPY companion from the block: the renamed value never
/// commits to its original location (§3.2 split losing its second half).
pub fn drop_copy(b: &mut Block, rng: &mut Rng64) -> bool {
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (li, slot, op) in occupied(b) {
        if matches!(op, SlotOp::Copy(_)) {
            candidates.push((li, slot));
        }
    }
    let Some(&(li, slot)) = pick(&candidates, rng) else {
        return false;
    };
    b.lis[li].take(slot);
    true
}

/// Every occupied slot as `(li, slot, op)`, row-major and lowest slot
/// first: the order candidates are drawn in, so a seeded campaign
/// corrupts the same field whatever the storage layout.
fn occupied(b: &Block) -> impl Iterator<Item = (usize, usize, &SlotOp)> {
    b.lis.iter().enumerate().flat_map(|(li, row)| {
        row.slots()
            .enumerate()
            .filter_map(move |(slot, op)| op.map(|op| (li, slot, op)))
    })
}

/// Uniform pick; draws from the stream only when non-empty so a barren
/// block does not perturb later decisions' reproducibility.
fn pick<'a, T>(candidates: &'a [T], rng: &mut Rng64) -> Option<&'a T> {
    if candidates.is_empty() {
        None
    } else {
        Some(&candidates[rng.below(candidates.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_isa::{AluOp, DynInstr, ResList, Resource};
    use dtsvliw_sched::{CopyInstr, LongInstr, RenameCounts, ScheduledInstr};

    fn dyn_instr(instr: Instr) -> DynInstr {
        DynInstr {
            seq: 0,
            pc: 0x1000,
            instr,
            cwp_before: 0,
            cwp_after: 0,
            eff_addr: None,
            taken: None,
            target: None,
            delay_is_nop: false,
        }
    }

    fn sched(instr: Instr, tag: u8) -> ScheduledInstr {
        ScheduledInstr {
            d: dyn_instr(instr),
            reads: ResList::default(),
            writes: ResList::default(),
            tag,
            ls_order: None,
            cross: false,
            src_renames: Vec::new(),
        }
    }

    fn block(lis: Vec<LongInstr>) -> Block {
        Block {
            tag_addr: 0x1000,
            entry_cwp: 0,
            entry_resident: 1,
            window_sensitive: false,
            lis,
            nba_addr: 0x2000,
            renames: RenameCounts::default(),
            first_seq: 0,
            trace_len: 4,
        }
    }

    fn alu_imm(rd: u8, rs1: u8, imm: i32) -> Instr {
        Instr::Alu {
            op: AluOp::Add,
            cc: false,
            rd,
            rs1,
            src2: Src2::Imm(imm),
        }
    }

    #[test]
    fn flip_changes_an_operand_and_nothing_else() {
        let mut li = LongInstr::empty(4);
        li.set(0, SlotOp::Instr(sched(alu_imm(1, 2, 100), 0)));
        let mut b = block(vec![li]);
        let clean = b.clone();
        let mut rng = Rng64::new(5);
        assert!(flip_operand_bit(&mut b, &mut rng));
        assert_ne!(b, clean, "some operand bit flipped");
        assert_eq!(b.nba_addr, clean.nba_addr);
        assert_eq!(b.lis[0].len(), 1, "no slot appeared or vanished");
        let (Some(SlotOp::Instr(got)), Some(SlotOp::Instr(was))) =
            (b.lis[0].get(0), clean.lis[0].get(0))
        else {
            panic!("slot shape changed");
        };
        assert_eq!(got.writes, was.writes, "destinations are never corrupted");
        match got.d.instr {
            Instr::Alu { op, cc, rd, .. } => {
                assert_eq!((op, cc, rd), (AluOp::Add, false, 1), "class preserved");
            }
            other => panic!("opcode class changed: {other:?}"),
        }
    }

    #[test]
    fn flip_preserves_imm13_range() {
        for seed in 0..64 {
            let mut li = LongInstr::empty(1);
            li.set(0, SlotOp::Instr(sched(alu_imm(1, 0, -4096), 0)));
            let mut b = block(vec![li]);
            let mut rng = Rng64::new(seed);
            assert!(flip_operand_bit(&mut b, &mut rng));
            if let Some(SlotOp::Instr(s)) = b.lis[0].get(0) {
                match s.d.instr {
                    Instr::Alu {
                        src2: Src2::Imm(v), ..
                    } => assert!((-4096..=4095).contains(&v), "imm {v} left imm13"),
                    Instr::Alu { rs1, .. } => assert!(rs1 < 32),
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn flip_skips_barren_blocks() {
        // Only a nop (sethi to %g0): nothing eligible.
        let mut li = LongInstr::empty(2);
        li.set(0, SlotOp::Instr(sched(Instr::NOP, 0)));
        let mut b = block(vec![li]);
        let clean = b.clone();
        let mut rng = Rng64::new(1);
        let before = rng;
        assert!(!flip_operand_bit(&mut b, &mut rng));
        assert_eq!(b, clean);
        assert_eq!(rng, before, "no stream draw on a barren block");
    }

    #[test]
    fn nba_corruption_keeps_word_alignment_and_differs() {
        for seed in 0..32 {
            let mut b = block(vec![LongInstr::empty(1)]);
            let mut rng = Rng64::new(seed);
            assert!(corrupt_nba(&mut b, &mut rng));
            assert_ne!(b.nba_addr, 0x2000);
            assert_eq!(b.nba_addr % 4, 0);
        }
    }

    #[test]
    fn tag_inversion_zeroes_a_guarded_op() {
        let mut li = LongInstr::empty(4);
        li.set(0, SlotOp::Instr(sched(alu_imm(1, 2, 4), 0)));
        li.set(1, SlotOp::Instr(sched(alu_imm(3, 4, 8), 2)));
        let mut b = block(vec![li]);
        let mut rng = Rng64::new(3);
        assert!(invert_branch_tag(&mut b, &mut rng));
        let Some(SlotOp::Instr(s)) = b.lis[0].get(1) else {
            panic!()
        };
        assert_eq!(s.tag, 0, "the only tagged op lost its guard");
        // A block with no tagged ops is untouched.
        let mut plain = block(vec![LongInstr::empty(1)]);
        assert!(!invert_branch_tag(&mut plain, &mut rng));
    }

    #[test]
    fn copy_drop_removes_exactly_one_copy() {
        let copy = CopyInstr {
            pairs: [(Resource::IntRen(0), Resource::Int(9))]
                .into_iter()
                .collect(),
            tag: 0,
            ls_order: None,
            cross: false,
            orig_seq: 7,
        };
        let mut li = LongInstr::empty(4);
        li.set(0, SlotOp::Instr(sched(alu_imm(1, 2, 4), 0)));
        li.set(2, SlotOp::Copy(copy));
        let mut b = block(vec![li]);
        let mut rng = Rng64::new(11);
        assert!(drop_copy(&mut b, &mut rng));
        assert!(b.lis[0].get(2).is_none(), "the COPY slot emptied");
        assert!(b.lis[0].get(0).is_some(), "the real instr survives");
        assert!(!drop_copy(&mut b, &mut rng), "no COPY left to drop");
    }

    #[test]
    fn corruptions_are_seed_reproducible() {
        let build = || {
            let mut li = LongInstr::empty(4);
            li.set(0, SlotOp::Instr(sched(alu_imm(1, 2, 100), 0)));
            li.set(1, SlotOp::Instr(sched(Instr::Sethi { rd: 5, imm22: 7 }, 1)));
            block(vec![li])
        };
        let (mut a, mut b) = (build(), build());
        let mut ra = Rng64::new(99);
        let mut rb = Rng64::new(99);
        assert!(flip_operand_bit(&mut a, &mut ra));
        assert!(flip_operand_bit(&mut b, &mut rb));
        assert_eq!(a, b, "same seed, same corruption");
    }
}
