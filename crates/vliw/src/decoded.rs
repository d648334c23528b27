//! Pre-decoded VLIW lines: the flat execution form of a cached block.
//!
//! A [`Block`] is the *storage* form of a VLIW Cache line: rows of
//! densely stored [`SlotOp`]s whose operands still name
//! visible registers that must be window-resolved and redirected through
//! the block's `src_renames` on every read. Executing from that form
//! pays an enum match, a `phys_reg` computation and a linear rename
//! search per operand per cycle — on every execution of the line.
//!
//! [`DecodedLine`] is the *execution* form: produced when the VLIW
//! Engine first enters the line (and again after anything mutates the
//! stored block), it is a single contiguous slot array in which every operand
//! is already resolved to a direct register-file index
//! ([`IntSrc`]/[`FpSrc`]/[`CcSrc`]), immediates are precomputed
//! (`sethi`'s `imm22 << 10`, branch targets), and per-row spans carry
//! the occupancy/width the machine's metrics need without touching the
//! stored block, plus flags naming the engine phases each row can reach.
//!
//! Decoding is **infallible and semantics-free**: every condition the
//! engine checks at execution time (missing `ls_order`, bad COPY
//! routing, absent write-back results, missing branch targets) is
//! preserved as data and still detected — or still panics — at
//! execution time, on the cycle the stored block would raise it. That
//! property is what lets the engine run *all* execution (hooked or
//! not) through the decoded form, which is the only form it executes.

use dtsvliw_isa::cond::{Cond, FCond};
use dtsvliw_isa::insn::{AluOp, FpOp, MemOp, Src2};
use dtsvliw_isa::regs::phys_reg;
use dtsvliw_isa::{ResList, Resource};
use dtsvliw_sched::{Block, CopyInstr, ScheduledInstr, SlotOp};
use std::sync::Arc;

/// A pre-resolved integer operand source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntSrc {
    /// `%g0` or an absent operand: reads as zero.
    Zero,
    /// Physical integer register (window resolution already applied).
    Phys(u16),
    /// Integer renaming register (source redirection already applied).
    Ren(u32),
}

/// A pre-resolved FP operand source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpSrc {
    /// Architectural FP register.
    Arch(u8),
    /// FP renaming register.
    Ren(u32),
}

/// A pre-resolved condition-code source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcSrc {
    /// The architectural codes.
    Arch,
    /// A renaming code register.
    Ren(u32),
}

/// A pre-resolved second operand: register or sign-extended immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src2D {
    /// Register source.
    Reg(IntSrc),
    /// Immediate, already widened to the u32 the ALU consumes.
    Imm(u32),
}

/// Data source of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreData {
    /// Integer store data.
    Int(IntSrc),
    /// FP store data.
    Fp(FpSrc),
}

/// The operation class of a decoded slot, with operands pre-resolved.
///
/// Each variant mirrors one arm of the engine's compute phase; fields
/// that the engine validates at run time (recorded directions, static
/// targets, memory order tags) stay `Option` so validation happens at
/// the same moment — and with the same outcome — as for the stored form.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedKind {
    /// Integer ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Sets the condition codes?
        cc: bool,
        /// First operand.
        a: IntSrc,
        /// Second operand.
        b: Src2D,
        /// Condition-code source (`mulscc` consumes it).
        icc: CcSrc,
    },
    /// A precomputed integer result: `sethi` (imm22 << 10) and `call`
    /// (link address).
    SetInt {
        /// The value written back.
        value: u32,
    },
    /// A load.
    Load {
        /// Memory operation (sign/zero extension and FP-ness).
        op: MemOp,
        /// Base register.
        a: IntSrc,
        /// Offset.
        b: Src2D,
    },
    /// A store (real or staged into the memory renaming buffer).
    Store {
        /// Base register.
        a: IntSrc,
        /// Offset.
        b: Src2D,
        /// Data source.
        data: StoreData,
        /// Access size in bytes.
        size: u8,
        /// `Some(k)`: a split store staging into memory renaming buffer
        /// `k` (committed later by a COPY); `None`: a real store.
        membuf: Option<u32>,
    },
    /// Conditional branch on the integer condition codes.
    Bicc {
        /// Condition.
        cond: Cond,
        /// Condition-code source.
        cc: CcSrc,
        /// Direction recorded at schedule time.
        recorded: Option<bool>,
        /// Statically-encoded target (`None` only in corrupted blocks;
        /// the engine panics on use, exactly like the stored form).
        target: Option<u32>,
        /// Fall-through address (past the delay slot).
        fall: u32,
    },
    /// Conditional branch on the FP condition code.
    FBfcc {
        /// Condition.
        cond: FCond,
        /// Condition-code source.
        cc: CcSrc,
        /// Direction recorded at schedule time.
        recorded: Option<bool>,
        /// Statically-encoded target.
        target: Option<u32>,
        /// Fall-through address.
        fall: u32,
    },
    /// `jmpl`: indirect jump and link.
    Jmpl {
        /// Base register.
        a: IntSrc,
        /// Offset.
        b: Src2D,
        /// Link value (the jump's own address).
        link: u32,
        /// Target recorded at schedule time.
        recorded: Option<u32>,
    },
    /// `save`/`restore`: window shift plus an add across windows.
    SaveRestore {
        /// First operand (read in the entry window).
        a: IntSrc,
        /// Second operand.
        b: Src2D,
        /// Window pointer after the shift.
        cwp_after: u8,
        /// Resident-window delta: +1 for `save`, -1 for `restore`.
        delta: i8,
    },
    /// Floating-point operate instruction.
    Fpop {
        /// Operation.
        op: FpOp,
        /// First operand.
        a: FpSrc,
        /// Second operand.
        b: FpSrc,
        /// FP condition-code source (`fcmps` writes it).
        cc: CcSrc,
    },
    /// `rd %y`.
    RdY,
    /// `wr ..., %y`.
    WrY {
        /// First operand.
        a: IntSrc,
        /// Second operand.
        b: Src2D,
    },
    /// A non-schedulable instruction presented by a corrupted block:
    /// treated as a runtime fault (rollback), never a panic.
    Fault,
    /// A COPY left behind by a split. Pairs are routed at execution
    /// time so bad sources/targets error exactly like the stored form.
    Copy {
        /// `(renaming register, original location)` pairs.
        pairs: Vec<(Resource, Resource)>,
    },
}

/// One occupied slot of a decoded line.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedOp {
    /// The operation with operands pre-resolved.
    pub kind: DecodedKind,
    /// Branch tag (validity cutoff, §3.8).
    pub tag: u8,
    /// Cross bit (§3.10).
    pub cross: bool,
    /// Load/store order field; checked at execution time.
    pub ls_order: Option<u16>,
    /// Write-back destinations (after renaming).
    pub writes: ResList,
    /// Dynamic sequence number when this op is a conditional/indirect
    /// branch (test-machine synchronisation on redirects).
    pub branch_seq: Option<u64>,
}

/// One row (long instruction) of a decoded line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedRow {
    /// First op of this row in [`DecodedLine::ops`].
    pub start: u32,
    /// One past the last op of this row.
    pub end: u32,
    /// Occupied slots (the `li_slot_occupancy` metric).
    pub occupancy: u8,
    /// Total slots, occupied or not (the profiler's width column).
    pub width: u8,
    /// What the row's ops can do, as [`DecodedRow::BRANCH`] and the
    /// other flag bits: the engine skips every per-cycle phase whose
    /// flag is clear.
    pub flags: u8,
}

impl DecodedRow {
    /// A conditional branch or `jmpl`: the branch-tag cutoff may fire.
    pub const BRANCH: u8 = 1;
    /// A load: it reaches the data cache before tags resolve.
    pub const LOAD: u8 = 2;
    /// A load, a real store or a COPY that commits a split store: an
    /// access the aliasing detector checks (§3.10).
    pub const ALIAS_CHECKED: u8 = 4;
    /// A COPY left behind by a split (§3.9).
    pub const COPY: u8 = 8;
    /// A memory access (misaligned at run time) or a non-schedulable
    /// instruction: the row can raise a runtime fault.
    pub const CAN_FAULT: u8 = 16;

    /// True when any of the `flags` bits is set.
    #[inline]
    pub fn has(&self, flags: u8) -> bool {
        self.flags & flags != 0
    }
}

/// The [`DecodedRow`] flag bits one op contributes to its row.
fn row_flags(op: &DecodedOp) -> u8 {
    match &op.kind {
        DecodedKind::Bicc { .. } | DecodedKind::FBfcc { .. } | DecodedKind::Jmpl { .. } => {
            DecodedRow::BRANCH
        }
        DecodedKind::Load { .. } => {
            DecodedRow::LOAD | DecodedRow::ALIAS_CHECKED | DecodedRow::CAN_FAULT
        }
        DecodedKind::Store { membuf: None, .. } => {
            DecodedRow::ALIAS_CHECKED | DecodedRow::CAN_FAULT
        }
        DecodedKind::Store {
            membuf: Some(_), ..
        }
        | DecodedKind::Fault => DecodedRow::CAN_FAULT,
        DecodedKind::Copy { pairs } => {
            if pairs
                .iter()
                .any(|(from, _)| matches!(from, Resource::MemRen(_)))
            {
                DecodedRow::COPY | DecodedRow::ALIAS_CHECKED
            } else {
                DecodedRow::COPY
            }
        }
        _ => 0,
    }
}

/// A block lowered to its flat execution form: one contiguous op array
/// plus per-row spans. Stored alongside the block in the VLIW Cache and
/// carried (as an [`Arc`]) by the machine's VLIW mode, so decode happens
/// once per installed block that is ever entered, not once per execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecodedLine {
    /// Every occupied slot of the block, rows concatenated in order.
    pub ops: Vec<DecodedOp>,
    /// Row spans into `ops`, one per long instruction.
    pub rows: Vec<DecodedRow>,
    /// Index of the last row (the nba line, §3.4).
    pub nba_line: usize,
}

impl DecodedLine {
    /// The ops of row `li`.
    #[inline]
    pub fn row_ops(&self, li: usize) -> &[DecodedOp] {
        let r = &self.rows[li];
        &self.ops[r.start as usize..r.end as usize]
    }
}

fn int_src(s: &ScheduledInstr, reg: u8) -> IntSrc {
    if reg == 0 {
        return IntSrc::Zero;
    }
    let p = phys_reg(s.d.cwp_before, reg);
    match redirected(s, Resource::Int(p)) {
        Some(Resource::IntRen(k)) => IntSrc::Ren(k),
        _ => IntSrc::Phys(p),
    }
}

fn fp_src(s: &ScheduledInstr, f: u8) -> FpSrc {
    match redirected(s, Resource::Fp(f)) {
        Some(Resource::FpRen(k)) => FpSrc::Ren(k),
        _ => FpSrc::Arch(f),
    }
}

fn icc_src(s: &ScheduledInstr) -> CcSrc {
    match redirected(s, Resource::Icc) {
        Some(Resource::IccRen(k)) => CcSrc::Ren(k),
        _ => CcSrc::Arch,
    }
}

fn fcc_src(s: &ScheduledInstr) -> CcSrc {
    match redirected(s, Resource::Fcc) {
        Some(Resource::FccRen(k)) => CcSrc::Ren(k),
        _ => CcSrc::Arch,
    }
}

fn src2(s: &ScheduledInstr, src2: Src2) -> Src2D {
    match src2 {
        Src2::Reg(r) => Src2D::Reg(int_src(s, r)),
        Src2::Imm(i) => Src2D::Imm(i as u32),
    }
}

fn redirected(s: &ScheduledInstr, orig: Resource) -> Option<Resource> {
    s.src_renames
        .iter()
        .find(|(o, _)| *o == orig)
        .map(|(_, r)| *r)
}

fn decode_instr(s: &ScheduledInstr) -> DecodedKind {
    use dtsvliw_isa::insn::Instr;
    match s.d.instr {
        Instr::Alu {
            op,
            cc,
            rs1,
            src2: b,
            ..
        } => DecodedKind::Alu {
            op,
            cc,
            a: int_src(s, rs1),
            b: src2(s, b),
            icc: icc_src(s),
        },
        Instr::Sethi { imm22, .. } => DecodedKind::SetInt { value: imm22 << 10 },
        Instr::Mem {
            op,
            rd,
            rs1,
            src2: b,
        } => {
            if op.is_store() {
                let data = if op.is_fp() {
                    StoreData::Fp(fp_src(s, rd))
                } else {
                    StoreData::Int(int_src(s, rd))
                };
                let membuf = s.writes.iter().find_map(|w| match w {
                    Resource::MemRen(k) => Some(*k),
                    _ => None,
                });
                DecodedKind::Store {
                    a: int_src(s, rs1),
                    b: src2(s, b),
                    data,
                    size: op.size(),
                    membuf,
                }
            } else {
                DecodedKind::Load {
                    op,
                    a: int_src(s, rs1),
                    b: src2(s, b),
                }
            }
        }
        Instr::Bicc { cond, .. } => DecodedKind::Bicc {
            cond,
            cc: icc_src(s),
            recorded: s.d.taken,
            target: s.d.static_target(),
            fall: s.d.fall_through(),
        },
        Instr::FBfcc { cond, .. } => DecodedKind::FBfcc {
            cond,
            cc: fcc_src(s),
            recorded: s.d.taken,
            target: s.d.static_target(),
            fall: s.d.fall_through(),
        },
        Instr::Call { .. } => DecodedKind::SetInt { value: s.d.pc },
        Instr::Jmpl { rs1, src2: b, .. } => DecodedKind::Jmpl {
            a: int_src(s, rs1),
            b: src2(s, b),
            link: s.d.pc,
            recorded: s.d.target,
        },
        Instr::Save { rs1, src2: b, .. } => DecodedKind::SaveRestore {
            a: int_src(s, rs1),
            b: src2(s, b),
            cwp_after: s.d.cwp_after,
            delta: 1,
        },
        Instr::Restore { rs1, src2: b, .. } => DecodedKind::SaveRestore {
            a: int_src(s, rs1),
            b: src2(s, b),
            cwp_after: s.d.cwp_after,
            delta: -1,
        },
        Instr::Fpop { op, rs1, rs2, .. } => DecodedKind::Fpop {
            op,
            a: fp_src(s, rs1),
            b: fp_src(s, rs2),
            cc: fcc_src(s),
        },
        Instr::RdY { .. } => DecodedKind::RdY,
        Instr::WrY { rs1, src2: b } => DecodedKind::WrY {
            a: int_src(s, rs1),
            b: src2(s, b),
        },
        Instr::Trap { .. } | Instr::Illegal(_) => DecodedKind::Fault,
    }
}

fn decode_slot(op: &SlotOp) -> DecodedOp {
    match op {
        SlotOp::Instr(s) => DecodedOp {
            kind: decode_instr(s),
            tag: s.tag,
            cross: s.cross,
            ls_order: s.ls_order,
            writes: s.writes,
            branch_seq: s.d.instr.is_conditional_or_indirect().then_some(s.d.seq),
        },
        SlotOp::Copy(c) => decode_copy(c),
    }
}

fn decode_copy(c: &CopyInstr) -> DecodedOp {
    DecodedOp {
        kind: DecodedKind::Copy {
            pairs: c.pairs.to_vec(),
        },
        tag: c.tag,
        cross: c.cross,
        ls_order: c.ls_order,
        writes: ResList::default(),
        branch_seq: None,
    }
}

/// Lower `block` into its flat execution form, reusing the buffers of
/// `shell` (arena recycling: pass `DecodedLine::default()` when no spare
/// shell is available).
pub fn decode_block_into(block: &Block, mut shell: DecodedLine) -> DecodedLine {
    shell.ops.clear();
    shell.rows.clear();
    shell.rows.reserve(block.lis.len());
    for li in &block.lis {
        let start = shell.ops.len() as u32;
        let mut flags = 0;
        for op in li.ops() {
            let op = decode_slot(op);
            flags |= row_flags(&op);
            shell.ops.push(op);
        }
        shell.rows.push(DecodedRow {
            start,
            end: shell.ops.len() as u32,
            occupancy: (shell.ops.len() as u32 - start) as u8,
            width: li.width() as u8,
            flags,
        });
    }
    shell.nba_line = block.nba_line();
    shell
}

/// Lower `block` into a fresh [`DecodedLine`].
pub fn decode_block(block: &Block) -> DecodedLine {
    decode_block_into(block, DecodedLine::default())
}

/// A small pool of decoded-line shells, so re-decoding a mutated or
/// restored line reuses the slot arrays of lines that left the cache
/// instead of reallocating them.
#[derive(Debug, Clone, Default)]
pub struct DecodeArena {
    spare: Vec<DecodedLine>,
}

/// Shells kept around at most (beyond this, freed lines just drop).
const ARENA_CAP: usize = 64;

impl DecodeArena {
    /// Take a recycled shell (or an empty one).
    pub fn take_shell(&mut self) -> DecodedLine {
        self.spare.pop().unwrap_or_default()
    }

    /// Shells waiting for reuse.
    #[cfg(test)]
    pub(crate) fn spare_shells(&self) -> usize {
        self.spare.len()
    }

    /// Return a decoded line to the pool if this was the last reference
    /// to it (the machine may still hold a clone for the block it is
    /// executing; such lines are simply dropped by their holder later).
    pub fn recycle(&mut self, line: Arc<DecodedLine>) {
        if self.spare.len() < ARENA_CAP {
            if let Ok(line) = Arc::try_unwrap(line) {
                self.spare.push(line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_isa::insn::Instr;
    use dtsvliw_isa::DynInstr;
    use dtsvliw_sched::block::RenameCounts;
    use dtsvliw_sched::LongInstr;

    fn sched(instr: Instr, cwp: u8, renames: Vec<(Resource, Resource)>) -> ScheduledInstr {
        ScheduledInstr {
            d: DynInstr {
                seq: 7,
                pc: 0x1000,
                instr,
                cwp_before: cwp,
                cwp_after: cwp,
                eff_addr: None,
                taken: None,
                target: None,
                delay_is_nop: true,
            },
            reads: ResList::default(),
            writes: ResList::default(),
            tag: 1,
            ls_order: None,
            cross: false,
            src_renames: renames,
        }
    }

    #[test]
    fn operands_fold_window_and_renames() {
        // %o0 at cwp 2 resolves to a fixed physical index...
        let p = phys_reg(2, 8);
        let s = sched(
            Instr::Alu {
                op: AluOp::Add,
                cc: false,
                rd: 9,
                rs1: 8,
                src2: Src2::Imm(-4),
            },
            2,
            Vec::new(),
        );
        match decode_instr(&s) {
            DecodedKind::Alu { a, b, .. } => {
                assert_eq!(a, IntSrc::Phys(p));
                assert_eq!(b, Src2D::Imm((-4i32) as u32));
            }
            other => panic!("not an alu: {other:?}"),
        }
        // ...and a source redirection folds to a rename index.
        let s = sched(
            Instr::Alu {
                op: AluOp::Add,
                cc: false,
                rd: 9,
                rs1: 8,
                src2: Src2::Reg(0),
            },
            2,
            vec![(Resource::Int(p), Resource::IntRen(3))],
        );
        match decode_instr(&s) {
            DecodedKind::Alu { a, b, .. } => {
                assert_eq!(a, IntSrc::Ren(3));
                assert_eq!(b, Src2D::Reg(IntSrc::Zero), "%g0 reads as zero");
            }
            other => panic!("not an alu: {other:?}"),
        }
    }

    #[test]
    fn rows_carry_occupancy_and_spans() {
        let mut li0 = LongInstr::empty(4);
        li0.set(2, SlotOp::Instr(sched(Instr::RdY { rd: 2 }, 0, Vec::new())));
        li0.set(
            0,
            SlotOp::Instr(sched(Instr::Sethi { rd: 1, imm22: 42 }, 0, Vec::new())),
        );
        let b = Block {
            tag_addr: 0x1000,
            entry_cwp: 0,
            entry_resident: 1,
            window_sensitive: false,
            lis: vec![li0, LongInstr::empty(4)],
            nba_addr: 0x2000,
            renames: RenameCounts::default(),
            first_seq: 0,
            trace_len: 2,
        };
        let d = decode_block(&b);
        assert_eq!(d.rows.len(), 2);
        assert_eq!(d.rows[0].occupancy, 2);
        assert_eq!(d.rows[0].width, 4);
        assert_eq!(d.rows[1].occupancy, 0);
        assert_eq!(d.nba_line, 1);
        assert_eq!(d.row_ops(0).len(), 2);
        assert!(matches!(
            d.row_ops(0)[0].kind,
            DecodedKind::SetInt { value } if value == 42 << 10
        ));
        // Shell recycling preserves content equality.
        let mut arena = DecodeArena::default();
        arena.recycle(Arc::new(decode_block(&b)));
        let again = decode_block_into(&b, arena.take_shell());
        assert_eq!(d, again);
    }

    #[test]
    fn row_flags_name_the_phases_each_row_needs() {
        let mem = |op, writes: Vec<Resource>| {
            let mut s = sched(
                Instr::Mem {
                    op,
                    rd: 9,
                    rs1: 8,
                    src2: Src2::Imm(0),
                },
                0,
                Vec::new(),
            );
            s.ls_order = Some(1);
            for w in writes {
                s.writes.push(w);
            }
            SlotOp::Instr(s)
        };
        let copy = |from| {
            SlotOp::Copy(CopyInstr {
                pairs: [(from, Resource::Int(9))].into_iter().collect(),
                tag: 1,
                ls_order: Some(2),
                cross: false,
                orig_seq: 3,
            })
        };
        let jmpl = Instr::Jmpl {
            rd: 0,
            rs1: 31,
            src2: Src2::Imm(8),
        };
        let rows = [
            (
                vec![SlotOp::Instr(sched(Instr::RdY { rd: 2 }, 0, Vec::new()))],
                0,
            ),
            (
                vec![SlotOp::Instr(sched(jmpl, 0, Vec::new()))],
                DecodedRow::BRANCH,
            ),
            (
                vec![mem(MemOp::Ld, Vec::new())],
                DecodedRow::LOAD | DecodedRow::ALIAS_CHECKED | DecodedRow::CAN_FAULT,
            ),
            (
                vec![mem(MemOp::St, Vec::new())],
                DecodedRow::ALIAS_CHECKED | DecodedRow::CAN_FAULT,
            ),
            (
                vec![mem(MemOp::St, vec![Resource::MemRen(0)])],
                DecodedRow::CAN_FAULT,
            ),
            (vec![copy(Resource::IntRen(0))], DecodedRow::COPY),
            (
                vec![copy(Resource::MemRen(0))],
                DecodedRow::COPY | DecodedRow::ALIAS_CHECKED,
            ),
            (
                vec![SlotOp::Instr(sched(Instr::Trap { code: 0 }, 0, Vec::new()))],
                DecodedRow::CAN_FAULT,
            ),
        ];
        for (ops, want) in rows {
            let mut li = LongInstr::empty(4);
            for (i, op) in ops.into_iter().enumerate() {
                li.set(i, op);
            }
            let b = Block {
                tag_addr: 0x1000,
                entry_cwp: 0,
                entry_resident: 1,
                window_sensitive: false,
                lis: vec![li],
                nba_addr: 0x2000,
                renames: RenameCounts::default(),
                first_seq: 0,
                trace_len: 1,
            };
            let d = decode_block(&b);
            assert_eq!(d.rows[0].flags, want, "{:?}", d.ops[0].kind);
        }
    }
}
