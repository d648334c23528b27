//! The VLIW Engine: executes one long instruction per cycle (§3.5).
//!
//! Execution of a long instruction is two-phase — every operation reads
//! the machine state as it was at the start of the cycle, then valid
//! operations commit — which is exactly what a bank of lock-stepped
//! fetch/execute/write-back pipelines does. Validity is decided by the
//! branch-tag system (§3.8): an operation commits only while every
//! conditional/indirect branch of the same long instruction with a
//! smaller tag followed the direction recorded at schedule time.
//!
//! Memory aliasing (§3.10) is detected with the order/cross-bit fields
//! and two associative lists; exceptions recover through the
//! checkpointing mechanism of Hwu and Patt (§3.11): shadow registers
//! taken at block entry plus a checkpoint-recovery store list of
//! overwritten data.

use crate::decoded::{
    CcSrc, DecodedKind, DecodedLine, DecodedOp, DecodedRow, FpSrc, IntSrc, Src2D, StoreData,
};
use dtsvliw_isa::alu::{exec_alu, exec_fp};
use dtsvliw_isa::cond::{Fcc, Icc};
use dtsvliw_isa::insn::{AluOp, FpOp, MemOp};
use dtsvliw_isa::{ArchState, Resource};
use dtsvliw_json::{FromJson, Json, ToJson};
use dtsvliw_mem::Memory;
use dtsvliw_sched::snapshot::{arch_state_from_json, arch_state_to_json};
use dtsvliw_sched::Block;

/// How VLIW-mode stores reach memory (§3.11 presents both schemes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StoreScheme {
    /// Stores write the Data Cache immediately; overwritten data is
    /// logged in the checkpoint-recovery store list and unwound on
    /// rollback. The scheme the paper's simulator used.
    #[default]
    Checkpoint,
    /// The paper's alternative: stores stage in a *data store list* and
    /// transfer to the Data Cache **in program order** when the block
    /// finishes without exceptions; loads snoop the list ("read from
    /// the Data Cache and from the data store list at the same time,
    /// and use the last data stored in the list on a list hit").
    /// Rollback just discards the list. The paper left this scheme to
    /// "further research" — implemented here for the ablation bench.
    StoreBuffer,
}

/// Control outcome of one long-instruction cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiResult {
    /// Proceed to the next long instruction of the block.
    Next,
    /// The nba line index was reached: the block is complete. The
    /// machine commits the checkpoint and follows the nba address.
    BlockEnd,
    /// A branch left the recorded direction: the executed prefix is
    /// committed and fetch redirects to the actual target (one-cycle
    /// bubble, §3.5).
    Redirect {
        /// The branch's actual target.
        target: u32,
        /// Dynamic sequence number (at schedule time) of the
        /// mispredicting branch, for test-machine synchronisation.
        branch_seq: u64,
    },
    /// An exception rolled the block back to its checkpoint. For
    /// aliasing exceptions the machine invalidates the VLIW Cache entry
    /// and resumes the Primary Processor at the block's entry address.
    Exception {
        /// True for memory-aliasing exceptions (§3.10), false for other
        /// faults (e.g. a misaligned address materialising at runtime).
        aliasing: bool,
    },
}

/// Everything the machine needs to account one long-instruction cycle
/// besides the data-cache addresses, which land in the caller's buffer
/// (see [`VliwEngine::exec_li_decoded`]).
#[derive(Debug, Clone, Copy)]
pub struct LiExec {
    /// Control outcome.
    pub result: LiResult,
    /// Operations that committed.
    pub committed: u32,
    /// Operations annulled by branch tags.
    pub annulled: u32,
}

/// Structural failures the engine can hit while executing a block.
///
/// None of these arise from well-formed blocks — the Scheduler Unit
/// never emits a memory op without an `ls_order`, a COPY whose source is
/// an architectural register, or a write-back with no computed result.
/// They *do* arise from corrupted blocks (the PR 3 fault campaigns flip
/// bits in resident VLIW Cache lines), and a corrupted block must fail
/// as a recoverable machine error, not a simulator panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// [`VliwEngine::rollback`] was called with no active checkpoint.
    RollbackWithoutCheckpoint,
    /// A memory operation reached execution without the `ls_order`
    /// field the aliasing detector keys on (§3.10).
    MissingLsOrder,
    /// A committed operation's write-back destination had no computed
    /// result of the matching class.
    MissingWriteBack(Resource),
    /// A COPY operation's source was not a renaming register.
    BadCopySource(Resource),
    /// A COPY operation's target was not an architectural or renaming
    /// register of the source's class.
    BadCopyTarget(Resource),
    /// A mispredicting branch had no recorded dynamic sequence number.
    MissingBranchSeq,
    /// The VLIW Cache was built with no lines to install into.
    NoCacheLines,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RollbackWithoutCheckpoint => {
                write!(f, "rollback without an active checkpoint")
            }
            EngineError::MissingLsOrder => write!(f, "memory operation without an ls_order field"),
            EngineError::MissingWriteBack(r) => {
                write!(f, "write-back to {r:?} with no computed result")
            }
            EngineError::BadCopySource(r) => {
                write!(f, "copy source {r:?} is not a renaming register")
            }
            EngineError::BadCopyTarget(r) => write!(f, "copy target {r:?} has the wrong class"),
            EngineError::MissingBranchSeq => write!(f, "mispredicting branch without a seq"),
            EngineError::NoCacheLines => write!(f, "VLIW cache has no lines"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Aggregate VLIW Engine statistics (Table 3 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Long instructions executed.
    pub lis: u64,
    /// Operations committed (COPYs included).
    pub committed: u64,
    /// Operations annulled by branch tags.
    pub annulled: u64,
    /// Branches that left the recorded trace.
    pub mispredicts: u64,
    /// Memory-aliasing exceptions.
    pub alias_exceptions: u64,
    /// Non-aliasing runtime exceptions.
    pub other_exceptions: u64,
    /// High-water mark of the load list.
    pub max_load_list: u32,
    /// High-water mark of the store list.
    pub max_store_list: u32,
    /// High-water mark of the checkpoint-recovery store list.
    pub max_recovery_list: u32,
    /// High-water mark of the data store list (StoreBuffer scheme).
    pub max_data_store_list: u32,
    /// Aliasing exceptions swallowed by an armed fault (§3.10 false
    /// negatives under injection; always 0 in fault-free runs).
    pub alias_suppressed: u64,
    /// Checkpoint-recovery lists truncated by an armed fault.
    pub recovery_truncated: u64,
    /// Load/store-list entries dropped by an armed list cap.
    pub ls_list_dropped: u64,
}

/// Machine snapshots read the [`ToJson`] form back.
impl FromJson for EngineStats {
    fn from_json(j: &Json) -> Option<Self> {
        Some(EngineStats {
            lis: j.field("lis")?,
            committed: j.field("committed")?,
            annulled: j.field("annulled")?,
            mispredicts: j.field("mispredicts")?,
            alias_exceptions: j.field("alias_exceptions")?,
            other_exceptions: j.field("other_exceptions")?,
            max_load_list: j.field("max_load_list")?,
            max_store_list: j.field("max_store_list")?,
            max_recovery_list: j.field("max_recovery_list")?,
            max_data_store_list: j.field("max_data_store_list")?,
            alias_suppressed: j.field("alias_suppressed")?,
            recovery_truncated: j.field("recovery_truncated")?,
            ls_list_dropped: j.field("ls_list_dropped")?,
        })
    }
}

impl ToJson for EngineStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("lis", Json::U64(self.lis)),
            ("committed", Json::U64(self.committed)),
            ("annulled", Json::U64(self.annulled)),
            ("mispredicts", Json::U64(self.mispredicts)),
            ("alias_exceptions", Json::U64(self.alias_exceptions)),
            ("other_exceptions", Json::U64(self.other_exceptions)),
            ("max_load_list", Json::U64(self.max_load_list as u64)),
            ("max_store_list", Json::U64(self.max_store_list as u64)),
            (
                "max_recovery_list",
                Json::U64(self.max_recovery_list as u64),
            ),
            (
                "max_data_store_list",
                Json::U64(self.max_data_store_list as u64),
            ),
            ("alias_suppressed", Json::U64(self.alias_suppressed)),
            ("recovery_truncated", Json::U64(self.recovery_truncated)),
            ("ls_list_dropped", Json::U64(self.ls_list_dropped)),
        ])
    }
}

/// Fault knobs the machine's fault layer arms for one block execution.
/// The `dtsvliw-faults` crate decides *when* a fault fires; the engine
/// implements *what* happens, because the structures being damaged — the
/// aliasing detector and the checkpoint-recovery store list — are
/// engine-internal. All-default means fault-free operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineFaults {
    /// Swallow the next aliasing exception the detector raises (§3.10
    /// false negative): the inverted memory ops commit as if no alias
    /// existed. One-shot.
    pub suppress_alias: bool,
    /// Cap the associative load/store lists at this many entries;
    /// overflowing entries drop silently, blinding the detector to the
    /// accesses they would have recorded (an undersized list).
    pub alias_list_cap: Option<u32>,
    /// At the next long instruction where the checkpoint-recovery store
    /// list holds at least three entries: drop the *oldest* half of the
    /// list (rounding up) and force a rollback through the normal
    /// exception path. The depth gate makes the damage real: with two
    /// same-address stores in the list, dropping the older while the
    /// newer survives makes the rollback restore a *mid-block* value
    /// where pre-block data belonged (§3.11 losing entries). One-shot.
    pub truncate_recovery: bool,
}

#[derive(Debug, Clone, Copy)]
struct LsEntry {
    addr: u32,
    size: u8,
    order: u16,
}

/// Snapshots carry an entry as `[addr, size, order]`.
impl ToJson for LsEntry {
    fn to_json(&self) -> Json {
        (self.addr, self.size, self.order).to_json()
    }
}

impl FromJson for LsEntry {
    fn from_json(j: &Json) -> Option<Self> {
        let (addr, size, order) = FromJson::from_json(j)?;
        Some(LsEntry { addr, size, order })
    }
}

fn overlaps(a: &LsEntry, b: &LsEntry) -> bool {
    (a.addr as u64) < b.addr as u64 + b.size as u64
        && (b.addr as u64) < a.addr as u64 + a.size as u64
}

#[derive(Debug, Clone, Copy, Default)]
struct MemBufEntry {
    addr: u32,
    size: u8,
    value: u32,
}

/// Snapshots carry an entry as `[addr, size, value]`.
impl ToJson for MemBufEntry {
    fn to_json(&self) -> Json {
        (self.addr, self.size, self.value).to_json()
    }
}

impl FromJson for MemBufEntry {
    fn from_json(j: &Json) -> Option<Self> {
        let (addr, size, value) = FromJson::from_json(j)?;
        Some(MemBufEntry { addr, size, value })
    }
}

/// The renaming files and the memory renaming buffer: the engine state
/// ops read through pre-resolved operands and COPYs commit into.
#[derive(Debug, Clone, Default)]
struct RenameFiles {
    int: Vec<u32>,
    fp: Vec<u32>,
    icc: Vec<Icc>,
    fcc: Vec<Fcc>,
    membuf: Vec<MemBufEntry>,
}

impl RenameFiles {
    #[inline]
    fn int_of(&self, state: &ArchState, s: IntSrc) -> u32 {
        match s {
            IntSrc::Zero => 0,
            IntSrc::Phys(p) => state.int[p as usize],
            IntSrc::Ren(k) => self.int[k as usize],
        }
    }

    #[inline]
    fn src2_of(&self, state: &ArchState, b: Src2D) -> u32 {
        match b {
            Src2D::Reg(r) => self.int_of(state, r),
            Src2D::Imm(v) => v,
        }
    }

    #[inline]
    fn icc_of(&self, state: &ArchState, s: CcSrc) -> Icc {
        match s {
            CcSrc::Arch => state.icc,
            CcSrc::Ren(k) => self.icc[k as usize],
        }
    }

    #[inline]
    fn fcc_of(&self, state: &ArchState, s: CcSrc) -> Fcc {
        match s {
            CcSrc::Arch => state.fcc,
            CcSrc::Ren(k) => self.fcc[k as usize],
        }
    }

    #[inline]
    fn fp_of(&self, state: &ArchState, s: FpSrc) -> u32 {
        match s {
            FpSrc::Arch(f) => state.fp[f as usize],
            FpSrc::Ren(k) => self.fp[k as usize],
        }
    }

    /// Apply one committed COPY: `vals` holds the value each pair read
    /// at compute time. Integer and FP pairs land in pair order, then
    /// the last `icc` pair, then the last `fcc` pair.
    fn commit_copy(
        &mut self,
        pairs: &[(Resource, Resource)],
        vals: &[u32],
        state: &mut ArchState,
    ) -> Result<(), EngineError> {
        for (&(from, to), &v) in pairs.iter().zip(vals) {
            if matches!(from, Resource::IntRen(_) | Resource::FpRen(_)) {
                match to {
                    Resource::Int(p) => state.int[p as usize] = v,
                    Resource::Fp(f) => state.fp[f as usize] = v,
                    Resource::IntRen(k) => self.int[k as usize] = v,
                    Resource::FpRen(k) => self.fp[k as usize] = v,
                    other => return Err(EngineError::BadCopyTarget(other)),
                }
            }
        }
        let last = |class: fn(&Resource) -> bool| {
            pairs
                .iter()
                .zip(vals)
                .rev()
                .find(|((from, _), _)| class(from))
                .map(|(&(_, to), &v)| (to, v as u8))
        };
        if let Some((to, bits)) = last(|r| matches!(r, Resource::IccRen(_))) {
            match to {
                Resource::Icc => state.icc = Icc::from_bits(bits),
                Resource::IccRen(k) => self.icc[k as usize] = Icc::from_bits(bits),
                other => return Err(EngineError::BadCopyTarget(other)),
            }
        }
        if let Some((to, bits)) = last(|r| matches!(r, Resource::FccRen(_))) {
            match to {
                Resource::Fcc => state.fcc = Fcc::from_bits(bits),
                Resource::FccRen(k) => self.fcc[k as usize] = Fcc::from_bits(bits),
                other => return Err(EngineError::BadCopyTarget(other)),
            }
        }
        Ok(())
    }
}

// `Effect::fx` bits: what an op did while computing.

/// A runtime fault (misaligned access, non-schedulable instruction).
const FX_FAULT: u8 = 1;
/// A load issued at `addr`: a data-cache access and a load-list entry.
const FX_LOAD: u8 = 2;
/// A memory write of `data` at `addr` on commit: a data-cache access
/// and a store-list entry.
const FX_STORE: u8 = 4;
/// A split store staged into the memory renaming buffer on commit.
const FX_MEMBUF: u8 = 8;
/// A branch that left its recorded direction for `target`.
const FX_MISS: u8 = 16;
/// A window shift (`save`/`restore`) on commit.
const FX_CWP: u8 = 32;
/// A COPY whose values start at `copies` in the shared copy buffer.
const FX_COPY: u8 = 64;

/// What one op computed against start-of-cycle state: results only.
/// Everything static about the op (tag, write-back list, COPY routing,
/// window shift, renaming-buffer slot) is read from its [`DecodedOp`]
/// at commit.
#[derive(Debug, Clone, Copy)]
struct Effect {
    int: Option<u32>,
    fp: Option<u32>,
    y: Option<u32>,
    icc: Option<Icc>,
    fcc: Option<Fcc>,
    /// Memory access (`FX_LOAD`, `FX_STORE`, `FX_MEMBUF`): runtime
    /// address, size, load/store order and store data.
    addr: u32,
    size: u8,
    order: u16,
    data: u32,
    /// Actual target of a branch (`FX_MISS`).
    target: u32,
    /// First value of a COPY in the shared copy buffer (`FX_COPY`).
    copies: u32,
    fx: u8,
}

impl Effect {
    const NONE: Effect = Effect {
        int: None,
        fp: None,
        y: None,
        icc: None,
        fcc: None,
        addr: 0,
        size: 0,
        order: 0,
        data: 0,
        target: 0,
        copies: 0,
        fx: 0,
    };

    /// The aliasing-detector entry of a load or store.
    #[inline]
    fn ls_entry(&self) -> LsEntry {
        LsEntry {
            addr: self.addr,
            size: self.size,
            order: self.order,
        }
    }
}

/// Per-cycle working buffers, held on the engine so the hot loop never
/// allocates. Contents are meaningless between cycles: the `Debug` form
/// is constant and snapshots ignore it, so a restored engine (with empty
/// buffers) is indistinguishable from the original.
#[derive(Clone, Default)]
struct ExecScratch {
    effects: Vec<Effect>,
    /// The values every COPY of the cycle read, in op and pair order.
    copies: Vec<u32>,
}

impl std::fmt::Debug for ExecScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ExecScratch")
    }
}

/// The VLIW Engine.
#[derive(Debug, Clone, Default)]
pub struct VliwEngine {
    scheme: StoreScheme,
    ren: RenameFiles,
    shadow: Option<ArchState>,
    recovery: Vec<(u32, u8, u32)>,
    /// StoreBuffer scheme: (order, addr, size, value) staged stores.
    data_stores: Vec<(u16, u32, u8, u32)>,
    load_list: Vec<LsEntry>,
    store_list: Vec<LsEntry>,
    stats: EngineStats,
    /// Stores unwound by the most recent [`VliwEngine::rollback`]
    /// (checkpoint-recovery trace reporting).
    last_rollback_unwound: u32,
    faults: EngineFaults,
    scratch: ExecScratch,
}

/// Read `size` bytes at `addr`, merging any staged store bytes in
/// staging order over the Data Cache contents (StoreBuffer loads "use
/// the last data stored in the list on a list hit").
fn load_merged(staged: &[(u16, u32, u8, u32)], mem: &Memory, addr: u32, size: u8) -> u32 {
    let mut bytes = [0u8; 4];
    for (i, b) in bytes.iter_mut().enumerate().take(size as usize) {
        *b = mem.read_u8(addr.wrapping_add(i as u32));
    }
    for &(_, sa, ss, sv) in staged {
        let sb = sv.to_be_bytes();
        for k in 0..ss as u32 {
            let byte_addr = sa.wrapping_add(k);
            let off = byte_addr.wrapping_sub(addr);
            if off < size as u32 {
                bytes[off as usize] = sb[(4 - ss as usize) + k as usize];
            }
        }
    }
    let mut v = 0u32;
    for b in bytes.iter().take(size as usize) {
        v = v << 8 | *b as u32;
    }
    v
}

/// Compute one op against start-of-cycle state. `staged` is the data
/// store list under the StoreBuffer scheme (loads snoop it) and `None`
/// under Checkpoint. COPY values are appended to `copies`.
#[inline]
fn compute(
    ren: &RenameFiles,
    staged: Option<&[(u16, u32, u8, u32)]>,
    op: &DecodedOp,
    state: &ArchState,
    mem: &Memory,
    copies: &mut Vec<u32>,
) -> Result<Effect, EngineError> {
    let mut e = Effect::NONE;
    match &op.kind {
        DecodedKind::Alu {
            op: aop,
            cc,
            a,
            b,
            icc,
        } => {
            let r = exec_alu(
                *aop,
                ren.int_of(state, *a),
                ren.src2_of(state, *b),
                ren.icc_of(state, *icc),
                state.y,
            );
            e.int = Some(r.value);
            if *cc {
                e.icc = Some(r.icc);
            }
            if *aop == AluOp::MulScc {
                e.y = Some(r.y);
            }
        }
        DecodedKind::SetInt { value } => e.int = Some(*value),
        DecodedKind::Load { op: mop, a, b } => {
            let addr = ren.int_of(state, *a).wrapping_add(ren.src2_of(state, *b));
            let size = mop.size();
            if !addr.is_multiple_of(size as u32) {
                e.fx = FX_FAULT;
                return Ok(e);
            }
            let raw = match staged {
                None => mem.read(addr, size),
                Some(staged) => load_merged(staged, mem, addr, size),
            };
            let value = match mop {
                MemOp::Ldsb => raw as u8 as i8 as i32 as u32,
                MemOp::Ldsh => raw as u16 as i16 as i32 as u32,
                _ => raw,
            };
            if mop.is_fp() {
                e.fp = Some(value);
            } else {
                e.int = Some(value);
            }
            e.order = op.ls_order.ok_or(EngineError::MissingLsOrder)?;
            e.addr = addr;
            e.size = size;
            e.fx = FX_LOAD;
        }
        DecodedKind::Store {
            a,
            b,
            data,
            size,
            membuf,
        } => {
            let addr = ren.int_of(state, *a).wrapping_add(ren.src2_of(state, *b));
            if !addr.is_multiple_of(*size as u32) {
                e.fx = FX_FAULT;
                return Ok(e);
            }
            e.data = match data {
                StoreData::Int(s) => ren.int_of(state, *s),
                StoreData::Fp(s) => ren.fp_of(state, *s),
            };
            e.addr = addr;
            e.size = *size;
            if membuf.is_some() {
                // Split store: stage in the memory renaming buffer; the
                // COPY commits it (§3.9).
                e.fx = FX_MEMBUF;
            } else {
                e.order = op.ls_order.ok_or(EngineError::MissingLsOrder)?;
                e.fx = FX_STORE;
            }
        }
        DecodedKind::Bicc {
            cond,
            cc,
            recorded,
            target,
            fall,
        } => {
            let taken = cond.eval(ren.icc_of(state, *cc));
            let actual = if taken {
                target.expect("bicc has a static target")
            } else {
                *fall
            };
            if Some(taken) != *recorded {
                e.target = actual;
                e.fx = FX_MISS;
            }
        }
        DecodedKind::FBfcc {
            cond,
            cc,
            recorded,
            target,
            fall,
        } => {
            let taken = cond.eval(ren.fcc_of(state, *cc));
            let actual = if taken {
                target.expect("fbfcc has a static target")
            } else {
                *fall
            };
            if Some(taken) != *recorded {
                e.target = actual;
                e.fx = FX_MISS;
            }
        }
        DecodedKind::Jmpl {
            a,
            b,
            link,
            recorded,
        } => {
            let target = ren.int_of(state, *a).wrapping_add(ren.src2_of(state, *b));
            e.int = Some(*link);
            if *recorded != Some(target) {
                e.target = target;
                e.fx = FX_MISS;
            }
        }
        DecodedKind::SaveRestore { a, b, .. } => {
            e.int = Some(ren.int_of(state, *a).wrapping_add(ren.src2_of(state, *b)));
            e.fx = FX_CWP;
        }
        DecodedKind::Fpop { op: fop, a, b, cc } => {
            let r = exec_fp(
                *fop,
                ren.fp_of(state, *a),
                ren.fp_of(state, *b),
                ren.fcc_of(state, *cc),
            );
            if *fop == FpOp::FCmps {
                e.fcc = Some(r.fcc);
            } else {
                e.fp = Some(r.value);
            }
        }
        DecodedKind::RdY => e.int = Some(state.y),
        DecodedKind::WrY { a, b } => {
            e.y = Some(ren.int_of(state, *a) ^ ren.src2_of(state, *b));
        }
        // Non-schedulable instructions never pass the Scheduler Unit,
        // but a corrupted block could present one; treat it as a
        // runtime fault (rollback) rather than a panic.
        DecodedKind::Fault => e.fx = FX_FAULT,
        DecodedKind::Copy { pairs } => {
            e.copies = copies.len() as u32;
            e.fx = FX_COPY;
            for (from, _) in pairs {
                let v = match from {
                    Resource::IntRen(k) => ren.int[*k as usize],
                    Resource::FpRen(k) => ren.fp[*k as usize],
                    Resource::IccRen(k) => ren.icc[*k as usize].to_bits() as u32,
                    Resource::FccRen(k) => ren.fcc[*k as usize] as u32,
                    Resource::MemRen(k) => {
                        let b = ren.membuf[*k as usize];
                        e.addr = b.addr;
                        e.size = b.size;
                        e.data = b.value;
                        e.order = op.ls_order.ok_or(EngineError::MissingLsOrder)?;
                        e.fx |= FX_STORE;
                        0
                    }
                    other => return Err(EngineError::BadCopySource(*other)),
                };
                copies.push(v);
            }
        }
    }
    Ok(e)
}

impl VliwEngine {
    /// A fresh engine using the checkpoint store scheme.
    pub fn new() -> Self {
        VliwEngine::default()
    }

    /// A fresh engine with an explicit store scheme.
    pub fn with_scheme(scheme: StoreScheme) -> Self {
        VliwEngine {
            scheme,
            ..VliwEngine::default()
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Arm fault knobs for the coming block execution (pass the default
    /// value to clear leftovers from a previous arming).
    pub fn arm_faults(&mut self, faults: EngineFaults) {
        self.faults = faults;
    }

    /// The currently armed fault knobs.
    pub fn faults(&self) -> EngineFaults {
        self.faults
    }

    /// Buffered stores unwound by the most recent rollback.
    pub fn last_rollback_unwound(&self) -> u32 {
        self.last_rollback_unwound
    }

    /// Is a checkpoint active (mid-block)?
    pub fn in_block(&self) -> bool {
        self.shadow.is_some()
    }

    /// Take the checkpoint for `block` (§3.11) and size the renaming
    /// files it needs. The shadow copy is a flat copy of the state: it
    /// never allocates.
    pub fn begin_block(&mut self, block: &Block, state: &ArchState) {
        debug_assert!(self.shadow.is_none(), "commit or roll back first");
        self.shadow = Some(state.clone());
        self.recovery.clear();
        self.data_stores.clear();
        self.load_list.clear();
        self.store_list.clear();
        let r = block.renames;
        let ren = &mut self.ren;
        if ren.int.len() < r.int as usize {
            ren.int.resize(r.int as usize, 0);
        }
        if ren.fp.len() < r.fp as usize {
            ren.fp.resize(r.fp as usize, 0);
        }
        if ren.icc.len() < r.flag as usize {
            ren.icc.resize(r.flag as usize, Icc::default());
        }
        if ren.fcc.len() < r.flag as usize {
            ren.fcc.resize(r.flag as usize, Fcc::default());
        }
        if ren.membuf.len() < r.mem as usize {
            ren.membuf.resize(r.mem as usize, MemBufEntry::default());
        }
    }

    /// Commit the active checkpoint: the block (or its executed prefix,
    /// on a redirect) becomes architectural. Under the StoreBuffer
    /// scheme the staged stores transfer to memory **in program order**
    /// (the order field exists for exactly this, §3.11).
    pub fn commit_block(&mut self, mem: &mut Memory) {
        self.shadow = None;
        self.recovery.clear();
        if !self.data_stores.is_empty() {
            self.data_stores.sort_by_key(|&(order, ..)| order);
            for &(_, addr, size, value) in &self.data_stores {
                mem.write(addr, size, value);
            }
            self.data_stores.clear();
        }
        self.load_list.clear();
        self.store_list.clear();
    }

    /// Restore the checkpoint: registers from the shadow copy, memory by
    /// unwinding the recovery store list in reverse (§3.11).
    pub fn rollback(&mut self, state: &mut ArchState, mem: &mut Memory) -> Result<(), EngineError> {
        let shadow = self
            .shadow
            .take()
            .ok_or(EngineError::RollbackWithoutCheckpoint)?;
        for &(addr, size, old) in self.recovery.iter().rev() {
            mem.write(addr, size, old);
        }
        *state = shadow;
        self.last_rollback_unwound = self.recovery.len() as u32;
        self.recovery.clear();
        // StoreBuffer scheme: annulling a block is just dropping the
        // staged stores — nothing touched memory.
        self.data_stores.clear();
        self.load_list.clear();
        self.store_list.clear();
        Ok(())
    }

    /// Roll the block back for an exception raised this cycle.
    fn raise(
        &mut self,
        aliasing: bool,
        state: &mut ArchState,
        mem: &mut Memory,
    ) -> Result<LiExec, EngineError> {
        self.rollback(state, mem)?;
        Ok(LiExec {
            result: LiResult::Exception { aliasing },
            committed: 0,
            annulled: 0,
        })
    }

    // -------------------------------------------------------------
    // One long instruction
    // -------------------------------------------------------------

    /// Execute long instruction `li` of the pre-decoded line `dec`
    /// against the shared machine state. Data-cache access addresses are
    /// appended (loads in op order, then stores in commit order) to the
    /// caller's reusable `dcache` buffer, which is cleared first — the
    /// hot loop allocates nothing. `Err` means the block itself is
    /// structurally corrupt (see [`EngineError`]); the machine state may
    /// have been partially written and the caller must roll back and
    /// requarantine.
    ///
    /// Every phase a row's [`DecodedRow`] flags rule out is skipped.
    pub fn exec_li_decoded(
        &mut self,
        dec: &DecodedLine,
        li: usize,
        state: &mut ArchState,
        mem: &mut Memory,
        dcache: &mut Vec<u32>,
    ) -> Result<LiExec, EngineError> {
        debug_assert!(self.shadow.is_some(), "begin_block first");
        let row = dec.rows[li];
        let ops = &dec.ops[row.start as usize..row.end as usize];
        self.stats.lis += 1;
        dcache.clear();

        // Phase 1: compute every op against start-of-cycle state.
        let n = ops.len();
        if self.scratch.effects.len() < n {
            self.scratch.effects.resize(n, Effect::NONE);
        }
        if row.has(DecodedRow::COPY) {
            self.scratch.copies.clear();
        }
        let staged = (self.scheme == StoreScheme::StoreBuffer).then_some(&self.data_stores[..]);
        let effects = &mut self.scratch.effects[..n];
        for (op, e) in ops.iter().zip(effects.iter_mut()) {
            *e = compute(&self.ren, staged, op, state, mem, &mut self.scratch.copies)?;
        }
        let effects = &self.scratch.effects[..n];

        // Resolve branch tags: the mismatched branch with the smallest
        // tag (the first in slot order on a tie) annuls every op with a
        // greater tag.
        let mut cutoff: Option<(u8, u32)> = None;
        if row.has(DecodedRow::BRANCH) {
            for (op, e) in ops.iter().zip(effects) {
                if e.fx & FX_MISS != 0 && cutoff.is_none_or(|(t, _)| op.tag < t) {
                    cutoff = Some((op.tag, e.target));
                }
            }
        }
        let last_valid = cutoff.map_or(u8::MAX, |(t, _)| t);
        let live = || {
            ops.iter()
                .zip(effects)
                .filter(move |(op, _)| op.tag <= last_valid)
        };

        // Loads access the data cache whether or not they commit (the
        // hardware issues them before tags resolve).
        if row.has(DecodedRow::LOAD) {
            dcache.extend(
                effects
                    .iter()
                    .filter(|e| e.fx & FX_LOAD != 0)
                    .map(|e| e.addr),
            );
        }

        // Runtime faults on valid ops roll the whole block back.
        if row.has(DecodedRow::CAN_FAULT) && live().any(|(_, e)| e.fx & FX_FAULT != 0) {
            self.stats.other_exceptions += 1;
            return self.raise(false, state, mem);
        }

        // Armed §3.11 fault: the checkpoint-recovery store list loses
        // its oldest entries, then the block aborts through the normal
        // exception path — the rollback below restores mid-block values
        // (or nothing) where pre-block data belonged. The fault strikes
        // a deep list only: with a shallow one the survivors still hold
        // block-entry values and the dropped entries' locations are
        // rewritten identically by the replay, so nothing observable is
        // lost. A list this deep has seen repeated stores to the same
        // location, and dropping the older entry makes the survivor
        // restore a mid-block value where pre-block data belonged.
        if self.faults.truncate_recovery && self.recovery.len() >= 6 {
            self.faults.truncate_recovery = false;
            self.stats.recovery_truncated += 1;
            let drop = self.recovery.len().div_ceil(2);
            self.recovery.drain(..drop);
            self.stats.other_exceptions += 1;
            return self.raise(true, state, mem);
        }

        // Phase 2a: aliasing checks for the valid memory ops (§3.10),
        // before anything commits.
        if row.has(DecodedRow::ALIAS_CHECKED) {
            let checked = || {
                live()
                    .map(|(_, e)| e)
                    .filter(|e| e.fx & (FX_LOAD | FX_STORE) != 0)
            };
            let mut alias = false;
            for e in checked() {
                let entry = e.ls_entry();
                if e.fx & FX_STORE != 0 {
                    // vs the other stores of this long instruction: two
                    // stores to one location in one LI.
                    alias |= checked().any(|e2| {
                        e2.fx & FX_STORE != 0
                            && (e2.addr, e2.order) != (entry.addr, entry.order)
                            && overlaps(&entry, &e2.ls_entry())
                    });
                    // vs both lists: an older store executing after a
                    // younger access is an inversion.
                    alias |= self
                        .load_list
                        .iter()
                        .chain(self.store_list.iter())
                        .any(|e2| overlaps(&entry, e2) && entry.order < e2.order);
                } else {
                    // load vs same-LI stores: an older store in the same
                    // long instruction means the load missed its value.
                    alias |= checked().any(|e2| {
                        e2.fx & FX_STORE != 0
                            && overlaps(&entry, &e2.ls_entry())
                            && entry.order > e2.order
                    });
                    // load vs store list: a younger store already executed.
                    alias |= self
                        .store_list
                        .iter()
                        .any(|e2| overlaps(&entry, e2) && entry.order < e2.order);
                }
            }
            if alias && self.faults.suppress_alias {
                // Armed §3.10 fault: the detector misses — the inverted
                // memory ops commit below as if no alias existed.
                self.faults.suppress_alias = false;
                self.stats.alias_suppressed += 1;
                alias = false;
            }
            if alias {
                self.stats.alias_exceptions += 1;
                return self.raise(true, state, mem);
            }
        }

        // Phase 2b: commit.
        let effects = &self.scratch.effects[..n];
        let mut committed = 0u32;
        for (op, e) in ops.iter().zip(effects) {
            if op.tag > last_valid {
                continue;
            }
            committed += 1;
            let missing = |w: &Resource| EngineError::MissingWriteBack(*w);
            for w in op.writes.iter() {
                match w {
                    Resource::Int(p) => state.int[*p as usize] = e.int.ok_or(missing(w))?,
                    Resource::IntRen(k) => self.ren.int[*k as usize] = e.int.ok_or(missing(w))?,
                    Resource::Fp(f) => state.fp[*f as usize] = e.fp.ok_or(missing(w))?,
                    Resource::FpRen(k) => self.ren.fp[*k as usize] = e.fp.ok_or(missing(w))?,
                    Resource::Icc => state.icc = e.icc.ok_or(missing(w))?,
                    Resource::IccRen(k) => self.ren.icc[*k as usize] = e.icc.ok_or(missing(w))?,
                    Resource::Fcc => state.fcc = e.fcc.ok_or(missing(w))?,
                    Resource::FccRen(k) => self.ren.fcc[*k as usize] = e.fcc.ok_or(missing(w))?,
                    Resource::Y => state.y = e.y.ok_or(missing(w))?,
                    Resource::Cwp | Resource::Mem { .. } | Resource::MemRen(_) => {}
                }
            }
            if e.fx & (FX_STORE | FX_LOAD | FX_MEMBUF | FX_CWP | FX_COPY) == 0 {
                continue;
            }
            if e.fx & FX_COPY != 0 {
                if let DecodedKind::Copy { pairs } = &op.kind {
                    let start = e.copies as usize;
                    let vals = &self.scratch.copies[start..start + pairs.len()];
                    self.ren.commit_copy(pairs, vals, state)?;
                }
            }
            if e.fx & FX_CWP != 0 {
                if let DecodedKind::SaveRestore {
                    cwp_after, delta, ..
                } = op.kind
                {
                    state.cwp = cwp_after;
                    state.resident = (state.resident as i16 + delta as i16) as u8;
                }
            }
            if e.fx & FX_MEMBUF != 0 {
                if let DecodedKind::Store {
                    membuf: Some(k), ..
                } = op.kind
                {
                    self.ren.membuf[k as usize] = MemBufEntry {
                        addr: e.addr,
                        size: e.size,
                        value: e.data,
                    };
                }
            }
            if e.fx & FX_STORE != 0 {
                match self.scheme {
                    StoreScheme::Checkpoint => {
                        // Log overwritten data for checkpoint recovery
                        // (§3.11).
                        self.recovery
                            .push((e.addr, e.size, mem.read(e.addr, e.size)));
                        self.stats.max_recovery_list =
                            self.stats.max_recovery_list.max(self.recovery.len() as u32);
                        mem.write(e.addr, e.size, e.data);
                    }
                    StoreScheme::StoreBuffer => {
                        // Stage; memory is written in program order at
                        // block commit.
                        self.data_stores.push((e.order, e.addr, e.size, e.data));
                        self.stats.max_data_store_list = self
                            .stats
                            .max_data_store_list
                            .max(self.data_stores.len() as u32);
                    }
                }
                dcache.push(e.addr);
            }
            if e.fx & (FX_LOAD | FX_STORE) != 0 && op.cross {
                let list = if e.fx & FX_STORE != 0 {
                    &mut self.store_list
                } else {
                    &mut self.load_list
                };
                if self
                    .faults
                    .alias_list_cap
                    .is_some_and(|cap| list.len() as u32 >= cap)
                {
                    // Armed §3.10 fault: the associative list is full;
                    // the entry is lost and the detector goes blind to
                    // this access.
                    self.stats.ls_list_dropped += 1;
                } else {
                    list.push(e.ls_entry());
                }
                self.stats.max_load_list =
                    self.stats.max_load_list.max(self.load_list.len() as u32);
                self.stats.max_store_list =
                    self.stats.max_store_list.max(self.store_list.len() as u32);
            }
        }
        let annulled = n as u32 - committed;
        self.stats.committed += committed as u64;
        self.stats.annulled += annulled as u64;

        let result = if let Some((tag, target)) = cutoff {
            self.stats.mispredicts += 1;
            let branch_seq = ops
                .iter()
                .find_map(|o| o.branch_seq.filter(|_| o.tag == tag))
                .ok_or(EngineError::MissingBranchSeq)?;
            LiResult::Redirect { target, branch_seq }
        } else if li >= dec.nba_line {
            LiResult::BlockEnd
        } else {
            LiResult::Next
        };
        Ok(LiExec {
            result,
            committed,
            annulled,
        })
    }

    // -------------------------------------------------------------
    // Machine snapshots
    // -------------------------------------------------------------

    /// Serialise every piece of mutable engine state — the renaming
    /// files, the memory renaming buffer, the active checkpoint (shadow
    /// registers plus checkpoint-recovery store list), staged stores,
    /// the aliasing detector's load/store lists, statistics, and armed
    /// fault knobs. The store scheme is configuration, not state: the
    /// restorer passes it to [`VliwEngine::from_snapshot_json`].
    pub fn snapshot_json(&self) -> Json {
        Json::obj([
            ("ren_int", self.ren.int.to_json()),
            ("ren_fp", self.ren.fp.to_json()),
            (
                "ren_icc",
                Json::arr(self.ren.icc.iter().map(|c| c.to_bits().to_json())),
            ),
            (
                "ren_fcc",
                Json::arr(self.ren.fcc.iter().map(|&c| (c as u8).to_json())),
            ),
            ("membuf", self.ren.membuf.to_json()),
            (
                "shadow",
                self.shadow.as_ref().map_or(Json::Null, arch_state_to_json),
            ),
            ("recovery", self.recovery.to_json()),
            ("data_stores", self.data_stores.to_json()),
            ("load_list", self.load_list.to_json()),
            ("store_list", self.store_list.to_json()),
            ("stats", self.stats.to_json()),
            (
                "last_rollback_unwound",
                self.last_rollback_unwound.to_json(),
            ),
            (
                "faults",
                Json::obj([
                    ("suppress_alias", Json::Bool(self.faults.suppress_alias)),
                    ("alias_list_cap", self.faults.alias_list_cap.to_json()),
                    (
                        "truncate_recovery",
                        Json::Bool(self.faults.truncate_recovery),
                    ),
                ]),
            ),
        ])
    }

    /// Rebuild from [`VliwEngine::snapshot_json`] output and the store
    /// scheme the engine ran with; `None` on any structural mismatch.
    pub fn from_snapshot_json(scheme: StoreScheme, j: &Json) -> Option<VliwEngine> {
        let fj = j.get("faults")?;
        Some(VliwEngine {
            scheme,
            ren: RenameFiles {
                int: j.field("ren_int")?,
                fp: j.field("ren_fp")?,
                icc: j
                    .field::<Vec<u8>>("ren_icc")?
                    .into_iter()
                    .map(Icc::from_bits)
                    .collect(),
                fcc: j
                    .field::<Vec<u8>>("ren_fcc")?
                    .into_iter()
                    .map(Fcc::from_bits)
                    .collect(),
                membuf: j.field("membuf")?,
            },
            shadow: match j.get("shadow")? {
                Json::Null => None,
                sj => Some(arch_state_from_json(sj)?),
            },
            recovery: j.field("recovery")?,
            data_stores: j.field("data_stores")?,
            load_list: j.field("load_list")?,
            store_list: j.field("store_list")?,
            stats: j.field("stats")?,
            last_rollback_unwound: j.field("last_rollback_unwound")?,
            faults: EngineFaults {
                suppress_alias: fj.field("suppress_alias")?,
                alias_list_cap: fj.field("alias_list_cap")?,
                truncate_recovery: fj.field("truncate_recovery")?,
            },
            scratch: ExecScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoded::decode_block;

    #[test]
    fn snapshot_round_trip_is_exact() {
        let mut e = VliwEngine::with_scheme(StoreScheme::StoreBuffer);
        e.ren = RenameFiles {
            int: vec![1, 2, 3],
            fp: vec![7],
            icc: vec![Icc::from_bits(0b1010)],
            fcc: vec![Fcc::Lt, Fcc::Uo],
            membuf: vec![MemBufEntry {
                addr: 0x100,
                size: 4,
                value: 42,
            }],
        };
        e.shadow = Some(ArchState::new(0x4000));
        e.recovery = vec![(0x200, 4, 9), (0x204, 2, 8)];
        e.data_stores = vec![(3, 0x300, 4, 77)];
        e.load_list = vec![LsEntry {
            addr: 0x400,
            size: 4,
            order: 5,
        }];
        e.store_list = vec![LsEntry {
            addr: 0x404,
            size: 1,
            order: 6,
        }];
        e.stats.lis = 10;
        e.stats.max_recovery_list = 2;
        e.last_rollback_unwound = 4;
        e.faults = EngineFaults {
            suppress_alias: true,
            alias_list_cap: Some(8),
            truncate_recovery: false,
        };
        let j = e.snapshot_json().to_string();
        let restored =
            VliwEngine::from_snapshot_json(StoreScheme::StoreBuffer, &Json::parse(&j).unwrap())
                .unwrap();
        assert_eq!(format!("{e:?}"), format!("{restored:?}"));
        // The fresh engine round-trips too (no checkpoint active).
        let fresh = VliwEngine::new();
        let j = fresh.snapshot_json().to_string();
        let restored =
            VliwEngine::from_snapshot_json(StoreScheme::Checkpoint, &Json::parse(&j).unwrap())
                .unwrap();
        assert_eq!(format!("{fresh:?}"), format!("{restored:?}"));
    }

    #[test]
    fn malformed_engine_snapshots_are_rejected() {
        let e = VliwEngine::new();
        let good = e.snapshot_json().to_string();
        assert!(VliwEngine::from_snapshot_json(
            StoreScheme::Checkpoint,
            &Json::parse(&good).unwrap()
        )
        .is_some());
        // One past `u32::MAX` in a u32 counter.
        let wide = good.replace(
            r#""last_rollback_unwound":0"#,
            r#""last_rollback_unwound":4294967296"#,
        );
        assert_ne!(wide, good);
        for broken in [r#"{}"#, r#"{"ren_int":"nope"}"#, &wide] {
            assert!(VliwEngine::from_snapshot_json(
                StoreScheme::Checkpoint,
                &Json::parse(broken).unwrap()
            )
            .is_none());
        }
    }

    use dtsvliw_isa::cond::Cond;
    use dtsvliw_isa::insn::{Instr, Src2};
    use dtsvliw_isa::{phys_reg, DynInstr, ResList};
    use dtsvliw_sched::block::RenameCounts;
    use dtsvliw_sched::{LongInstr, ScheduledInstr, SlotOp};

    /// A scheduled op at `pc` with branch tag `tag`, recorded direction
    /// `taken` and the given write-backs.
    fn slot(instr: Instr, pc: u32, tag: u8, taken: Option<bool>, writes: &[Resource]) -> SlotOp {
        let mut w = ResList::default();
        for r in writes {
            w.push(*r);
        }
        SlotOp::Instr(ScheduledInstr {
            d: DynInstr {
                seq: pc as u64,
                pc,
                instr,
                cwp_before: 0,
                cwp_after: 0,
                eff_addr: None,
                taken,
                target: None,
                delay_is_nop: true,
            },
            reads: ResList::default(),
            writes: w,
            tag,
            ls_order: None,
            cross: false,
            src_renames: Vec::new(),
        })
    }

    /// `mov imm, %rd` as a scheduled op.
    fn mov(rd: u8, imm: i32, pc: u32, tag: u8) -> SlotOp {
        let alu = Instr::Alu {
            op: AluOp::Or,
            cc: false,
            rd,
            rs1: 0,
            src2: Src2::Imm(imm),
        };
        slot(alu, pc, tag, None, &[Resource::Int(phys_reg(0, rd))])
    }

    /// `be` recorded as taken; with zeroed condition codes it falls
    /// through instead.
    fn be_taken(pc: u32, tag: u8) -> SlotOp {
        let be = Instr::Bicc {
            cond: Cond::E,
            disp22: 0x10,
        };
        slot(be, pc, tag, Some(true), &[])
    }

    fn block_of(rows: Vec<Vec<SlotOp>>) -> Block {
        let lis = rows
            .into_iter()
            .map(|ops| {
                let mut li = LongInstr::empty(4);
                for (i, op) in ops.into_iter().enumerate() {
                    li.set(i, op);
                }
                li
            })
            .collect();
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

    #[test]
    fn the_lowest_mismatched_tag_wins_the_cutoff_whatever_its_slot() {
        // Slot 0 mispredicts under tag 3, slot 1 under tag 1: the
        // redirect must come from slot 1, and only tag-1 ops commit.
        let b = block_of(vec![vec![
            be_taken(0x1000, 3),
            be_taken(0x2000, 1),
            mov(1, 5, 0x1004, 2),
            mov(2, 7, 0x2004, 1),
        ]]);
        let dec = decode_block(&b);
        let mut e = VliwEngine::new();
        let mut st = ArchState::new(0x1000);
        let mut mem = Memory::new();
        let mut dcache = Vec::new();
        e.begin_block(&b, &st);
        let out = e
            .exec_li_decoded(&dec, 0, &mut st, &mut mem, &mut dcache)
            .unwrap();
        assert_eq!(
            out.result,
            LiResult::Redirect {
                target: 0x2008,
                branch_seq: 0x2000
            }
        );
        assert_eq!((out.committed, out.annulled), (2, 2));
        assert_eq!((st.get(1), st.get(2)), (0, 7), "tag 2 annulled, tag 1 kept");
        assert_eq!(e.stats().mispredicts, 1);

        // Two mispredicts under one tag: the first in slot order wins.
        let b = block_of(vec![vec![
            be_taken(0x3000, 1),
            mov(1, 5, 0x3004, 1),
            be_taken(0x4000, 1),
        ]]);
        let dec = decode_block(&b);
        let mut e = VliwEngine::new();
        e.begin_block(&b, &st);
        let out = e
            .exec_li_decoded(&dec, 0, &mut st, &mut mem, &mut dcache)
            .unwrap();
        assert_eq!(
            out.result,
            LiResult::Redirect {
                target: 0x3008,
                branch_seq: 0x3000
            }
        );
    }

    #[test]
    fn rows_skip_only_the_phases_they_cannot_reach() {
        let misaligned_ld = Instr::Mem {
            op: MemOp::Ld,
            rd: 3,
            rs1: 0,
            src2: Src2::Imm(2),
        };
        let b = block_of(vec![
            vec![mov(1, 5, 0x1000, 1), mov(2, 6, 0x1004, 1)],
            vec![
                be_taken(0x1008, 1),
                slot(misaligned_ld, 0x1010, 2, None, &[]),
                slot(Instr::Trap { code: 0 }, 0x1014, 2, None, &[]),
            ],
        ]);
        let dec = decode_block(&b);
        assert_eq!(dec.rows[0].flags, 0, "an ALU-only row needs no phase");
        let mut e = VliwEngine::new();
        let mut st = ArchState::new(0x1000);
        let mut mem = Memory::new();
        let mut dcache = vec![0xdead];
        e.begin_block(&b, &st);
        let held = LsEntry {
            addr: 0x40,
            size: 4,
            order: 9,
        };
        e.load_list.push(held);
        e.store_list.push(held);
        let out = e
            .exec_li_decoded(&dec, 0, &mut st, &mut mem, &mut dcache)
            .unwrap();
        assert_eq!(out.result, LiResult::Next);
        assert!(dcache.is_empty(), "no memory op, no data-cache access");
        assert_eq!((e.load_list.len(), e.store_list.len()), (1, 1));
        assert_eq!((e.stats.max_load_list, e.stats.max_store_list), (0, 0));

        // Row 1 faults twice, but only under tag 2, which the tag-1
        // mispredict annuls: no rollback, the block stays open.
        let out = e
            .exec_li_decoded(&dec, 1, &mut st, &mut mem, &mut dcache)
            .unwrap();
        assert!(matches!(out.result, LiResult::Redirect { .. }));
        assert_eq!((out.committed, out.annulled), (1, 2));
        assert!(e.in_block());
        assert_eq!(e.stats().other_exceptions, 0);
        assert_eq!((st.get(1), st.get(2)), (5, 6), "row 0 still committed");
    }

    #[test]
    fn rollback_without_checkpoint_is_a_typed_error() {
        let mut e = VliwEngine::new();
        let mut st = ArchState::new(0);
        let mut mem = Memory::new();
        assert_eq!(
            e.rollback(&mut st, &mut mem),
            Err(EngineError::RollbackWithoutCheckpoint)
        );
    }
}
