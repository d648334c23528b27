//! The scheduling list and the FCFS install/split/move-up algorithm.

use crate::block::{
    Block, CopyInstr, LongInstr, RenameCounts, RenamePairs, ScheduledInstr, SlotOp,
};
use dtsvliw_isa::insn::FuClass;
use dtsvliw_isa::regs::NUM_PHYS_INT;
use dtsvliw_isa::resource::RenameKind;
use dtsvliw_isa::{DynInstr, ResList, Resource};
use dtsvliw_json::{Json, ToJson};

/// Scheduler Unit configuration: the block geometry of the paper's
/// Figure 5 ("instructions per long instruction (width) versus long
/// instructions per block (height)") plus the slot classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedConfig {
    /// Instructions per long instruction.
    pub width: usize,
    /// Long instructions per block (the "block size" hardware constant).
    pub height: usize,
    /// Functional-unit class of each slot (`width` entries).
    pub slot_classes: Vec<FuClass>,
    /// Instruction splitting (§3.2): when disabled, a candidate whose
    /// move would need renaming installs instead. Ablation knob — the
    /// DTSVLIW always splits; disabling it measures what the renaming
    /// hardware buys.
    pub enable_splitting: bool,
    /// Source redirection on split (Figure 2's `subcc r32, ...`): when
    /// disabled, consumers wait for the COPY. Ablation knob.
    pub enable_redirect: bool,
    /// Functional-unit latencies. The paper's experiments use 1-cycle
    /// units throughout (Table 1, §4.4); its companion paper (reference 14)
    /// studies multicycle instructions, which this field enables: a
    /// consumer is placed at least `latency(producer)` long
    /// instructions below its producer.
    pub latencies: Latencies,
}

/// Per-class operation latencies, in long instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Loads (integer and FP).
    pub load: u8,
    /// FP operate instructions.
    pub fp: u8,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies { load: 1, fp: 1 }
    }
}

impl Latencies {
    /// The largest configured latency.
    pub fn max(self) -> u8 {
        self.load.max(self.fp).max(1)
    }

    /// Latency of one instruction.
    pub fn of(self, instr: &dtsvliw_isa::Instr) -> u8 {
        if instr.is_load() {
            self.load
        } else if matches!(instr, dtsvliw_isa::Instr::Fpop { .. }) {
            self.fp
        } else {
            1
        }
    }
}

impl SchedConfig {
    /// Homogeneous geometry: every slot accepts every operation (the
    /// ideal machines of Figures 5–7).
    pub fn homogeneous(width: usize, height: usize) -> Self {
        assert!(width >= 1 && height >= 1);
        SchedConfig {
            width,
            height,
            slot_classes: vec![FuClass::Universal; width],
            enable_splitting: true,
            enable_redirect: true,
            latencies: Latencies::default(),
        }
    }

    /// The paper's feasible machine (§4.4): 4 integer + 2 load/store +
    /// 2 FP + 2 branch units, 8 long instructions per block.
    pub fn feasible_paper() -> Self {
        use FuClass::*;
        SchedConfig {
            width: 10,
            height: 8,
            slot_classes: vec![
                Integer, Integer, Integer, Integer, LoadStore, LoadStore, Float, Float, Branch,
                Branch,
            ],
            enable_splitting: true,
            enable_redirect: true,
            latencies: Latencies::default(),
        }
    }

    /// The DIF-comparison machine (§4.5): 4 homogeneous units + 2 branch
    /// units, blocks of 6 long instructions of 6 instructions.
    pub fn dif_comparison() -> Self {
        use FuClass::*;
        SchedConfig {
            width: 6,
            height: 6,
            slot_classes: vec![Universal, Universal, Universal, Universal, Branch, Branch],
            enable_splitting: true,
            enable_redirect: true,
            latencies: Latencies::default(),
        }
    }
}

/// Widest long instruction the Scheduler Unit supports: each list row
/// keeps its slots as bits of one `u64` mask.
pub const MAX_WIDTH: usize = 64;

/// Most slots one block may have (`width × height`): every operation of
/// the block under construction, COPYs included, sits in one slot and is
/// named by a `u16` index into the block's op arena.
pub const MAX_BLOCK_SLOTS: usize = u16::MAX as usize;

// -----------------------------------------------------------------
// Host representation of the scheduling list
// -----------------------------------------------------------------
//
// Every operation of the block under construction is written once into
// an op arena; rows hold arena indices, and a candidate is the slot of
// the op it moves with. Each row keeps bit masks of its slots and the
// union of its ops' resource sets — the host form of the §3.7
// comparator bank — so free-slot, control, cross-bit and empty-row
// questions are mask operations. A row also keeps the union of its ops
// other than the candidate, so a candidate leaves in O(1). A dependency
// hit on an architectural register is certain from the unions alone;
// single ops are looked at only for hits on hashed bits (memory words,
// renaming registers). A per-row candidate mask lets a cycle visit the
// candidates alone (DESIGN.md §4).

/// A set of resources as 256 bits. Architectural registers map to bits
/// one to one ([`ResSet::EXACT_BITS`]); memory words and renaming
/// registers are hashed into the last 64 bits. Two resources that
/// conflict always share a bit, so disjoint sets never conflict; two
/// sets that share an exact bit always conflict, and a pair that meets
/// in hashed bits alone is confirmed with the exact per-op check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ResSet([u64; 4]);

// Integer, FP, icc, fcc, %y and the window pointer fit below the hashed
// word.
const _: () = assert!(NUM_PHYS_INT + 36 <= ResSet::EXACT_BITS);

impl ResSet {
    /// Bits below this name one architectural resource each.
    const EXACT_BITS: usize = 192;

    fn of(list: &ResList) -> Self {
        let mut s = ResSet::default();
        for r in list.iter() {
            s.add(r);
        }
        s
    }

    #[inline]
    fn set(&mut self, bit: u64) {
        self.0[(bit / 64) as usize] |= 1 << (bit % 64);
    }

    #[inline]
    fn add(&mut self, r: &Resource) {
        let hashed = |kind: u64, id: u64| {
            ResSet::EXACT_BITS as u64
                + ((kind << 32 | id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
        };
        let fp = NUM_PHYS_INT as u64;
        let bit = match *r {
            Resource::Int(n) if (n as usize) < NUM_PHYS_INT => n as u64,
            Resource::Int(n) => hashed(0, n as u64),
            Resource::Fp(n) if n < 32 => fp + n as u64,
            Resource::Fp(n) => hashed(7, n as u64),
            Resource::Icc => fp + 32,
            Resource::Fcc => fp + 33,
            Resource::Y => fp + 34,
            Resource::Cwp => fp + 35,
            Resource::IntRen(id) => hashed(1, id as u64),
            Resource::FpRen(id) => hashed(2, id as u64),
            Resource::IccRen(id) => hashed(3, id as u64),
            Resource::FccRen(id) => hashed(4, id as u64),
            Resource::MemRen(id) => hashed(5, id as u64),
            Resource::Mem { addr, size } => {
                // Every word the byte range touches: overlapping ranges
                // share one.
                let first = addr as u64 >> 2;
                let last = (addr as u64 + size.max(1) as u64 - 1) >> 2;
                for word in first..last {
                    self.set(hashed(6, word));
                }
                hashed(6, last)
            }
        };
        self.set(bit);
    }

    /// The bits both sets hold.
    #[inline]
    fn and(&self, o: &ResSet) -> ResSet {
        let [a, b, c, d] = self.0;
        let [e, f, g, h] = o.0;
        ResSet([a & e, b & f, c & g, d & h])
    }

    fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    fn meets(&self, o: &ResSet) -> bool {
        !self.and(o).is_empty()
    }

    /// Does the set hold an exact (architectural) bit?
    fn has_exact(&self) -> bool {
        const _: () = assert!(ResSet::EXACT_BITS == 3 * 64);
        let [a, b, c, _] = self.0;
        a | b | c != 0
    }

    fn union(&mut self, o: &ResSet) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a |= b;
        }
    }

    fn with(mut self, o: &ResSet) -> ResSet {
        self.union(o);
        self
    }
}

/// The resource sets of one operation in the list and the properties
/// the row masks track: its column of the §3.7 comparator bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpSets {
    reads: ResSet,
    writes: ResSet,
    class: FuClass,
    branch: bool,
    mem_writer: bool,
    ordered: bool,
}

impl OpSets {
    /// Derive the sets of any op (snapshot restore, and the debug
    /// cross-check of the lean builders in `insert` and `split`).
    fn of(op: &SlotOp) -> Self {
        OpSets {
            reads: ResSet::of(&op.reads()),
            writes: ResSet::of(&op.writes()),
            class: op.fu_class(),
            branch: op.is_branch(),
            mem_writer: op.is_memory_writer(),
            ordered: op.ls_order().is_some(),
        }
    }
}

/// One operation of the block under construction: a trace instruction
/// or a COPY, with its sets.
#[derive(Debug, Clone)]
struct Entry {
    op: SlotOp,
    sets: OpSets,
}

impl Entry {
    /// The trace instruction (candidates are always instructions).
    fn instr(&self) -> &ScheduledInstr {
        match &self.op {
            SlotOp::Instr(i) => i,
            SlotOp::Copy(_) => unreachable!("a COPY never moves"),
        }
    }

    fn instr_mut(&mut self) -> &mut ScheduledInstr {
        match &mut self.op {
            SlotOp::Instr(i) => i,
            SlotOp::Copy(_) => unreachable!("a COPY never moves"),
        }
    }
}

/// What an arena slot holds after [`Scheduler::seal`] moved its op out.
const VACANT: SlotOp = SlotOp::Copy(CopyInstr {
    pairs: RenamePairs::new(),
    tag: 0,
    ls_order: None,
    cross: false,
    orig_seq: 0,
});

/// Does a resource list name memory?
fn has_mem(list: &ResList) -> bool {
    list.iter().any(|r| matches!(r, Resource::Mem { .. }))
}

/// One scheduling-list element (paper §3.2): a long instruction under
/// construction, as arena indices plus slot masks, and at most one
/// candidate. Rows are allocated once per scheduler and reset on reuse.
#[derive(Debug, Clone)]
struct Row {
    /// Arena index per slot; meaningful where `occupied` has the bit.
    slots: Vec<u16>,
    occupied: u64,
    /// Conditional and indirect branches.
    branch: u64,
    /// Stores and memory COPYs (they set cross bits, §3.10).
    mem_writer: u64,
    /// Operations carrying a load/store order field.
    ordered: u64,
    /// Union of the read and write sets of every op of the row.
    reads: ResSet,
    writes: ResSet,
    /// The same unions over the ops other than the candidate: what the
    /// row holds once the candidate leaves, and what its anti-dependency
    /// test probes.
    rest_reads: ResSet,
    rest_writes: ResSet,
    /// Next branch tag to hand out in this long instruction.
    cur_tag: u8,
    /// Slot of the candidate's companion.
    candidate: Option<usize>,
}

impl Row {
    fn new(width: usize) -> Self {
        Row {
            slots: vec![0; width],
            occupied: 0,
            branch: 0,
            mem_writer: 0,
            ordered: 0,
            reads: ResSet::default(),
            writes: ResSet::default(),
            rest_reads: ResSet::default(),
            rest_writes: ResSet::default(),
            cur_tag: 0,
            candidate: None,
        }
    }

    /// Empty the row, keeping its slot storage.
    fn reset(&mut self) {
        self.occupied = 0;
        self.branch = 0;
        self.mem_writer = 0;
        self.ordered = 0;
        self.reads = ResSet::default();
        self.writes = ResSet::default();
        self.rest_reads = ResSet::default();
        self.rest_writes = ResSet::default();
        self.cur_tag = 0;
        self.candidate = None;
    }

    /// Arena indices of the occupied slots outside `skip`, lowest
    /// slot first.
    fn ops(&self, skip: u64) -> impl Iterator<Item = usize> + '_ {
        bits(self.occupied & !skip).map(|s| self.slots[s] as usize)
    }

    /// The candidate's slot bit (0 without a candidate).
    fn candidate_bit(&self) -> u64 {
        self.candidate.map_or(0, bit)
    }
}

/// One scheduling-list element as the hardware shows it: the long
/// instruction under construction (candidates' companions included),
/// its next branch tag and the slot of its candidate, whose moving form
/// is the companion itself. Snapshots, [`crate::signals::predict`] and
/// [`Scheduler::dump`] read the list through this view.
#[derive(Debug)]
pub(crate) struct ElemView {
    pub(crate) li: LongInstr,
    pub(crate) cur_tag: u8,
    pub(crate) candidate: Option<usize>,
}

impl ElemView {
    /// The candidate instruction and its slot.
    pub(crate) fn candidate_op(&self) -> Option<(&ScheduledInstr, usize)> {
        let slot = self.candidate?;
        match self.li.get(slot)? {
            SlotOp::Instr(op) => Some((op, slot)),
            _ => None,
        }
    }
}

const fn bit(slot: usize) -> u64 {
    1 << slot
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let s = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (s < 64).then_some(s)
    })
}

/// Aggregate Scheduler Unit statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Blocks sealed into the VLIW Cache.
    pub blocks: u64,
    /// Long instructions across sealed blocks.
    pub lis: u64,
    /// Occupied slots across sealed blocks (COPYs included).
    pub slots_filled: u64,
    /// Total slots across sealed blocks (the §4.4 utilisation statistic
    /// is `slots_filled / slots_total`).
    pub slots_total: u64,
    /// Trace instructions scheduled.
    pub instrs: u64,
    /// Instructions ignored (`nop`, unconditional direct branches).
    pub ignored: u64,
    /// Install decisions.
    pub installs: u64,
    /// Plain move-up decisions.
    pub moves: u64,
    /// Splits (each leaves one COPY behind).
    pub splits: u64,
    /// Rename-register high-water marks across blocks (paper Table 3).
    pub rename_hw: RenameCounts,
}

impl SchedStats {
    /// Fraction of block slots holding an operation (§4.4 reports ~33%).
    pub fn slot_utilisation(&self) -> f64 {
        if self.slots_total == 0 {
            0.0
        } else {
            self.slots_filled as f64 / self.slots_total as f64
        }
    }
}

impl ToJson for SchedStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("blocks", Json::U64(self.blocks)),
            ("lis", Json::U64(self.lis)),
            ("slots_filled", Json::U64(self.slots_filled)),
            ("slots_total", Json::U64(self.slots_total)),
            ("slot_utilisation", Json::F64(self.slot_utilisation())),
            ("instrs", Json::U64(self.instrs)),
            ("ignored", Json::U64(self.ignored)),
            ("installs", Json::U64(self.installs)),
            ("moves", Json::U64(self.moves)),
            ("splits", Json::U64(self.splits)),
            ("rename_hw", self.rename_hw.to_json()),
        ])
    }
}

/// Result of [`Scheduler::insert`].
#[derive(Debug, Clone, PartialEq)]
pub enum InsertOutcome {
    /// The instruction is not scheduled (`nop`, `ba`): the paper's
    /// scheduling algorithm ignores them (§3.2, §3.9).
    Ignored,
    /// Inserted; if the list was full a block was sealed first and the
    /// instruction opened a new block.
    Inserted(Option<Block>),
}

/// What [`Scheduler::tick`] decided for one candidate (paper §3.2): the
/// three possible resolutions of the install/split signal pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Candidate invalidated; companion stays installed.
    Install,
    /// Candidate and companion moved one element up.
    MoveUp,
    /// Outputs renamed; companion left behind as a COPY; renamed form
    /// moved one element up.
    Split,
}

/// A per-candidate record of one `tick`, for the §3.7 signal-equation
/// cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolveEvent {
    /// Element index (from the head) the candidate occupied at the start
    /// of the cycle.
    pub elem: usize,
    /// Sequence number of the candidate's instruction.
    pub seq: u64,
    /// The decision taken.
    pub resolution: Resolution,
}

/// The Scheduler Unit.
#[derive(Debug, Clone)]
pub struct Scheduler {
    cfg: SchedConfig,
    /// Per [`FuClass`] (by discriminant), the slots that accept it.
    accepts: [u64; 5],
    /// The operations of the block under construction, each written
    /// once; rows name them by index.
    arena: Vec<Entry>,
    /// `height` rows, allocated once; `rows[..len]` is the list, head
    /// first.
    rows: Vec<Row>,
    len: usize,
    /// Bit `r % 64` of word `r / 64` is set exactly when `rows[r]`
    /// (`r < len`) holds a candidate.
    cands: Vec<u64>,
    pub(crate) block_tag: u32,
    pub(crate) entry_cwp: u8,
    pub(crate) entry_resident: u8,
    pub(crate) window_sensitive: bool,
    pub(crate) ls_counter: u16,
    pub(crate) renames: RenameCounts,
    pub(crate) first_seq: u64,
    pub(crate) stats: SchedStats,
    /// When `Some`, every candidate resolution is recorded here (tests).
    pub trace_events: Option<Vec<ResolveEvent>>,
}

impl Scheduler {
    /// A scheduler with an empty list.
    ///
    /// # Panics
    ///
    /// When `slot_classes` does not have `width` entries, when `width`
    /// exceeds [`MAX_WIDTH`], or when a block would have more than
    /// [`MAX_BLOCK_SLOTS`] slots.
    pub fn new(cfg: SchedConfig) -> Self {
        assert_eq!(cfg.slot_classes.len(), cfg.width);
        assert!(
            cfg.width <= MAX_WIDTH,
            "width {} exceeds MAX_WIDTH ({MAX_WIDTH} slots per long instruction)",
            cfg.width
        );
        assert!(
            cfg.width.saturating_mul(cfg.height) <= MAX_BLOCK_SLOTS,
            "a {}x{} block exceeds MAX_BLOCK_SLOTS ({MAX_BLOCK_SLOTS} slots per block)",
            cfg.width,
            cfg.height
        );
        let mut accepts = [0; 5];
        for class in [
            FuClass::Integer,
            FuClass::LoadStore,
            FuClass::Float,
            FuClass::Branch,
            FuClass::Universal,
        ] {
            for (s, c) in cfg.slot_classes.iter().enumerate() {
                if c.accepts(class) {
                    accepts[class as usize] |= bit(s);
                }
            }
        }
        Scheduler {
            accepts,
            arena: Vec::new(),
            rows: vec![Row::new(cfg.width); cfg.height],
            len: 0,
            cands: vec![0; cfg.height.div_ceil(64)],
            cfg,
            block_tag: 0,
            entry_cwp: 0,
            entry_resident: 1,
            window_sensitive: false,
            ls_counter: 0,
            renames: RenameCounts::default(),
            first_seq: 0,
            stats: SchedStats::default(),
            trace_events: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Is the scheduling list empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of active elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Statistics so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    // -------------------------------------------------------------
    // Dependence tests
    // -------------------------------------------------------------

    /// First free slot of row `r` that accepts `class`.
    fn find_slot(&self, r: usize, class: FuClass) -> Option<usize> {
        let free = self.accepts[class as usize] & !self.rows[r].occupied;
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Does an op of row `r` write a location of `list` (whose set is
    /// `set`)? True and output dependencies.
    fn writes_meet(&self, r: usize, set: &ResSet, list: &ResList) -> bool {
        let row = &self.rows[r];
        self.confirm(&row.writes.and(set), row.ops(0), |e| {
            e.sets.writes.meets(set) && e.op.writes().intersects(list)
        })
    }

    /// Does an op of row `r` other than its candidate read a location of
    /// `list`? Anti dependencies of that candidate.
    fn others_read(&self, r: usize, set: &ResSet, list: &ResList) -> bool {
        let row = &self.rows[r];
        self.confirm(
            &row.rest_reads.and(set),
            row.ops(row.candidate_bit()),
            |e| e.sets.reads.meets(set) && e.op.reads().intersects(list),
        )
    }

    /// Settle a probe whose row union met the probe set in `hit`: an
    /// exact bit is a certain dependency; a hit in hashed bits alone asks
    /// the ops `xs` one by one.
    fn confirm(
        &self,
        hit: &ResSet,
        mut xs: impl Iterator<Item = usize>,
        dep: impl Fn(&Entry) -> bool,
    ) -> bool {
        hit.has_exact() || (!hit.is_empty() && xs.any(|x| dep(&self.arena[x])))
    }

    /// Would placing an op reading `reads` at row `pos` violate a
    /// multicycle producer's latency? (Distance-1 producers are covered
    /// by the ordinary true-dependency check; this looks further up.)
    fn latency_violation(&self, pos: usize, set: &ResSet, reads: &ResList) -> bool {
        let lmax = self.cfg.latencies.max();
        for dist in 1..lmax as usize {
            let Some(j) = pos.checked_sub(dist) else {
                break;
            };
            let row = &self.rows[j];
            let violated = row.writes.meets(set)
                && row.ops(0).any(|x| {
                    let e = &self.arena[x];
                    let lat = match &e.op {
                        SlotOp::Instr(i) => self.cfg.latencies.of(&i.d.instr),
                        SlotOp::Copy(_) => 1,
                    };
                    lat as usize > dist
                        && e.sets.writes.meets(set)
                        && e.op.writes().intersects(reads)
                });
            if violated {
                return true;
            }
        }
        false
    }

    // -------------------------------------------------------------
    // Placement
    // -------------------------------------------------------------

    /// Open a fresh tail row, reusing its pooled storage.
    fn push_row(&mut self) {
        self.rows[self.len].reset();
        self.len += 1;
    }

    /// Put arena entry `x` into `slot` of row `r`, as the row's
    /// candidate when `candidate` is set.
    fn occupy(&mut self, r: usize, slot: usize, x: usize, candidate: bool) {
        let (row, e) = (&mut self.rows[r], &self.arena[x].sets);
        let b = bit(slot);
        row.slots[slot] = x as u16;
        row.occupied |= b;
        if e.branch {
            row.branch |= b;
        }
        if e.mem_writer {
            row.mem_writer |= b;
        }
        if e.ordered {
            row.ordered |= b;
        }
        if candidate {
            // A row holds one candidate: one that no cycle resolved since
            // it was inserted stays put when the next instruction joins.
            row.rest_reads = row.reads;
            row.rest_writes = row.writes;
            row.candidate = Some(slot);
            self.cands[r / 64] |= bit(r % 64);
        } else {
            row.rest_reads.union(&e.reads);
            row.rest_writes.union(&e.writes);
        }
        row.reads.union(&e.reads);
        row.writes.union(&e.writes);
    }

    /// Row `r`'s candidate stays where it is: it joins the row's other
    /// ops.
    fn settle_candidate(&mut self, r: usize) {
        let row = &mut self.rows[r];
        row.candidate = None;
        row.rest_reads = row.reads;
        row.rest_writes = row.writes;
        self.cands[r / 64] &= !bit(r % 64);
    }

    /// Take row `r`'s candidate out of the row: the unions fall back to
    /// the other ops'.
    fn vacate_candidate(&mut self, r: usize) {
        let row = &mut self.rows[r];
        let keep = !row.candidate_bit();
        row.occupied &= keep;
        row.branch &= keep;
        row.mem_writer &= keep;
        row.ordered &= keep;
        row.reads = row.rest_reads;
        row.writes = row.rest_writes;
        row.candidate = None;
        self.cands[r / 64] &= !bit(r % 64);
    }

    /// Place instruction `x` into row `r` at `slot`, resolving its
    /// branch tag and cross bit at this placement (paper §3.8, §3.10).
    fn place(&mut self, r: usize, slot: usize, x: usize, candidate: bool) {
        let row = &mut self.rows[r];
        let e = &mut self.arena[x];
        let (branch, mem_writer) = (e.sets.branch, e.sets.mem_writer);
        let op = e.instr_mut();
        op.tag = row.cur_tag;
        if branch {
            row.cur_tag += 1;
        }
        if op.ls_order.is_some() {
            // A load must be listed when it shares (or shared) a long
            // instruction with a store; a store additionally when it
            // crossed any other memory operation. The paper states only
            // the store-in-LI condition; the store-over-load extension
            // is required for sound aliasing detection (DESIGN.md).
            if mem_writer {
                op.cross |= row.ordered != 0;
            } else {
                op.cross |= row.mem_writer != 0;
            }
        }
        self.occupy(r, slot, x, candidate);
    }

    // -------------------------------------------------------------
    // Candidate resolution (one per cycle per candidate)
    // -------------------------------------------------------------

    /// Run one Scheduler Unit cycle: every candidate installs, splits or
    /// moves up one element, resolved head-first (the sequential
    /// equivalent of the §3.7 signal equations). Only rows holding a
    /// candidate are visited; a cycle without one changes nothing.
    pub fn tick(&mut self) {
        let mut resolved = false;
        for w in 0..self.cands.len() {
            // A resolution at row `i` only touches the candidate bits of
            // rows `i` and `i - 1`, both already walked.
            let mut mask = self.cands[w];
            resolved |= mask != 0;
            while mask != 0 {
                self.resolve(w * 64 + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        }
        if resolved {
            // Trim tail elements emptied by move-ups. (Only a move-up
            // empties a row, so a cycle that resolved nothing has
            // nothing to trim.)
            while self.len > 0 && self.rows[self.len - 1].occupied == 0 {
                self.len -= 1;
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Whether any row holds a candidate.
    fn has_candidates(&self) -> bool {
        self.cands.iter().any(|&w| w != 0)
    }

    /// The host bookkeeping agrees with the list: candidate bits name
    /// exactly the rows with a candidate, and every row's unions are
    /// those of its ops.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        for (r, row) in self.rows.iter().enumerate() {
            let marked = self.cands[r / 64] & bit(r % 64) != 0;
            assert_eq!(
                marked,
                r < self.len && row.candidate.is_some(),
                "candidate mask disagrees with row {r}"
            );
        }
        for row in &self.rows[..self.len] {
            let union = |skip| {
                row.ops(skip)
                    .fold((ResSet::default(), ResSet::default()), |(r, w), x| {
                        let e = &self.arena[x].sets;
                        (r.with(&e.reads), w.with(&e.writes))
                    })
            };
            assert_eq!(
                (row.rest_reads, row.rest_writes),
                union(row.candidate_bit())
            );
            assert_eq!((row.reads, row.writes), union(0));
        }
    }

    fn install(&mut self, i: usize, seq: u64) {
        self.settle_candidate(i);
        self.stats.installs += 1;
        self.log_event(i, seq, Resolution::Install);
    }

    fn resolve(&mut self, i: usize) {
        let slot_here = self.rows[i].candidate.expect("resolve without candidate");
        let x = self.rows[i].slots[slot_here] as usize;
        let seq = self.arena[x].instr().d.seq;
        match self.decide(i, slot_here, x) {
            None => self.install(i, seq),
            Some((dest_slot, conflicting)) if conflicting.is_empty() => {
                // Plain move up.
                self.vacate_candidate(i);
                self.place(i - 1, dest_slot, x, true);
                self.stats.moves += 1;
                self.log_event(i, seq, Resolution::MoveUp);
            }
            Some((dest_slot, conflicting)) => {
                self.split(i, slot_here, x, dest_slot, &conflicting);
                self.stats.splits += 1;
                self.log_event(i, seq, Resolution::Split);
            }
        }
    }

    /// The fate of row `i`'s candidate (arena entry `x` in `slot_here`):
    /// `None` to install, or the slot it takes in row `i - 1` and the
    /// outputs a split must rename (none for a plain move).
    fn decide(&self, i: usize, slot_here: usize, x: usize) -> Option<(usize, ResList)> {
        if i == 0 {
            // Reached the head of the list: install.
            return None;
        }
        let (op, e) = (self.arena[x].instr(), &self.arena[x].sets);

        // Install on a true or resource dependency on the element above,
        // or when a multicycle producer higher up would be too close.
        let dest_slot = self.find_slot(i - 1, e.class)?;
        if self.writes_meet(i - 1, &e.reads, &op.reads)
            || (self.cfg.latencies.max() > 1 && self.latency_violation(i - 1, &e.reads, &op.reads))
        {
            return None;
        }

        // Split triggers: output dependency on the element above, anti
        // dependency on this element, control dependency (a branch in
        // this element).
        let writes = &op.writes;
        let mut conflicting = ResList::new();
        if self.rows[i].branch & !bit(slot_here) != 0 {
            conflicting = *writes;
        } else if self.writes_meet(i - 1, &e.writes, writes)
            || self.others_read(i, &e.writes, writes)
        {
            if writes.len() == 1 {
                conflicting = *writes;
            } else {
                for w in writes.iter() {
                    let one: ResList = std::iter::once(*w).collect();
                    let set = ResSet::of(&one);
                    if self.writes_meet(i - 1, &set, &one) || self.others_read(i, &set, &one) {
                        conflicting.push(*w);
                    }
                }
            }
        }
        if !conflicting.is_empty()
            && (!self.cfg.enable_splitting
                || conflicting.iter().any(|w| !w.renameable())
                || self.cfg.latencies.of(&op.d.instr) > 1)
        {
            // %y or the window pointer cannot be renamed, splitting is
            // ablated, or the op is multicycle (its COPY could not sit
            // one long instruction below it): install.
            return None;
        }
        Some((dest_slot, conflicting))
    }

    /// Split row `i`'s candidate (arena entry `x` in `slot_here`) into
    /// `dest_slot` of row `i - 1`: rename the `conflicting` outputs in
    /// place, leave a COPY behind in the companion's slot, keep climbing
    /// with the renamed form.
    fn split(
        &mut self,
        i: usize,
        slot_here: usize,
        x: usize,
        dest_slot: usize,
        conflicting: &ResList,
    ) {
        let mut pairs = RenamePairs::new();
        let (mut copy_reads, mut copy_writes) = (ResSet::default(), ResSet::default());
        let op = self.arena[x].instr_mut();
        for w in conflicting.iter() {
            let kind = w.rename_kind().expect("renameable resource has a kind");
            let id = self.renames.alloc(kind);
            let ren = match kind {
                RenameKind::Int => Resource::IntRen(id),
                RenameKind::Fp => Resource::FpRen(id),
                RenameKind::Icc => Resource::IccRen(id),
                RenameKind::Fcc => Resource::FccRen(id),
                RenameKind::Mem => Resource::MemRen(id),
            };
            op.writes.replace(w, ren);
            pairs.push((ren, *w));
            copy_reads.add(&ren);
            copy_writes.add(w);
        }
        let mem_copy = has_mem(conflicting);
        let copy = CopyInstr {
            pairs,
            tag: op.tag,
            ls_order: if mem_copy { op.ls_order } else { None },
            // Cross-bit for the COPY at its (final) placement.
            cross: mem_copy
                && (op.cross
                    || (op.ls_order.is_some() && self.rows[i].ordered & !bit(slot_here) != 0)),
            orig_seq: op.d.seq,
        };
        let (renamed, renamed_mem) = (ResSet::of(&op.writes), has_mem(&op.writes));
        let e = &mut self.arena[x];
        e.sets.writes = renamed;
        e.sets.mem_writer = renamed_mem;
        debug_assert_eq!(e.sets, OpSets::of(&e.op));
        let copy_sets = OpSets {
            reads: copy_reads,
            writes: copy_writes,
            class: copy.fu_class(),
            branch: false,
            mem_writer: mem_copy,
            ordered: copy.ls_order.is_some(),
        };

        // Source redirection (the paper's Figure 2: `subcc r32, 4*x-1`):
        // the candidate immediately below the split reads the renaming
        // register instead of waiting for the COPY. Only the adjacent
        // candidate can be redirected soundly — any farther candidate
        // may have a closer writer of the original location.
        if self.cfg.enable_redirect && i + 1 < self.len {
            if let Some(s) = self.rows[i + 1].candidate {
                let y = self.rows[i + 1].slots[s] as usize;
                let next = self.arena[y].instr_mut();
                let mut changed = false;
                for (ren, orig) in &copy.pairs {
                    // Never forward renamed memory: the load's runtime
                    // address may differ from the store's.
                    if matches!(orig, Resource::Mem { .. }) {
                        continue;
                    }
                    if next.reads.replace(orig, *ren) > 0 {
                        next.src_renames.push((*orig, *ren));
                        changed = true;
                    }
                }
                if changed {
                    let reads = ResSet::of(&next.reads);
                    self.arena[y].sets.reads = reads;
                    let row = &mut self.rows[i + 1];
                    row.reads = row.rest_reads.with(&reads);
                }
            }
        }

        let c = self.arena.len();
        let op = SlotOp::Copy(copy);
        debug_assert_eq!(copy_sets, OpSets::of(&op));
        self.arena.push(Entry {
            op,
            sets: copy_sets,
        });
        self.vacate_candidate(i);
        self.occupy(i, slot_here, c, false);
        self.place(i - 1, dest_slot, x, true);
    }

    /// Run the list to fixpoint: tick until no candidate remains
    /// unresolved. This is the DIF machine's *greedy* scheduling (Nair &
    /// Hopkins): a resource-ready table places each instruction at its
    /// earliest feasible long instruction immediately, which equals the
    /// FCFS candidate's final resting place.
    pub fn settle(&mut self) {
        // A candidate resolves (installs or stops moving) within
        // `height` ticks; one extra pass covers redirections.
        for _ in 0..=self.cfg.height {
            if !self.has_candidates() {
                break;
            }
            self.tick();
        }
    }

    fn log_event(&mut self, elem: usize, seq: u64, resolution: Resolution) {
        if let Some(ev) = &mut self.trace_events {
            ev.push(ResolveEvent {
                elem,
                seq,
                resolution,
            });
        }
    }

    // -------------------------------------------------------------
    // Insertion
    // -------------------------------------------------------------

    /// Insert the instruction the Primary Processor just retired.
    ///
    /// `resident` is the resident-window count *before* the instruction
    /// executed (recorded when a new block starts).
    pub fn insert(&mut self, d: &DynInstr, resident: u8) -> InsertOutcome {
        if d.instr.is_nop() || d.instr.is_unconditional_branch() {
            self.stats.ignored += 1;
            return InsertOutcome::Ignored;
        }
        debug_assert!(!d.instr.is_non_schedulable(), "machine must reject traps");

        let (reads, writes) = (d.reads(), d.writes());
        let mut sets = OpSets {
            reads: ResSet::of(&reads),
            writes: ResSet::of(&writes),
            class: d.instr.fu_class(),
            branch: d.instr.is_conditional_or_indirect(),
            mem_writer: has_mem(&writes),
            ordered: false,
        };
        let multicycle_list = self.cfg.latencies.max() > 1;

        let mut sealed = None;
        // Does the incoming instruction fit in the tail element? Flow,
        // output and resource dependencies open a new element. Anti
        // dependencies do not: a long instruction reads before it
        // writes, so an older reader and a younger writer of the same
        // location coexist correctly (the paper's Figure 2 places the
        // second iteration's `ld ..., r8` beside `add r9, r8, r9`).
        // Joining a long instruction that already holds branches is
        // also allowed — the incoming instruction receives the current
        // branch tag (§3.8: the same snapshot shows that `ld` after
        // `ble`).
        let join_tail = self.len > 0 && {
            let t = self.len - 1;
            self.find_slot(t, sets.class).is_some()
                && !(self.writes_meet(t, &sets.reads, &reads)
                    || self.writes_meet(t, &sets.writes, &writes)
                    || (multicycle_list && self.latency_violation(t, &sets.reads, &reads)))
        };

        if self.len == 0 || (!join_tail && self.len == self.cfg.height) {
            if self.len > 0 {
                // List full: seal and start a new block at this
                // instruction (paper §3.2).
                sealed = self.seal(d.pc, d.seq);
            }
            self.start_block(d, resident);
        }

        let ls_order = d.instr.is_mem().then(|| {
            self.ls_counter += 1;
            self.ls_counter - 1
        });
        sets.ordered = ls_order.is_some();
        if matches!(
            d.instr,
            dtsvliw_isa::Instr::Save { .. } | dtsvliw_isa::Instr::Restore { .. }
        ) {
            self.window_sensitive = true;
        }

        if !join_tail && self.len > 0 && self.len < self.cfg.height {
            // Need a fresh tail element unless the block just started
            // with an empty list.
            if self.rows[self.len - 1].occupied != 0 {
                self.push_row();
            }
            // Multicycle producers may require latency bubbles: empty
            // long instructions until the new position is far enough
            // below ([14]'s spacing rule).
            while multicycle_list
                && self.len < self.cfg.height
                && self.latency_violation(self.len - 1, &sets.reads, &reads)
            {
                self.push_row();
            }
        }
        if self.len == 0 {
            self.push_row();
        }

        let r = self.len - 1;
        let slot = self
            .find_slot(r, sets.class)
            .expect("an empty or joinable long instruction must have a free slot");
        let x = self.arena.len();
        let op = SlotOp::Instr(ScheduledInstr {
            d: *d,
            reads,
            writes,
            tag: 0,
            ls_order,
            cross: false,
            src_renames: Vec::new(),
        });
        debug_assert_eq!(sets, OpSets::of(&op));
        self.arena.push(Entry { op, sets });
        // Branches never move (their order is preserved, §3.8);
        // everything else becomes a candidate.
        self.place(r, slot, x, !sets.branch);
        self.stats.instrs += 1;
        InsertOutcome::Inserted(sealed)
    }

    fn start_block(&mut self, d: &DynInstr, resident: u8) {
        debug_assert!(self.is_empty());
        self.block_tag = d.pc;
        self.entry_cwp = d.cwp_before;
        self.entry_resident = resident;
        self.window_sensitive = false;
        self.ls_counter = 0;
        self.renames = RenameCounts::default();
        self.first_seq = d.seq;
    }

    /// Seal the block under construction: every candidate is finalised
    /// in place and the long instructions become one VLIW Cache line.
    /// `next_addr` is the address where the trace continues (the nba
    /// store) and `next_seq` the dynamic sequence number of the
    /// instruction there. Returns `None` when the list is empty.
    pub fn seal(&mut self, next_addr: u32, next_seq: u64) -> Option<Block> {
        if self.is_empty() {
            return None;
        }
        let (rows, arena) = (&self.rows[..self.len], &mut self.arena);
        let mut filled = 0;
        let lis: Vec<LongInstr> = rows
            .iter()
            .map(|row| {
                let mut ops = Vec::with_capacity(row.occupied.count_ones() as usize);
                for x in row.ops(0) {
                    ops.push(std::mem::replace(&mut arena[x].op, VACANT));
                }
                filled += ops.len() as u64;
                LongInstr::new(self.cfg.width, row.occupied, ops)
            })
            .collect();
        arena.clear();
        self.len = 0;
        self.cands.fill(0);
        let block = Block {
            tag_addr: self.block_tag,
            entry_cwp: self.entry_cwp,
            entry_resident: self.entry_resident,
            window_sensitive: self.window_sensitive,
            nba_addr: next_addr,
            renames: self.renames,
            first_seq: self.first_seq,
            trace_len: next_seq.saturating_sub(self.first_seq) as u32,
            lis,
        };
        self.stats.blocks += 1;
        self.stats.lis += block.lis.len() as u64;
        self.stats.slots_filled += filled;
        self.stats.slots_total += (self.cfg.width * self.cfg.height) as u64;
        self.stats.rename_hw = self.stats.rename_hw.max(block.renames);
        self.renames = RenameCounts::default();
        Some(block)
    }

    // -------------------------------------------------------------
    // Materialised view (snapshots, the signal oracle, diagnostics)
    // -------------------------------------------------------------

    /// The list materialised head to tail (see [`ElemView`]).
    pub(crate) fn view(&self) -> Vec<ElemView> {
        self.rows[..self.len]
            .iter()
            .map(|row| {
                let ops = row.ops(0).map(|x| self.arena[x].op.clone()).collect();
                ElemView {
                    li: LongInstr::new(self.cfg.width, row.occupied, ops),
                    cur_tag: row.cur_tag,
                    candidate: row.candidate,
                }
            })
            .collect()
    }

    /// Append an element read back from a snapshot, whose candidate (if
    /// any) names a slot holding an instruction. `None` when the list is
    /// full or the row has the wrong width.
    pub(crate) fn push_view(&mut self, e: ElemView) -> Option<()> {
        if self.len == self.cfg.height || e.li.width() != self.cfg.width {
            return None;
        }
        self.push_row();
        let r = self.len - 1;
        for (s, op) in e.li.slots().enumerate() {
            if let Some(op) = op {
                self.arena.push(Entry {
                    op: op.clone(),
                    sets: OpSets::of(op),
                });
                self.occupy(r, s, self.arena.len() - 1, e.candidate == Some(s));
            }
        }
        self.rows[r].cur_tag = e.cur_tag;
        Some(())
    }

    /// Test/diagnostic view of the list: `(slot strings per element,
    /// candidate slot)` from head to tail.
    pub fn dump(&self) -> Vec<Vec<String>> {
        self.view()
            .iter()
            .map(|e| {
                e.li.slots()
                    .map(|s| match s {
                        None => String::new(),
                        Some(SlotOp::Instr(i)) => format!("{}", i.d.instr),
                        Some(SlotOp::Copy(c)) => format!("COPY x{}", c.pairs.len()),
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_isa::insn::{AluOp, Src2};
    use dtsvliw_isa::Instr;

    fn add(seq: u64, rd: u8, rs1: u8) -> DynInstr {
        DynInstr {
            seq,
            pc: 0x1000 + 4 * seq as u32,
            instr: Instr::Alu {
                op: AluOp::Add,
                cc: false,
                rd,
                rs1,
                src2: Src2::Imm(1),
            },
            cwp_before: 0,
            cwp_after: 0,
            eff_addr: None,
            taken: None,
            target: None,
            delay_is_nop: true,
        }
    }

    /// The list as comparable values.
    fn shape(s: &Scheduler) -> Vec<(LongInstr, u8, Option<usize>)> {
        s.view()
            .into_iter()
            .map(|e| (e.li, e.cur_tag, e.candidate))
            .collect()
    }

    #[test]
    fn a_cycle_without_candidates_changes_nothing() {
        let mut s = Scheduler::new(SchedConfig::homogeneous(2, 4));
        // A dependency chain, one element per link, and an independent
        // op beside it.
        for (seq, (rd, rs1)) in [(8, 8), (9, 8), (10, 9), (11, 11)].into_iter().enumerate() {
            s.insert(&add(seq as u64, rd, rs1), 1);
        }
        s.settle();
        assert!(!s.has_candidates());
        assert!(s.rows[..s.len].iter().all(|r| r.candidate.is_none()));
        let (before, stats) = (shape(&s), s.stats());
        assert_eq!(before.len(), 3);
        for _ in 0..3 {
            s.tick();
        }
        assert_eq!(shape(&s), before);
        assert_eq!(s.stats(), stats);
    }
}
