//! Scheduled-code data types: slot operations, long instructions and
//! blocks — the unit stored in the VLIW Cache.

use dtsvliw_isa::insn::FuClass;
use dtsvliw_isa::resource::RenameKind;
use dtsvliw_isa::{DynInstr, ResList, Resource};
use dtsvliw_json::{Fnv1a, Json, ToJson};

/// A trace instruction placed in a long-instruction slot.
///
/// `writes` may differ from `d.writes()` when the instruction was split:
/// renamed outputs point at renaming registers and the original
/// locations are written by a separate [`CopyInstr`] placed lower in the
/// block.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledInstr {
    /// The dynamic instruction as observed by the Primary Processor.
    pub d: DynInstr,
    /// Source locations (never renamed — consumers depend on the COPY).
    pub reads: ResList,
    /// Destination locations, after any renaming.
    pub writes: ResList,
    /// Branch tag: valid only while every conditional/indirect branch of
    /// the same long instruction with a smaller tag follows its recorded
    /// direction (paper §3.8).
    pub tag: u8,
    /// Load/store insertion order within the block (paper §3.10).
    pub ls_order: Option<u16>,
    /// Cross bit: this load/store shared a long instruction with a store
    /// or memory COPY at some placement, so the VLIW Engine must enter
    /// it in the load/store lists (paper §3.10).
    pub cross: bool,
    /// Source redirections applied when the producer immediately above
    /// split: `(original location, renaming register)` pairs. The VLIW
    /// Engine reads the renaming register wherever the instruction's
    /// encoding names the original location.
    pub src_renames: Vec<(Resource, Resource)>,
}

impl ScheduledInstr {
    /// Was any output renamed (i.e. was the instruction split)?
    pub fn is_split(&self) -> bool {
        self.writes.iter().any(|w| {
            matches!(
                w,
                Resource::IntRen(_)
                    | Resource::FpRen(_)
                    | Resource::IccRen(_)
                    | Resource::FccRen(_)
                    | Resource::MemRen(_)
            )
        })
    }

    /// Does this operation write memory (a real, un-renamed store)?
    pub fn writes_memory(&self) -> bool {
        self.writes
            .iter()
            .any(|w| matches!(w, Resource::Mem { .. }))
    }
}

/// The `(renaming register, original location)` pairs of one COPY, held
/// inline: a split renames at most the four locations an instruction
/// writes, so building a COPY allocates nothing. Reads as a slice.
#[derive(Clone, Copy)]
pub struct RenamePairs {
    len: u8,
    items: [(Resource, Resource); 4],
}

impl RenamePairs {
    /// No pairs.
    pub const fn new() -> Self {
        RenamePairs {
            len: 0,
            items: [(Resource::Y, Resource::Y); 4],
        }
    }

    /// Append a pair; panics beyond four (an ISA invariant: no
    /// instruction writes more than four locations).
    pub fn push(&mut self, pair: (Resource, Resource)) {
        self.items[self.len as usize] = pair;
        self.len += 1;
    }
}

impl Default for RenamePairs {
    fn default() -> Self {
        RenamePairs::new()
    }
}

impl std::ops::Deref for RenamePairs {
    type Target = [(Resource, Resource)];

    fn deref(&self) -> &Self::Target {
        &self.items[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a RenamePairs {
    type Item = &'a (Resource, Resource);
    type IntoIter = std::slice::Iter<'a, (Resource, Resource)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<(Resource, Resource)> for RenamePairs {
    fn from_iter<T: IntoIterator<Item = (Resource, Resource)>>(iter: T) -> Self {
        let mut pairs = RenamePairs::new();
        for p in iter {
            pairs.push(p);
        }
        pairs
    }
}

impl PartialEq for RenamePairs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for RenamePairs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A COPY instruction produced by splitting: commits renaming registers
/// to the original locations. One COPY can carry several pairs when a
/// control-dependency split renamed all outputs at once (paper §3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct CopyInstr {
    /// `(renaming register, original location)` pairs.
    pub pairs: RenamePairs,
    /// Branch tag (see [`ScheduledInstr::tag`]).
    pub tag: u8,
    /// Order field inherited from a split store (memory COPYs take part
    /// in aliasing detection at their own position).
    pub ls_order: Option<u16>,
    /// Cross bit (see [`ScheduledInstr::cross`]).
    pub cross: bool,
    /// Sequence number of the split instruction (diagnostics).
    pub orig_seq: u64,
}

impl CopyInstr {
    /// Locations read: the renaming registers.
    pub fn reads(&self) -> ResList {
        self.pairs.iter().map(|(from, _)| *from).collect()
    }

    /// Locations written: the original destinations.
    pub fn writes(&self) -> ResList {
        self.pairs.iter().map(|(_, to)| *to).collect()
    }

    /// True when one of the pairs commits a renamed store to memory.
    pub fn writes_memory(&self) -> bool {
        self.pairs
            .iter()
            .any(|(_, to)| matches!(to, Resource::Mem { .. }))
    }

    /// Functional-unit class: memory COPYs need a load/store unit, FP
    /// copies an FP unit, everything else an integer unit.
    pub fn fu_class(&self) -> FuClass {
        if self.writes_memory() {
            FuClass::LoadStore
        } else if self
            .pairs
            .iter()
            .any(|(_, to)| matches!(to, Resource::Fp(_) | Resource::FpRen(_)))
        {
            FuClass::Float
        } else {
            FuClass::Integer
        }
    }
}

/// One operation in one slot of a long instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotOp {
    /// A scheduled trace instruction.
    Instr(ScheduledInstr),
    /// A COPY left behind by a split.
    Copy(CopyInstr),
}

impl SlotOp {
    /// Source locations.
    pub fn reads(&self) -> ResList {
        match self {
            SlotOp::Instr(s) => s.reads,
            SlotOp::Copy(c) => c.reads(),
        }
    }

    /// Destination locations.
    pub fn writes(&self) -> ResList {
        match self {
            SlotOp::Instr(s) => s.writes,
            SlotOp::Copy(c) => c.writes(),
        }
    }

    /// Branch tag.
    pub fn tag(&self) -> u8 {
        match self {
            SlotOp::Instr(s) => s.tag,
            SlotOp::Copy(c) => c.tag,
        }
    }

    /// Functional-unit class this operation issues to.
    pub fn fu_class(&self) -> FuClass {
        match self {
            SlotOp::Instr(s) => s.d.instr.fu_class(),
            SlotOp::Copy(c) => c.fu_class(),
        }
    }

    /// Is this a store or a memory COPY (sets cross bits, §3.10)?
    pub fn is_memory_writer(&self) -> bool {
        match self {
            SlotOp::Instr(s) => s.writes_memory(),
            SlotOp::Copy(c) => c.writes_memory(),
        }
    }

    /// Is this a conditional or indirect branch?
    pub fn is_branch(&self) -> bool {
        matches!(self, SlotOp::Instr(s) if s.d.instr.is_conditional_or_indirect())
    }

    /// Load/store order field, when the op takes part in memory-aliasing
    /// detection.
    pub fn ls_order(&self) -> Option<u16> {
        match self {
            SlotOp::Instr(s) => s.ls_order,
            SlotOp::Copy(c) => c.ls_order,
        }
    }
}

/// One long (VLIW) instruction, stored densely: an occupancy mask (bit
/// `s` set when slot `s` holds an operation) plus the occupied slots'
/// operations in ascending slot order. `width` is at most 64, the slots
/// a `u64` mask can name.
#[derive(Debug, Clone, PartialEq)]
pub struct LongInstr {
    width: u8,
    occupied: u64,
    ops: Vec<SlotOp>,
}

impl LongInstr {
    /// An empty long instruction of `width` slots.
    pub fn empty(width: usize) -> Self {
        LongInstr::new(width, 0, Vec::new())
    }

    /// A long instruction of `width` slots whose occupied slots are the
    /// set bits of `occupied`, holding `ops` lowest slot first.
    pub fn new(width: usize, occupied: u64, ops: Vec<SlotOp>) -> Self {
        assert!(width <= 64, "a long instruction holds at most 64 slots");
        debug_assert!(width == 64 || occupied >> width == 0, "slot beyond width");
        debug_assert_eq!(occupied.count_ones() as usize, ops.len());
        LongInstr {
            width: width as u8,
            occupied,
            ops,
        }
    }

    /// Slots, occupied or not.
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// The occupied slots' operations, lowest slot first.
    pub fn ops(&self) -> &[SlotOp] {
        &self.ops
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// All slots free?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Position in `ops` of `slot`'s operation (or of where it would go).
    fn index(&self, slot: usize) -> usize {
        (self.occupied & ((1u64 << slot) - 1)).count_ones() as usize
    }

    fn holds(&self, slot: usize) -> bool {
        slot < self.width() && self.occupied >> slot & 1 == 1
    }

    /// The operation in `slot`; `None` when the slot is empty or beyond
    /// the width.
    pub fn get(&self, slot: usize) -> Option<&SlotOp> {
        self.holds(slot).then(|| &self.ops[self.index(slot)])
    }

    /// Mutable access to the operation in `slot`.
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut SlotOp> {
        if !self.holds(slot) {
            return None;
        }
        let i = self.index(slot);
        Some(&mut self.ops[i])
    }

    /// Place `op` in `slot`, returning what the slot held before.
    /// Panics when `slot` is beyond the width.
    pub fn set(&mut self, slot: usize, op: SlotOp) -> Option<SlotOp> {
        assert!(
            slot < self.width(),
            "slot {slot} beyond width {}",
            self.width
        );
        let i = self.index(slot);
        if self.holds(slot) {
            return Some(std::mem::replace(&mut self.ops[i], op));
        }
        self.occupied |= 1 << slot;
        self.ops.insert(i, op);
        None
    }

    /// Empty `slot`, returning its operation.
    pub fn take(&mut self, slot: usize) -> Option<SlotOp> {
        if !self.holds(slot) {
            return None;
        }
        let i = self.index(slot);
        self.occupied &= !(1 << slot);
        Some(self.ops.remove(i))
    }

    /// Every slot in order, `None` for an empty one (the sparse view
    /// the content hash, snapshots and diagnostics read).
    pub fn slots(&self) -> impl Iterator<Item = Option<&SlotOp>> + '_ {
        let mut ops = self.ops.iter();
        (0..self.width()).map(move |s| {
            if self.occupied >> s & 1 == 1 {
                ops.next()
            } else {
                None
            }
        })
    }
}

/// Rename-register high-water marks for one block, by pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenameCounts {
    /// Integer renaming registers used.
    pub int: u32,
    /// FP renaming registers used.
    pub fp: u32,
    /// Flag (icc + fcc) renaming registers used.
    pub flag: u32,
    /// Memory renaming registers used.
    pub mem: u32,
}

impl ToJson for RenameCounts {
    fn to_json(&self) -> Json {
        Json::obj([
            ("int", Json::U64(self.int as u64)),
            ("fp", Json::U64(self.fp as u64)),
            ("flag", Json::U64(self.flag as u64)),
            ("mem", Json::U64(self.mem as u64)),
        ])
    }
}

impl RenameCounts {
    /// Bump the counter for `kind` and return the allocated id.
    pub fn alloc(&mut self, kind: RenameKind) -> u32 {
        let c = match kind {
            RenameKind::Int => &mut self.int,
            RenameKind::Fp => &mut self.fp,
            RenameKind::Icc | RenameKind::Fcc => &mut self.flag,
            RenameKind::Mem => &mut self.mem,
        };
        let id = *c;
        *c += 1;
        id
    }

    /// Pointwise maximum (for high-water tracking across blocks).
    pub fn max(self, other: RenameCounts) -> RenameCounts {
        RenameCounts {
            int: self.int.max(other.int),
            fp: self.fp.max(other.fp),
            flag: self.flag.max(other.flag),
            mem: self.mem.max(other.mem),
        }
    }
}

/// A sealed block of long instructions — one VLIW Cache line (§3.4).
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Cache tag: the SPARC address of the first instruction placed in
    /// the block.
    pub tag_addr: u32,
    /// Window pointer at block entry; a VLIW Cache hit additionally
    /// requires the current cwp to match, because scheduled operations
    /// reference physical (window-resolved) registers. The paper tags by
    /// address alone and does not discuss recursion re-entering a block
    /// at a different window; the cwp check is the minimal correctness
    /// completion and is recorded in DESIGN.md.
    pub entry_cwp: u8,
    /// Resident-window count at entry; checked on hit only when the
    /// block contains `save`/`restore` (whose spill/fill behaviour
    /// depends on it).
    pub entry_resident: u8,
    /// Does the block contain `save`/`restore`?
    pub window_sensitive: bool,
    /// The long instructions, executed top to bottom.
    pub lis: Vec<LongInstr>,
    /// Next-block address (nba) store: where the trace continues after
    /// the last long instruction.
    pub nba_addr: u32,
    /// Rename registers consumed by this block.
    pub renames: RenameCounts,
    /// Dynamic sequence number of the first trace instruction of the
    /// block (test-mode synchronisation).
    pub first_seq: u64,
    /// Length of the trace segment this block encodes, in sequential
    /// instructions *including* the `nop`s and unconditional branches
    /// the Scheduler Unit ignores: re-executing the block advances the
    /// sequential machine by exactly this many instructions.
    pub trace_len: u32,
}

impl Block {
    /// Content checksum over everything the VLIW Engine executes:
    /// geometry, every slot operation (instruction encoding, tags,
    /// order/cross fields, renames) and the nba store. The VLIW Cache
    /// records it at install time so a later integrity sweep can tell a
    /// rotted line from a clean one. FNV-1a, so stable across runs and
    /// builds.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv1a::default();
        let feed_d = |h: &mut Fnv1a, d: &DynInstr| {
            h.write_u64(d.seq);
            h.write_u32(d.pc);
            d.instr.hash(h);
            h.write_u8(d.cwp_before);
            h.write_u8(d.cwp_after);
            d.eff_addr.hash(h);
            d.taken.hash(h);
            d.target.hash(h);
            h.write_u8(d.delay_is_nop as u8);
        };
        let feed_list = |h: &mut Fnv1a, l: &ResList| {
            h.write_u8(l.iter().count() as u8);
            for r in l.iter() {
                r.hash(h);
            }
        };
        h.write_u32(self.tag_addr);
        h.write_u8(self.entry_cwp);
        h.write_u8(self.entry_resident);
        h.write_u8(self.window_sensitive as u8);
        h.write_u32(self.nba_addr);
        h.write_u64(self.first_seq);
        h.write_u32(self.trace_len);
        h.write_usize(self.lis.len());
        for li in &self.lis {
            h.write_usize(li.width());
            for slot in li.slots() {
                match slot {
                    None => h.write_u8(0),
                    Some(SlotOp::Instr(s)) => {
                        h.write_u8(1);
                        feed_d(&mut h, &s.d);
                        feed_list(&mut h, &s.reads);
                        feed_list(&mut h, &s.writes);
                        h.write_u8(s.tag);
                        s.ls_order.hash(&mut h);
                        h.write_u8(s.cross as u8);
                        h.write_usize(s.src_renames.len());
                        for (from, to) in &s.src_renames {
                            from.hash(&mut h);
                            to.hash(&mut h);
                        }
                    }
                    Some(SlotOp::Copy(c)) => {
                        h.write_u8(2);
                        h.write_usize(c.pairs.len());
                        for (from, to) in &c.pairs {
                            from.hash(&mut h);
                            to.hash(&mut h);
                        }
                        h.write_u8(c.tag);
                        c.ls_order.hash(&mut h);
                        h.write_u8(c.cross as u8);
                        h.write_u64(c.orig_seq);
                    }
                }
            }
        }
        Hasher::finish(&h)
    }

    /// nba line-index field: the position of the last long instruction
    /// (the VLIW Engine switches blocks when PC's line index equals it).
    pub fn nba_line(&self) -> usize {
        self.lis.len().saturating_sub(1)
    }

    /// Occupied slots (for the paper's §4.4 utilisation statistic).
    pub fn filled_slots(&self) -> usize {
        self.lis.iter().map(LongInstr::len).sum()
    }

    /// Scheduled trace instructions (excluding COPYs).
    pub fn trace_instrs(&self) -> usize {
        self.lis
            .iter()
            .flat_map(LongInstr::ops)
            .filter(|o| matches!(o, SlotOp::Instr(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_isa::{DynInstr, Instr};

    fn tiny_block() -> Block {
        let mut li = LongInstr::empty(2);
        li.set(
            0,
            SlotOp::Instr(ScheduledInstr {
                d: DynInstr {
                    seq: 3,
                    pc: 0x1004,
                    instr: Instr::Sethi { rd: 1, imm22: 42 },
                    cwp_before: 0,
                    cwp_after: 0,
                    eff_addr: None,
                    taken: None,
                    target: None,
                    delay_is_nop: false,
                },
                reads: ResList::default(),
                writes: [Resource::Int(1)].into_iter().collect(),
                tag: 1,
                ls_order: None,
                cross: false,
                src_renames: Vec::new(),
            }),
        );
        Block {
            tag_addr: 0x1000,
            entry_cwp: 0,
            entry_resident: 1,
            window_sensitive: false,
            lis: vec![li],
            nba_addr: 0x2000,
            renames: RenameCounts::default(),
            first_seq: 3,
            trace_len: 2,
        }
    }

    #[test]
    fn content_hash_tracks_content() {
        let b = tiny_block();
        assert_eq!(b.content_hash(), b.clone().content_hash());
        let mut nba = b.clone();
        nba.nba_addr ^= 4;
        assert_ne!(b.content_hash(), nba.content_hash());
        let mut tag = b.clone();
        if let Some(SlotOp::Instr(s)) = tag.lis[0].get_mut(0) {
            s.tag = 0;
        }
        assert_ne!(b.content_hash(), tag.content_hash());
        let mut dropped = b.clone();
        dropped.lis[0].take(0);
        assert_ne!(b.content_hash(), dropped.content_hash());
    }

    fn copy(orig_seq: u64) -> SlotOp {
        SlotOp::Copy(CopyInstr {
            pairs: RenamePairs::new(),
            tag: 0,
            ls_order: None,
            cross: false,
            orig_seq,
        })
    }

    /// The slots holding ops, and the ops' `orig_seq` in storage order.
    fn shape(li: &LongInstr) -> (Vec<usize>, Vec<u64>) {
        let held = li
            .slots()
            .enumerate()
            .filter_map(|(s, o)| o.map(|_| s))
            .collect();
        let seqs = li
            .ops()
            .iter()
            .map(|o| match o {
                SlotOp::Copy(c) => c.orig_seq,
                SlotOp::Instr(_) => unreachable!(),
            })
            .collect();
        (held, seqs)
    }

    fn check_invariant(li: &LongInstr) {
        assert_eq!(li.occupied.count_ones() as usize, li.ops().len());
        assert_eq!(li.len(), li.ops().len());
        assert_eq!(li.slots().count(), li.width());
        // Ops are stored in slot order: each op's `orig_seq` is its slot.
        let (held, seqs) = shape(li);
        assert_eq!(held.iter().map(|&s| s as u64).collect::<Vec<_>>(), seqs);
    }

    #[test]
    fn set_take_get_keep_slot_order() {
        let mut li = LongInstr::empty(64);
        assert!(li.is_empty());
        // Out-of-order placement, including both ends of a 64-wide row.
        for slot in [40, 3, 63, 0, 17, 41] {
            assert!(li.set(slot, copy(slot as u64)).is_none());
            check_invariant(&li);
        }
        assert_eq!(shape(&li).0, [0, 3, 17, 40, 41, 63]);
        assert!(matches!(li.get(17), Some(SlotOp::Copy(c)) if c.orig_seq == 17));
        assert!(li.get(16).is_none() && li.get(64).is_none());
        // Overwriting returns the old op and keeps the count.
        let old = li.set(40, copy(40)).unwrap();
        assert!(matches!(old, SlotOp::Copy(c) if c.orig_seq == 40));
        assert_eq!(li.len(), 6);
        check_invariant(&li);
        // Taking from the middle, the ends and an empty slot.
        for slot in [17, 63, 0, 5] {
            let was = li.get(slot).is_some();
            assert_eq!(li.take(slot).is_some(), was);
            assert!(li.get(slot).is_none());
            check_invariant(&li);
        }
        assert_eq!(shape(&li).0, [3, 40, 41]);
        if let Some(SlotOp::Copy(c)) = li.get_mut(41) {
            c.tag = 2;
        }
        assert_eq!(li.get(41).unwrap().tag(), 2);
        assert!(li.get_mut(42).is_none() && li.get_mut(64).is_none());
        for slot in [3, 40, 41] {
            li.take(slot);
        }
        assert!(li.is_empty());
        check_invariant(&li);
    }

    #[test]
    #[should_panic(expected = "beyond width")]
    fn set_beyond_width_panics() {
        LongInstr::empty(4).set(4, copy(4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn constructor_checks_mask_against_ops() {
        LongInstr::new(8, 0b101, vec![copy(0)]);
    }
}
