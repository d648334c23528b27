//! The VLIW Cache: one block of long instructions per line (paper §3.4).

use crate::decoded::{decode_block_into, DecodeArena, DecodedLine};
use crate::engine::EngineError;
use dtsvliw_json::{FromJson, Json, ToJson};
use dtsvliw_sched::snapshot::{block_from_json, block_to_json};
use dtsvliw_sched::Block;
use std::sync::Arc;

/// VLIW Cache geometry. Sizing follows the paper: a line stores `width ×
/// height` decoded slots of 6 bytes each (Table 1's decoded instruction
/// size), so a 192-Kbyte cache for an 8×8 block has 512 lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VliwCacheConfig {
    /// Total capacity in bytes; `u32::MAX` is the "unlimited" cache used
    /// by unit tests.
    pub size_bytes: u32,
    /// Associativity; lines/ways sets.
    pub ways: u32,
    /// Block geometry (must match the Scheduler Unit's).
    pub width: u32,
    /// Block geometry (must match the Scheduler Unit's).
    pub height: u32,
}

/// Bytes per decoded instruction slot (paper Table 1).
pub const DECODED_INSTR_BYTES: u32 = 6;

impl VliwCacheConfig {
    /// A cache of `size_kb` Kbytes for `width`×`height` blocks.
    pub fn kb(size_kb: u32, ways: u32, width: u32, height: u32) -> Self {
        VliwCacheConfig {
            size_bytes: size_kb * 1024,
            ways,
            width,
            height,
        }
    }

    /// Bytes one line occupies.
    pub fn line_bytes(&self) -> u32 {
        self.width * self.height * DECODED_INSTR_BYTES
    }

    /// Total lines (blocks) the cache can hold.
    pub fn lines(&self) -> u32 {
        (self.size_bytes / self.line_bytes()).max(self.ways)
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        (self.lines() / self.ways).max(1)
    }

    /// Could the Scheduler Unit of this geometry have sealed `block`:
    /// are its rows `width` slots wide, and at most `height` of them?
    pub fn fits(&self, block: &Block) -> bool {
        block.lis.len() <= self.height as usize
            && block.lis.iter().all(|li| li.width() == self.width as usize)
    }
}

/// Hit/miss/insert counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VliwCacheStats {
    /// Probes that found a matching valid block.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Blocks written by the Scheduler Unit.
    pub inserts: u64,
    /// Valid blocks evicted by replacement (the premature-flushing cost
    /// Figure 6 studies).
    pub evictions: u64,
    /// Blocks invalidated after aliasing exceptions.
    pub invalidations: u64,
}

/// Machine snapshots read the [`ToJson`] form back.
impl FromJson for VliwCacheStats {
    fn from_json(j: &Json) -> Option<Self> {
        Some(VliwCacheStats {
            hits: j.field("hits")?,
            misses: j.field("misses")?,
            inserts: j.field("inserts")?,
            evictions: j.field("evictions")?,
            invalidations: j.field("invalidations")?,
        })
    }
}

impl ToJson for VliwCacheStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::U64(self.hits)),
            ("misses", Json::U64(self.misses)),
            ("inserts", Json::U64(self.inserts)),
            ("evictions", Json::U64(self.evictions)),
            ("invalidations", Json::U64(self.invalidations)),
        ])
    }
}

/// A valid block displaced from the cache — what the machine needs to
/// report the eviction (trace event + residence-lifetime histogram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// Tag address of the displaced block.
    pub tag_addr: u32,
    /// Window pointer at the displaced block's entry (the other half of
    /// the cache key; per-block profiling is keyed on it).
    pub entry_cwp: u8,
    /// Machine cycle the block was installed on (as passed to
    /// [`VliwCache::insert_at`]; 0 for blocks installed via the
    /// cycle-oblivious [`VliwCache::insert`]).
    pub installed_cycle: u64,
}

#[derive(Debug, Clone, Default)]
struct Line {
    block: Option<Arc<Block>>,
    /// The block lowered to its flat execution form — produced by the
    /// first [`VliwCache::lookup_decoded`] that hits the line, dropped
    /// (and its buffers recycled) whenever the stored block changes or
    /// leaves. Most blocks under heavy premature flushing are evicted
    /// before they are ever entered, so install never lowers. Never
    /// serialised: it is derived state.
    decoded: Option<Arc<DecodedLine>>,
    lru: u64,
    installed_cycle: u64,
    /// `Block::content_hash` recorded at install time when integrity
    /// checking is on; 0 otherwise. Deliberately *not* refreshed by
    /// [`VliwCache::with_block_mut`]: a checksum recorded at install
    /// detects exactly the in-SRAM decay that helper models.
    checksum: u64,
}

/// The VLIW Cache.
#[derive(Debug, Clone)]
pub struct VliwCache {
    config: VliwCacheConfig,
    lines: Vec<Line>,
    tick: u64,
    stats: VliwCacheStats,
    integrity: bool,
    /// Shell pool for [`Line::decoded`] slot arrays.
    arena: DecodeArena,
}

impl VliwCache {
    /// An empty cache.
    pub fn new(config: VliwCacheConfig) -> Self {
        let n = (config.sets() * config.ways) as usize;
        VliwCache {
            config,
            lines: vec![Line::default(); n],
            tick: 0,
            stats: VliwCacheStats::default(),
            integrity: false,
            arena: DecodeArena::default(),
        }
    }

    /// Record content checksums at install time so [`VliwCache::verify_block`]
    /// can detect lines that rotted in place. Off by default: hashing
    /// every installed block is pure overhead for fault-free runs.
    pub fn set_integrity(&mut self, on: bool) {
        self.integrity = on;
    }

    /// The configuration.
    pub fn config(&self) -> VliwCacheConfig {
        self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> VliwCacheStats {
        self.stats
    }

    fn set_of(&self, addr: u32) -> usize {
        ((addr >> 2) % self.config.sets()) as usize
    }

    fn set_range(&self, addr: u32) -> std::ops::Range<usize> {
        let ways = self.config.ways as usize;
        let set = self.set_of(addr);
        set * ways..(set + 1) * ways
    }

    /// The line holding the block tagged `addr` for entry window `cwp`,
    /// and that block. At most one valid line matches:
    /// [`VliwCache::insert_at`] replaces a same-key block in place and a
    /// restore refuses two.
    fn find(&self, addr: u32, cwp: u8) -> Option<(usize, &Arc<Block>)> {
        let range = self.set_range(addr);
        let first = range.start;
        self.lines[range].iter().enumerate().find_map(|(i, l)| {
            let b = l.block.as_ref()?;
            (b.tag_addr == addr && b.entry_cwp == cwp).then_some((first + i, b))
        })
    }

    /// [`VliwCache::find`], when the block can be entered with `resident`
    /// windows resident: blocks containing `save`/`restore` also require
    /// the count they were scheduled with (see `Block::entry_cwp`).
    fn find_enterable(&self, addr: u32, cwp: u8, resident: u8) -> Option<(usize, &Arc<Block>)> {
        self.find(addr, cwp)
            .filter(|(_, b)| !b.window_sensitive || b.entry_resident == resident)
    }

    /// Probe for a block to enter at `addr` and return it with its
    /// pre-decoded execution form. A hit requires the current window
    /// pointer to match the block's entry window and, for
    /// window-sensitive blocks, the resident-window count too. This is
    /// the only place a line is lowered: on its first decoded hit after
    /// install, after an in-place mutation, or after a snapshot restore.
    pub fn lookup_decoded(
        &mut self,
        addr: u32,
        cwp: u8,
        resident: u8,
    ) -> Option<(Arc<Block>, Arc<DecodedLine>)> {
        self.tick += 1;
        let Some((i, block)) = self.find_enterable(addr, cwp, resident) else {
            self.stats.misses += 1;
            return None;
        };
        let block = Arc::clone(block);
        self.stats.hits += 1;
        let line = &mut self.lines[i];
        line.lru = self.tick;
        let arena = &mut self.arena;
        let decoded = line
            .decoded
            .get_or_insert_with(|| Arc::new(decode_block_into(&block, arena.take_shell())));
        Some((block, Arc::clone(decoded)))
    }

    /// [`VliwCache::lookup_decoded`]'s hit test without updating
    /// statistics or LRU (the Fetch Unit's speculative probe of the
    /// execute-stage address would pollute the counters otherwise).
    pub fn peek(&self, addr: u32, cwp: u8, resident: u8) -> bool {
        self.find_enterable(addr, cwp, resident).is_some()
    }

    /// Insert a block sealed by the Scheduler Unit, evicting LRU.
    pub fn insert(&mut self, block: Block) -> Result<(), EngineError> {
        self.insert_at(block, 0).map(|_| ())
    }

    /// Like [`VliwCache::insert`], recording the current machine cycle
    /// as the block's install time. Returns the valid block replacement
    /// displaced, if any (a same-tag reinstall supersedes in place and
    /// reports nothing, matching the `evictions` counter). Fails only
    /// when the cache was built with no lines.
    pub fn insert_at(
        &mut self,
        block: Block,
        now: u64,
    ) -> Result<Option<EvictedBlock>, EngineError> {
        self.tick += 1;
        // Replace an existing block with the same tag/window first so a
        // rescheduled trace supersedes the stale one; otherwise take the
        // set's first empty line, else its least recently used one.
        let (i, evicted) = match self.find(block.tag_addr, block.entry_cwp) {
            Some((i, _)) => (i, None),
            None => {
                let lines = &self.lines;
                let i = self
                    .set_range(block.tag_addr)
                    .min_by_key(|&i| lines[i].block.as_ref().map_or(0, |_| lines[i].lru))
                    .ok_or(EngineError::NoCacheLines)?;
                let evicted = lines[i].block.as_ref().map(|b| EvictedBlock {
                    tag_addr: b.tag_addr,
                    entry_cwp: b.entry_cwp,
                    installed_cycle: lines[i].installed_cycle,
                });
                (i, evicted)
            }
        };
        let victim = &mut self.lines[i];
        victim.checksum = if self.integrity {
            block.content_hash()
        } else {
            0
        };
        // The new block is lowered on its first decoded lookup; keep the
        // displaced line's slot arrays for that.
        if let Some(d) = victim.decoded.take() {
            self.arena.recycle(d);
        }
        victim.block = Some(Arc::new(block));
        victim.lru = self.tick;
        victim.installed_cycle = now;
        self.stats.evictions += evicted.is_some() as u64;
        self.stats.inserts += 1;
        Ok(evicted)
    }

    /// Invalidate the block tagged `addr` at window `cwp` (aliasing
    /// exception recovery, §3.11, and quarantine) and return it.
    pub fn invalidate_at(&mut self, addr: u32, cwp: u8) -> Option<EvictedBlock> {
        let (i, _) = self.find(addr, cwp)?;
        let line = &mut self.lines[i];
        line.block = None;
        if let Some(d) = line.decoded.take() {
            self.arena.recycle(d);
        }
        self.stats.invalidations += 1;
        Some(EvictedBlock {
            tag_addr: addr,
            entry_cwp: cwp,
            installed_cycle: line.installed_cycle,
        })
    }

    /// Mutate the resident block tagged `addr`/`cwp` in place — the
    /// fault layer's window into the cache SRAM. Copy-on-write via
    /// [`Arc::make_mut`], so outstanding clones of the line (a block the
    /// VLIW Engine is already executing) keep their original content,
    /// exactly like a latched instruction surviving an upset in the
    /// array behind it. The install-time checksum is *not* refreshed.
    /// Returns the closure's result, or `None` on a miss.
    pub fn with_block_mut<R>(
        &mut self,
        addr: u32,
        cwp: u8,
        f: impl FnOnce(&mut Block) -> R,
    ) -> Option<R> {
        let (i, _) = self.find(addr, cwp)?;
        let Line { block, decoded, .. } = &mut self.lines[i];
        // The stored block is about to change: the decoded form no
        // longer describes it, so drop it here and re-lower on the next
        // decoded lookup. An engine mid-block keeps its own clone of the
        // old pair, so its view stays self-consistent.
        if let Some(d) = decoded.take() {
            self.arena.recycle(d);
        }
        block.as_mut().map(|b| f(Arc::make_mut(b)))
    }

    /// Does the resident block tagged `addr`/`cwp` still match its
    /// install-time checksum? `true` on a miss or when integrity
    /// recording is off (nothing to compare against).
    pub fn verify_block(&self, addr: u32, cwp: u8) -> bool {
        if !self.integrity {
            return true;
        }
        self.find(addr, cwp)
            .is_none_or(|(i, b)| b.content_hash() == self.lines[i].checksum)
    }

    /// Number of valid blocks resident.
    pub fn resident_blocks(&self) -> usize {
        self.lines.iter().filter(|l| l.block.is_some()).count()
    }

    /// Serialise the exact mutable state — every line's resident block
    /// (content, nba, branch tags, order/cross bits and all), LRU stamp,
    /// install cycle and integrity checksum, the LRU tick, the counters,
    /// and the integrity flag — so a restored machine resumes with the
    /// same resident blocks and the same future replacement decisions.
    pub fn snapshot_json(&self) -> Json {
        let lines = self
            .lines
            .iter()
            .map(|l| {
                Json::obj([
                    (
                        "block",
                        l.block.as_deref().map_or(Json::Null, block_to_json),
                    ),
                    ("lru", Json::U64(l.lru)),
                    ("installed", Json::U64(l.installed_cycle)),
                    ("checksum", Json::U64(l.checksum)),
                ])
            })
            .collect();
        Json::obj([
            ("lines", Json::Arr(lines)),
            ("tick", Json::U64(self.tick)),
            ("integrity", Json::Bool(self.integrity)),
            ("stats", self.stats.to_json()),
        ])
    }

    /// Rebuild from [`VliwCache::snapshot_json`] output and the geometry
    /// the cache ran with; `None` on structural mismatch (including a
    /// line count that does not match the geometry, a malformed block,
    /// a block stored outside the set its tag maps to, a second block
    /// with an earlier one's tag and entry window, and a block no
    /// Scheduler Unit of this geometry could seal: rows other than
    /// `width` slots wide, or more than `height` of them).
    pub fn from_snapshot_json(config: VliwCacheConfig, j: &Json) -> Option<VliwCache> {
        let mut c = VliwCache::new(config);
        let lines = j.get("lines")?.as_arr()?;
        if lines.len() != c.lines.len() {
            return None;
        }
        let ways = config.ways as usize;
        for (i, lj) in lines.iter().enumerate() {
            let block = match lj.get("block")? {
                Json::Null => None,
                bj => Some(Arc::new(block_from_json(bj)?)),
            };
            if block.as_ref().is_some_and(|b| {
                c.set_of(b.tag_addr) != i / ways
                    || !config.fits(b)
                    || c.find(b.tag_addr, b.entry_cwp).is_some()
            }) {
                return None;
            }
            let slot = &mut c.lines[i];
            slot.block = block;
            slot.lru = lj.field("lru")?;
            slot.installed_cycle = lj.field("installed")?;
            slot.checksum = lj.field("checksum")?;
        }
        c.tick = j.field("tick")?;
        c.integrity = j.field("integrity")?;
        c.stats = j.field("stats")?;
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_isa::Resource;
    use dtsvliw_sched::block::RenameCounts;
    use dtsvliw_sched::{CopyInstr, LongInstr, SlotOp};

    fn block(tag: u32, cwp: u8) -> Block {
        Block {
            tag_addr: tag,
            entry_cwp: cwp,
            entry_resident: 1,
            window_sensitive: false,
            lis: vec![LongInstr::empty(4)],
            nba_addr: tag + 16,
            renames: RenameCounts::default(),
            first_seq: 0,
            trace_len: 4,
        }
    }

    fn cache(kb: u32, ways: u32) -> VliwCache {
        VliwCache::new(VliwCacheConfig::kb(kb, ways, 4, 4))
    }

    #[test]
    fn sizing_matches_paper() {
        // 192 KB, 8x8 blocks, 6-byte slots: 512 lines.
        let c = VliwCacheConfig::kb(192, 4, 8, 8);
        assert_eq!(c.line_bytes(), 384);
        assert_eq!(c.lines(), 512);
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn hit_requires_tag_and_window() {
        let mut c = cache(3072, 4);
        c.insert(block(0x1000, 2)).unwrap();
        assert!(c.lookup_decoded(0x1000, 2, 1).is_some());
        assert!(c.lookup_decoded(0x1000, 3, 1).is_none(), "wrong window");
        assert!(c.lookup_decoded(0x1004, 2, 1).is_none(), "wrong tag");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn window_sensitive_blocks_check_resident() {
        let mut c = cache(3072, 4);
        let mut b = block(0x2000, 0);
        b.window_sensitive = true;
        b.entry_resident = 3;
        c.insert(b).unwrap();
        assert!(c.lookup_decoded(0x2000, 0, 3).is_some());
        assert!(c.lookup_decoded(0x2000, 0, 4).is_none());
    }

    #[test]
    fn probes_agree_on_a_window_sensitive_block() {
        let mut c = cache(3072, 4);
        c.set_integrity(true);
        let mut b = block(0x2000, 1);
        b.window_sensitive = true;
        b.entry_resident = 3;
        c.insert(b).unwrap();
        // The entry probes check the resident count: both hit with the
        // count the block was scheduled with...
        assert!(c.peek(0x2000, 1, 3));
        assert!(c.lookup_decoded(0x2000, 1, 3).is_some());
        // ...and both miss with another count, or another window.
        assert!(!c.peek(0x2000, 1, 4));
        assert!(c.lookup_decoded(0x2000, 1, 4).is_none());
        assert!(!c.peek(0x2000, 0, 3));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
        // The line probes match on tag and window only: they find the
        // line whatever the resident count.
        assert!(c.verify_block(0x2000, 1));
        assert_eq!(c.with_block_mut(0x2000, 1, |b| b.entry_resident), Some(3));
        c.with_block_mut(0x2000, 1, |b| b.nba_addr ^= 4);
        assert!(!c.verify_block(0x2000, 1), "the mutated line was found");
        assert!(c.with_block_mut(0x2000, 0, |_| ()).is_none());
        assert!(c.invalidate_at(0x2000, 0).is_none());
        let gone = c.invalidate_at(0x2000, 1).unwrap();
        assert_eq!((gone.tag_addr, gone.entry_cwp), (0x2000, 1));
        assert!(!c.peek(0x2000, 1, 3));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn reinsert_replaces_same_tag() {
        let mut c = cache(3072, 4);
        c.insert(block(0x1000, 0)).unwrap();
        let mut b2 = block(0x1000, 0);
        b2.nba_addr = 0x9999;
        c.insert(b2).unwrap();
        assert_eq!(c.resident_blocks(), 1, "same tag replaced, not duplicated");
        assert_eq!(c.lookup_decoded(0x1000, 0, 1).unwrap().0.nba_addr, 0x9999);
    }

    #[test]
    fn lru_eviction_in_set() {
        // Tiny direct-ish cache: force conflict evictions.
        let mut c = VliwCache::new(VliwCacheConfig {
            size_bytes: 2 * 96,
            ways: 2,
            width: 4,
            height: 4,
        });
        assert_eq!(c.config().sets(), 1);
        c.insert(block(0x1000, 0)).unwrap();
        c.insert(block(0x2000, 0)).unwrap();
        c.lookup_decoded(0x1000, 0, 1).unwrap(); // touch 0x1000
        c.insert(block(0x3000, 0)).unwrap(); // evicts 0x2000
        assert!(c.lookup_decoded(0x2000, 0, 1).is_none());
        assert!(c.lookup_decoded(0x1000, 0, 1).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = cache(3072, 4);
        c.insert(block(0x1000, 0)).unwrap();
        assert!(c.invalidate_at(0x1000, 0).is_some());
        assert!(!c.peek(0x1000, 0, 1));
        assert!(c.lookup_decoded(0x1000, 0, 1).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn insert_at_reports_evicted_lifetime() {
        let mut c = VliwCache::new(VliwCacheConfig {
            size_bytes: 2 * 96,
            ways: 2,
            width: 4,
            height: 4,
        });
        assert!(c.insert_at(block(0x1000, 0), 10).unwrap().is_none());
        assert!(c.insert_at(block(0x2000, 0), 20).unwrap().is_none());
        c.lookup_decoded(0x1000, 0, 1).unwrap(); // touch 0x1000 so 0x2000 is LRU
        let ev = c.insert_at(block(0x3000, 0), 50).unwrap().unwrap();
        assert_eq!(ev.tag_addr, 0x2000);
        assert_eq!(ev.installed_cycle, 20);
        // Same-tag reinstall supersedes in place: nothing reported.
        assert!(c.insert_at(block(0x3000, 0), 60).unwrap().is_none());
        // Invalidation reports the displaced block too.
        let gone = c.invalidate_at(0x1000, 0).unwrap();
        assert_eq!(gone.installed_cycle, 10);
        assert!(c.invalidate_at(0x1000, 0).is_none());
    }

    #[test]
    fn integrity_detects_in_place_mutation() {
        let mut c = cache(3072, 4);
        c.set_integrity(true);
        c.insert(block(0x1000, 0)).unwrap();
        assert!(c.verify_block(0x1000, 0), "clean line verifies");
        // The executing engine's clone keeps the original content...
        let (held, _) = c.lookup_decoded(0x1000, 0, 1).unwrap();
        let touched = c.with_block_mut(0x1000, 0, |b| {
            b.nba_addr ^= 4;
            b.nba_addr
        });
        assert_eq!(touched, Some((0x1000 + 16) ^ 4));
        assert_eq!(held.nba_addr, 0x1000 + 16, "outstanding clone untouched");
        // ...while the resident line no longer matches its checksum.
        assert!(!c.verify_block(0x1000, 0));
        assert!(c.verify_block(0x5000, 0), "miss verifies vacuously");
        // A fresh install re-records the checksum.
        c.insert(block(0x1000, 0)).unwrap();
        assert!(c.verify_block(0x1000, 0));
        // With recording off, mutations go unnoticed (the fault-free
        // fast path).
        let mut off = cache(3072, 4);
        off.insert(block(0x2000, 0)).unwrap();
        off.with_block_mut(0x2000, 0, |b| b.nba_addr ^= 4);
        assert!(off.verify_block(0x2000, 0));
    }

    #[test]
    fn snapshot_round_trip_preserves_blocks_and_lru() {
        let mut a = VliwCache::new(VliwCacheConfig {
            size_bytes: 2 * 96,
            ways: 2,
            width: 4,
            height: 4,
        });
        a.set_integrity(true);
        a.insert_at(block(0x1000, 0), 10).unwrap();
        a.insert_at(block(0x2000, 0), 20).unwrap();
        a.lookup_decoded(0x1000, 0, 1).unwrap(); // make 0x2000 the LRU victim
        let j = a.snapshot_json().to_string();
        let mut b = VliwCache::from_snapshot_json(a.config(), &Json::parse(&j).unwrap()).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.resident_blocks(), b.resident_blocks());
        assert_eq!(
            a.lookup_decoded(0x2000, 0, 1).unwrap().0.content_hash(),
            b.lookup_decoded(0x2000, 0, 1).unwrap().0.content_hash()
        );
        assert!(b.verify_block(0x1000, 0), "checksums survive the trip");
        // Same future replacement decision.
        let ea = a.insert_at(block(0x3000, 0), 50).unwrap().unwrap();
        let eb = b.insert_at(block(0x3000, 0), 50).unwrap().unwrap();
        assert_eq!(ea, eb);
        // Wrong geometry is rejected, as is structural damage.
        assert!(VliwCache::from_snapshot_json(
            VliwCacheConfig::kb(3072, 4, 4, 4),
            &Json::parse(&j).unwrap()
        )
        .is_none());
        assert!(VliwCache::from_snapshot_json(a.config(), &Json::parse("{}").unwrap()).is_none());
    }

    #[test]
    fn decoded_lookup_tracks_the_stored_block() {
        use crate::decoded::decode_block;
        let mut c = cache(3072, 4);
        c.insert(block(0x1000, 0)).unwrap();
        // The first decoded probe lowers the line and counts a hit.
        let (b, d) = c.lookup_decoded(0x1000, 0, 1).unwrap();
        assert_eq!(*d, decode_block(&b));
        assert!(c.lookup_decoded(0x1000, 3, 1).is_none(), "wrong window");
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
        // In-place mutation drops the stale decoded form; the next probe
        // re-lowers the mutated block, while the engine's clone keeps
        // the form it entered with.
        c.with_block_mut(0x1000, 0, |b| {
            b.lis[0].set(
                1,
                SlotOp::Copy(CopyInstr {
                    pairs: [(Resource::IntRen(0), Resource::Int(9))]
                        .into_iter()
                        .collect(),
                    tag: 0,
                    ls_order: None,
                    cross: false,
                    orig_seq: 0,
                }),
            )
        });
        let (b2, d2) = c.lookup_decoded(0x1000, 0, 1).unwrap();
        assert_eq!(*d2, decode_block(&b2));
        assert_eq!((d.rows[0].occupancy, d2.rows[0].occupancy), (0, 1));
        // A snapshot round trip never carries decoded state; the
        // restored cache lowers the line again on first decoded probe.
        let j = c.snapshot_json().to_string();
        let mut r = VliwCache::from_snapshot_json(c.config(), &Json::parse(&j).unwrap()).unwrap();
        let (b3, d3) = r.lookup_decoded(0x1000, 0, 1).unwrap();
        assert_eq!(b3.content_hash(), b2.content_hash());
        assert_eq!(*d3, *d2);
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = cache(3072, 4);
        c.insert(block(0x1000, 0)).unwrap();
        assert!(c.peek(0x1000, 0, 1));
        assert!(!c.peek(0x1000, 1, 1));
        assert_eq!(c.stats().hits + c.stats().misses, 0);
    }

    /// A one-set, one-way cache: every install evicts the last block.
    fn one_line() -> VliwCache {
        VliwCache::new(VliwCacheConfig {
            size_bytes: 96,
            ways: 1,
            width: 4,
            height: 4,
        })
    }

    #[test]
    fn install_leaves_lowering_to_the_first_decoded_lookup() {
        let mut c = one_line();
        c.insert_at(block(0x1000, 0), 5).unwrap();
        assert!(c.lines[0].decoded.is_none(), "install does not lower");
        // The Fetch Unit's probe does not lower either; only the
        // engine's lookup does.
        assert!(c.peek(0x1000, 0, 1));
        assert!(c.lines[0].decoded.is_none());
        let (b, d) = c.lookup_decoded(0x1000, 0, 1).unwrap();
        assert_eq!(*d, crate::decoded::decode_block(&b));
        let held = c.lines[0].decoded.as_ref().unwrap();
        assert!(Arc::ptr_eq(held, &d), "the line keeps the lowered form");
        // Later entries reuse it.
        let (_, again) = c.lookup_decoded(0x1000, 0, 1).unwrap();
        assert!(Arc::ptr_eq(&again, &d));
    }

    #[test]
    fn block_evicted_before_entry_is_never_lowered() {
        let mut c = one_line();
        c.insert_at(block(0x1000, 0), 1).unwrap();
        let ev = c.insert_at(block(0x2000, 0), 2).unwrap().unwrap();
        assert_eq!(ev.tag_addr, 0x1000);
        assert!(c.lines[0].decoded.is_none());
        assert_eq!(c.arena.spare_shells(), 0, "nothing was lowered to recycle");
        // An entered block is lowered once; evicting it returns the
        // shell for the next line to reuse.
        drop(c.lookup_decoded(0x2000, 0, 1).unwrap());
        c.insert_at(block(0x3000, 0), 3).unwrap();
        assert_eq!(c.arena.spare_shells(), 1);
        assert!(c.lines[0].decoded.is_none());
    }

    /// A two-set snapshot with block 0x1000 resident, as text.
    fn two_set_snapshot() -> (VliwCacheConfig, String) {
        let config = VliwCacheConfig {
            size_bytes: 2 * 96,
            ways: 1,
            width: 4,
            height: 4,
        };
        let mut c = VliwCache::new(config);
        assert_eq!(config.sets(), 2);
        c.insert(block(0x1000, 0)).unwrap();
        assert_eq!(c.set_of(0x1000), 0);
        (config, c.snapshot_json().to_string())
    }

    fn restore(config: VliwCacheConfig, text: &str) -> Option<VliwCache> {
        VliwCache::from_snapshot_json(config, &Json::parse(text).unwrap())
    }

    /// `text` with `from` replaced by `to` exactly once.
    fn edit(text: &str, from: &str, to: &str) -> String {
        assert_eq!(text.matches(from).count(), 1, "{from} not found once");
        text.replacen(from, to, 1)
    }

    const ROW: &str = "\"lis\":[[null,null,null,null]]";

    #[test]
    fn restore_rejects_rows_of_unequal_or_excess_width() {
        let (config, text) = two_set_snapshot();
        assert!(
            restore(config, &text).is_some(),
            "the unedited document restores"
        );
        let ragged = edit(&text, ROW, "\"lis\":[[null,null,null,null],[null,null]]");
        assert!(restore(config, &ragged).is_none());
        let wide = format!("\"lis\":[[{}]]", vec!["null"; 65].join(","));
        assert!(restore(config, &edit(&text, ROW, &wide)).is_none());
    }

    #[test]
    fn restore_rejects_a_block_of_another_geometry() {
        let (config, text) = two_set_snapshot();
        let rows = |n: usize, width: usize| {
            let row = format!("[{}]", vec!["null"; width].join(","));
            format!("\"lis\":[{}]", vec![row; n].join(","))
        };
        // `height` rows of `width` slots fit the 4x4 cache.
        assert!(restore(config, &edit(&text, ROW, &rows(4, 4))).is_some());
        // 9-slot rows, or 9 long instructions, do not.
        assert!(restore(config, &edit(&text, ROW, &rows(1, 9))).is_none());
        assert!(restore(config, &edit(&text, ROW, &rows(9, 4))).is_none());
        assert!(restore(config, &edit(&text, ROW, &rows(5, 4))).is_none());
    }

    #[test]
    fn restore_rejects_a_block_without_long_instructions() {
        let (config, text) = two_set_snapshot();
        assert!(restore(config, &edit(&text, ROW, "\"lis\":[]")).is_none());
    }

    #[test]
    fn restore_rejects_two_blocks_with_one_key() {
        // One set of two ways holding the same tag at two windows.
        let config = VliwCacheConfig {
            size_bytes: 2 * 96,
            ways: 2,
            width: 4,
            height: 4,
        };
        let mut c = VliwCache::new(config);
        c.insert(block(0x1000, 0)).unwrap();
        c.insert(block(0x1000, 1)).unwrap();
        let text = c.snapshot_json().to_string();
        assert!(restore(config, &text).is_some());
        // Both at window 0: every probe would see only the first.
        let dup = edit(&text, "\"entry_cwp\":1", "\"entry_cwp\":0");
        assert!(restore(config, &dup).is_none());
    }

    #[test]
    fn restore_rejects_a_block_outside_its_set() {
        let (config, text) = two_set_snapshot();
        // Swap the two lines: the block now sits in set 1.
        let j = Json::parse(&text).unwrap();
        let lines = j.get("lines").unwrap().as_arr().unwrap();
        let (l0, l1) = (lines[0].to_string(), lines[1].to_string());
        let swapped = edit(&text, &format!("[{l0},{l1}]"), &format!("[{l1},{l0}]"));
        assert!(restore(config, &swapped).is_none());
    }
}
