//! Set-associative LRU cache timing model.
//!
//! Contents always live in [`crate::Memory`]; this model only answers
//! "would this access have hit?" so the machine can charge miss
//! penalties, exactly like the paper's simulator does for the 32-Kbyte
//! instruction and data caches of the feasible configuration (§4.4).

use dtsvliw_json::{FromJson, Json, ToJson};

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set); 1 = direct mapped.
    pub ways: u32,
    /// Cycles added on a miss.
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// A cache that always hits (the paper's "perfect cache" baseline).
    pub fn perfect() -> Self {
        CacheConfig {
            size_bytes: 0,
            line_bytes: 32,
            ways: 1,
            miss_penalty: 0,
        }
    }

    /// The feasible machine's instruction cache: 32 KB, 4-way, 1-cycle
    /// access, 8-cycle miss (paper §4.4). Line size is not stated; we use
    /// 32 bytes.
    pub fn paper_icache() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 32,
            ways: 4,
            miss_penalty: 8,
        }
    }

    /// The feasible machine's data cache: 32 KB direct-mapped, 8-cycle
    /// miss (paper §4.4).
    pub fn paper_dcache() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 32,
            ways: 1,
            miss_penalty: 8,
        }
    }

    /// The DIF-comparison caches: 4 KB (paper §4.5), 2-cycle miss.
    pub fn dif_icache() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 128,
            ways: 2,
            miss_penalty: 2,
        }
    }

    /// DIF-comparison data cache: 4 KB direct-mapped, 32-byte lines.
    pub fn dif_dcache() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 32,
            ways: 1,
            miss_penalty: 2,
        }
    }

    /// Number of sets implied by the geometry (0 for a perfect cache).
    pub fn sets(&self) -> u32 {
        if self.size_bytes == 0 {
            0
        } else {
            (self.size_bytes / self.line_bytes / self.ways).max(1)
        }
    }
}

/// Hit/miss counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::U64(self.hits)),
            ("misses", Json::U64(self.misses)),
        ])
    }
}

/// Machine snapshots read the [`ToJson`] form back.
impl FromJson for CacheStats {
    fn from_json(j: &Json) -> Option<Self> {
        Some(CacheStats {
            hits: j.field("hits")?,
            misses: j.field("misses")?,
        })
    }
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in [0, 1]; 0 when never accessed.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// A set-associative LRU cache (timing only).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u32,
}

impl Cache {
    /// Build from a configuration. `CacheConfig::perfect()` yields a
    /// cache that hits on every access.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            config.size_bytes == 0 || config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            config.size_bytes == 0 || sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Cache {
            config,
            lines: vec![Line::default(); (sets * config.ways) as usize],
            tick: 0,
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets.saturating_sub(1),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access `addr`; returns `true` on hit. Misses allocate (the model
    /// is write-allocate for stores too, matching a write-back cache).
    pub fn access(&mut self, addr: u32) -> bool {
        if self.config.size_bytes == 0 {
            self.stats.hits += 1;
            return true;
        }
        self.tick += 1;
        let block = addr >> self.line_shift;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_mask.count_ones();
        let ways = self.config.ways as usize;
        let set_lines = &mut self.lines[set * ways..(set + 1) * ways];
        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            self.stats.hits += 1;
            return true;
        }
        // Miss: fill the LRU way.
        let victim = set_lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .unwrap();
        victim.valid = true;
        victim.tag = tag;
        victim.lru = self.tick;
        self.stats.misses += 1;
        false
    }

    /// Cycles this access costs beyond the base cycle: 0 on hit,
    /// `miss_penalty` on miss.
    pub fn access_cost(&mut self, addr: u32) -> u32 {
        if self.access(addr) {
            0
        } else {
            self.config.miss_penalty
        }
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all contents (keep statistics).
    pub fn invalidate_all(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
    }

    /// Serialise the exact mutable state — every line's tag/valid/LRU
    /// stamp, the LRU tick and the counters — so a restored run replays
    /// the same hit/miss sequence cycle for cycle.
    pub fn snapshot_json(&self) -> Json {
        let lines = self.lines.iter().map(|l| (l.tag, l.valid, l.lru).to_json());
        Json::obj([
            ("lines", Json::arr(lines)),
            ("tick", Json::U64(self.tick)),
            ("stats", self.stats.to_json()),
        ])
    }

    /// Rebuild from [`Cache::snapshot_json`] output and the geometry the
    /// cache ran with; `None` on structural mismatch (including a line
    /// count that does not match the geometry).
    pub fn from_snapshot_json(config: CacheConfig, j: &Json) -> Option<Cache> {
        let mut c = Cache::new(config);
        let lines: Vec<(u32, bool, u64)> = j.field("lines")?;
        if lines.len() != c.lines.len() {
            return None;
        }
        for (slot, (tag, valid, lru)) in c.lines.iter_mut().zip(lines) {
            *slot = Line { tag, valid, lru };
        }
        c.tick = j.field("tick")?;
        c.stats = j.field("stats")?;
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16-byte lines = 128 bytes
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            ways: 2,
            miss_penalty: 10,
        })
    }

    #[test]
    fn perfect_always_hits() {
        let mut c = Cache::new(CacheConfig::perfect());
        for a in (0..100_000u32).step_by(4097) {
            assert!(c.access(a));
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x10f), "same line");
        assert!(!c.access(0x110), "next line");
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three blocks mapping to set 0 (stride = sets * line = 64).
        c.access(0x000);
        c.access(0x040);
        assert!(c.access(0x000), "both ways resident");
        c.access(0x080); // evicts 0x040 (LRU)
        assert!(c.access(0x000));
        assert!(!c.access(0x040), "was evicted");
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 8,
        });
        assert_eq!(c.access_cost(0x00), 8);
        assert_eq!(c.access_cost(0x40), 8, "conflict");
        assert_eq!(c.access_cost(0x00), 8, "ping-pong");
    }

    #[test]
    fn invalidate_all_forces_misses() {
        let mut c = tiny();
        c.access(0x0);
        c.invalidate_all();
        assert!(!c.access(0x0));
    }

    #[test]
    fn snapshot_round_trip_replays_identically() {
        let mut a = tiny();
        for addr in [0x000u32, 0x040, 0x000, 0x080, 0x100, 0x044] {
            a.access(addr);
        }
        let j = a.snapshot_json();
        let mut b =
            Cache::from_snapshot_json(a.config(), &Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(a.stats(), b.stats());
        // Same future behaviour, including LRU victim choice.
        for addr in [0x000u32, 0x040, 0x080, 0x0c0, 0x000] {
            assert_eq!(a.access(addr), b.access(addr), "addr {addr:#x}");
        }
        assert_eq!(a.stats(), b.stats());
        // Wrong geometry is rejected.
        assert!(Cache::from_snapshot_json(CacheConfig::paper_icache(), &j).is_none());
    }

    #[test]
    fn paper_configs_are_consistent() {
        assert_eq!(CacheConfig::paper_icache().sets(), 256);
        assert_eq!(CacheConfig::paper_dcache().sets(), 1024);
        let _ = Cache::new(CacheConfig::dif_icache());
        let _ = Cache::new(CacheConfig::dif_dcache());
    }
}
