//! Hot-trace profiler: per-VLIW-cache-line execution accounting.
//!
//! The paper's evaluation is cycle attribution in the aggregate; the
//! [`BlockProfiler`] attributes the same cycles to *individual* scheduled
//! blocks, so a report can say which cache lines earn their keep: how
//! often each block ran, how many cycles it absorbed, how full its long
//! instructions were, how it was left (nba fall-through, redirect,
//! exception), whether entries chained block-to-block without leaving
//! VLIW mode, and whether the replacement policy evicted it while still
//! hot.
//!
//! The profiler records every Nth *block entry*: when an entry is
//! picked, the whole execution of that block (entry → exit) is
//! recorded; otherwise nothing is. N = 1 records every execution, the
//! exact per-block report. Evictions are always recorded. The machine
//! owns it behind the same one-branch `Option` pattern as the `Tracer`:
//! every hook site costs a single branch when profiling is disabled.
//! Profiler state is deliberately *not* serialised into machine
//! snapshots — a resumed run starts with a fresh (or no) profiler, so
//! resuming can never double-count an execution (reset-on-resume).
//!
//! **Why the sampled ranking converges.** Block entries are sampled
//! stratified-systematically: entry number `k` of the run is recorded
//! iff `k ≡ 0 (mod N)`, independent of which block it enters. Over a
//! run in which block `b` is entered `E_b` times and absorbs `C_b`
//! cycles, the profiler records `⌊E_b/N⌋ ± 1` of its executions —
//! an unbiased 1/N thinning of every block's entry stream. Expected
//! sampled cycles are `C_b/N`, so the sampled cycle ranking estimates
//! the exact ranking with relative error shrinking as `E_b/N` grows;
//! hot blocks (large `E_b`) are exactly the ones estimated best. The
//! differential test in `crates/core/tests/telemetry.rs` checks top-10
//! rank overlap ≥ 8/10 against N = 1 on all 8 workloads.
//!
//! The crate knows nothing about the ISA; the head-instruction
//! disassembly is rendered by the caller and handed in as a string the
//! first time a block is seen.

use dtsvliw_json::{Json, ToJson};

/// How control left a block at the end of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Fell through the last long instruction into the next-block
    /// address (the §3.4 nba store).
    Nba,
    /// A branch left its recorded direction: execution redirected out of
    /// the block mid-trace (§3.5).
    Redirect,
    /// An exception (aliasing, structural fault, detected divergence)
    /// rolled the block back to its entry checkpoint.
    Exception,
}

/// Everything the profiler knows about one scheduled block
/// (one VLIW Cache line, keyed by `(tag_addr, entry_cwp)`).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockProfile {
    /// First-seen ordinal: a deterministic line id, assigned in the
    /// order blocks first executed.
    pub ordinal: u64,
    /// Cache tag: address of the first trace instruction of the block.
    pub tag_addr: u32,
    /// Window pointer at block entry (part of the cache key).
    pub entry_cwp: u8,
    /// Disassembly of the block's head instruction (rendered by the
    /// caller; empty until the block's first recorded entry).
    pub head: String,
    /// Times the VLIW Engine entered the block.
    pub executions: u64,
    /// Cycles spent executing the block's long instructions (including
    /// data-cache stalls charged while inside it).
    pub cycles: u64,
    /// Long instructions executed across all entries.
    pub lis: u64,
    /// Operations issued (occupied slots) across all entries.
    pub ops: u64,
    /// Slot capacity offered: `width × long instructions executed`.
    pub slots: u64,
    /// Entries that chained block-to-block without leaving VLIW mode
    /// (the §3.4 nba / redirect chain path).
    pub chained: u64,
    /// Exits by fall-through into the nba.
    pub exit_nba: u64,
    /// Exits by a branch leaving its recorded direction.
    pub exit_redirect: u64,
    /// Exits by exception / checkpoint rollback.
    pub exit_exception: u64,
    /// Machine cycle of the most recent entry.
    pub last_entry_cycle: u64,
    /// Times the block was evicted within the hot window of its last
    /// execution (a replacement-policy casualty, not dead code).
    pub evictions_while_hot: u64,
    /// Total evictions of this tag observed.
    pub evictions: u64,
}

impl BlockProfile {
    fn new(ordinal: u64, tag_addr: u32, entry_cwp: u8) -> Self {
        BlockProfile {
            ordinal,
            tag_addr,
            entry_cwp,
            head: String::new(),
            executions: 0,
            cycles: 0,
            lis: 0,
            ops: 0,
            slots: 0,
            chained: 0,
            exit_nba: 0,
            exit_redirect: 0,
            exit_exception: 0,
            last_entry_cycle: 0,
            evictions_while_hot: 0,
            evictions: 0,
        }
    }

    /// Issued operations over offered slot capacity, 0.0 when the block
    /// never executed.
    pub fn slot_occupancy(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.ops as f64 / self.slots as f64
        }
    }
}

impl ToJson for BlockProfile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("line", Json::U64(self.ordinal)),
            ("tag", Json::U64(self.tag_addr as u64)),
            ("cwp", Json::U64(self.entry_cwp as u64)),
            ("head", Json::Str(self.head.clone())),
            ("executions", Json::U64(self.executions)),
            ("cycles", Json::U64(self.cycles)),
            ("lis", Json::U64(self.lis)),
            ("ops", Json::U64(self.ops)),
            ("slot_occupancy", Json::F64(self.slot_occupancy())),
            ("chained", Json::U64(self.chained)),
            ("exit_nba", Json::U64(self.exit_nba)),
            ("exit_redirect", Json::U64(self.exit_redirect)),
            ("exit_exception", Json::U64(self.exit_exception)),
            ("evictions", Json::U64(self.evictions)),
            ("evictions_while_hot", Json::U64(self.evictions_while_hot)),
        ])
    }
}

/// Hot window for eviction-while-hot tracking, in cycles: an eviction
/// counts as "while hot" when the block last entered execution within
/// this many cycles of the eviction.
pub const DEFAULT_HOT_WINDOW: u64 = 10_000;

/// Default sampling period: record one block entry in 16.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 16;

/// Per-block execution profiler sampling every Nth block entry (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct BlockProfiler {
    profiles: Vec<BlockProfile>,
    /// `(tag, cwp) → index` into `profiles`. Linear maps would be O(n)
    /// per block entry; this stays a sorted Vec searched by binary
    /// search, which keeps iteration order deterministic without a
    /// hash map.
    index: Vec<((u32, u8), usize)>,
    /// The sampling period N.
    every: u64,
    /// Block entries observed (sampled or not).
    entries_seen: u64,
    /// Entries actually recorded.
    sampled: u64,
    /// Index into `profiles` of the block execution being recorded, if
    /// the current entry was picked: per-LI and exit hooks update it
    /// directly and do nothing while it is `None`.
    current: Option<usize>,
}

impl BlockProfiler {
    /// A profiler recording every `every`-th block entry (clamped to
    /// >= 1; 1 records every execution).
    pub fn new(every: u64) -> Self {
        BlockProfiler {
            profiles: Vec::new(),
            index: Vec::new(),
            every: every.max(1),
            entries_seen: 0,
            sampled: 0,
            current: None,
        }
    }

    /// The sampling period N.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Block entries observed, sampled or not.
    pub fn entries_seen(&self) -> u64 {
        self.entries_seen
    }

    /// Entries recorded.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Index of the profile for `(tag, cwp)`, created on first sight.
    fn slot(&mut self, tag: u32, cwp: u8) -> usize {
        let key = (tag, cwp);
        match self.index.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(pos) => self.index[pos].1,
            Err(pos) => {
                let i = self.profiles.len();
                self.profiles.push(BlockProfile::new(i as u64, tag, cwp));
                self.index.insert(pos, (key, i));
                i
            }
        }
    }

    /// Observe a block entry at `cycle`; returns `true` when this
    /// execution is picked for recording (every Nth entry). `chained`
    /// marks entries that arrived block-to-block without leaving VLIW
    /// mode. `head` renders the head-instruction disassembly; it is only
    /// invoked the first time the block is recorded.
    pub fn note_entry(
        &mut self,
        tag: u32,
        cwp: u8,
        chained: bool,
        cycle: u64,
        head: impl FnOnce() -> String,
    ) -> bool {
        let pick = self.entries_seen.is_multiple_of(self.every);
        self.entries_seen += 1;
        self.current = None;
        if pick {
            self.sampled += 1;
            let i = self.slot(tag, cwp);
            let p = &mut self.profiles[i];
            if p.head.is_empty() {
                p.head = head();
            }
            p.executions += 1;
            p.chained += chained as u64;
            p.last_entry_cycle = cycle;
            self.current = Some(i);
        }
        pick
    }

    /// Record one executed long instruction of the current execution:
    /// `ops` occupied slots of `width` offered, absorbing `cycles`
    /// machine cycles (1 plus any data-cache stall). No-op when the
    /// current execution was not picked.
    #[inline]
    pub fn note_li(&mut self, ops: u32, width: u32, cycles: u64) {
        if let Some(i) = self.current {
            let p = &mut self.profiles[i];
            p.lis += 1;
            p.ops += ops as u64;
            p.slots += width as u64;
            p.cycles += cycles;
        }
    }

    /// Record how control left the current execution's block and close
    /// the sample window (no-op when it was not picked).
    pub fn note_exit(&mut self, kind: ExitKind) {
        if let Some(i) = self.current.take() {
            let p = &mut self.profiles[i];
            match kind {
                ExitKind::Nba => p.exit_nba += 1,
                ExitKind::Redirect => p.exit_redirect += 1,
                ExitKind::Exception => p.exit_exception += 1,
            }
        }
    }

    /// Record an eviction of `(tag, cwp)` at `cycle`, sampled or not:
    /// evictions are rare and the eviction-while-hot test needs every
    /// one. An eviction of a never-recorded block is kept all the same
    /// (executions 0).
    pub fn note_evict(&mut self, tag: u32, cwp: u8, cycle: u64) {
        let i = self.slot(tag, cwp);
        let p = &mut self.profiles[i];
        p.evictions += 1;
        if p.executions > 0 && cycle.saturating_sub(p.last_entry_cycle) <= DEFAULT_HOT_WINDOW {
            p.evictions_while_hot += 1;
        }
    }

    /// Number of distinct blocks profiled.
    pub fn blocks(&self) -> usize {
        self.profiles.len()
    }

    /// Every profile, in first-seen order.
    pub fn profiles(&self) -> &[BlockProfile] {
        &self.profiles
    }

    /// The `top_n` hottest blocks: sorted by cycles descending, ties
    /// broken by executions descending then first-seen ordinal — a total
    /// order, so the report is deterministic.
    pub fn hottest(&self, top_n: usize) -> Vec<&BlockProfile> {
        let mut v: Vec<&BlockProfile> = self.profiles.iter().collect();
        v.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then(b.executions.cmp(&a.executions))
                .then(a.ordinal.cmp(&b.ordinal))
        });
        v.truncate(top_n);
        v
    }

    /// FNV-1a digest over the hottest `top_n` blocks' identity and
    /// counts — a compact fingerprint benchmark reports can compare to
    /// spot hot-path shifts without storing full tables.
    pub fn hot_digest(&self, top_n: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for p in self.hottest(top_n) {
            feed(p.tag_addr as u64);
            feed(p.entry_cwp as u64);
            feed(p.executions);
            feed(p.cycles);
            feed(p.ops);
        }
        h
    }

    /// The report as JSON: the sampling parameters needed to interpret
    /// it (at N > 1 counts are ≈ 1/N of the exact ones), block count,
    /// total profiled cycles, and the `top_n` hottest blocks (see
    /// [`BlockProfile::to_json`]).
    pub fn report_json(&self, top_n: usize) -> Json {
        let total: u64 = self.profiles.iter().map(|p| p.cycles).sum();
        Json::obj([
            ("sample_every", Json::U64(self.every)),
            ("entries_seen", Json::U64(self.entries_seen)),
            ("entries_sampled", Json::U64(self.sampled)),
            ("blocks", Json::U64(self.profiles.len() as u64)),
            ("profiled_cycles", Json::U64(total)),
            ("hot_digest", Json::U64(self.hot_digest(top_n))),
            (
                "hot",
                Json::Arr(self.hottest(top_n).iter().map(|p| p.to_json()).collect()),
            ),
        ])
    }

    /// The report as a human-readable table of the `top_n` hottest
    /// blocks under a sampling header.
    pub fn report_table(&self, top_n: usize) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let total: u64 = self.profiles.iter().map(|p| p.cycles).sum();
        let _ = writeln!(
            s,
            "--- sampled profile: 1 in {} of {} block entries recorded ---",
            self.every, self.entries_seen
        );
        let _ = writeln!(
            s,
            "--- hot blocks: top {} of {} ({} profiled cycles) ---",
            top_n.min(self.profiles.len()),
            self.profiles.len(),
            total
        );
        let _ = writeln!(
            s,
            "{:>5} {:>10} {:>10} {:>12} {:>6} {:>22} {:>6}  head",
            "line", "entry pc", "execs", "cycles", "occ%", "exits nba/redir/exc", "hot-ev"
        );
        for p in self.hottest(top_n) {
            let _ = writeln!(
                s,
                "{:>5} {:>#10x} {:>10} {:>12} {:>5.1} {:>22} {:>6}  {}",
                p.ordinal,
                p.tag_addr,
                p.executions,
                p.cycles,
                100.0 * p.slot_occupancy(),
                format!("{}/{}/{}", p.exit_nba, p.exit_redirect, p.exit_exception),
                p.evictions_while_hot,
                p.head,
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_lis_and_exits_accumulate() {
        let mut p = BlockProfiler::new(1);
        p.note_entry(0x2000, 0, false, 100, || "add %o0, %o1, %o0".into());
        p.note_li(3, 4, 1);
        p.note_li(2, 4, 5);
        p.note_exit(ExitKind::Nba);
        p.note_entry(0x2000, 0, true, 200, || unreachable!("head cached"));
        p.note_li(4, 4, 1);
        p.note_exit(ExitKind::Redirect);

        assert_eq!(p.blocks(), 1);
        let b = &p.profiles()[0];
        assert_eq!(b.head, "add %o0, %o1, %o0");
        assert_eq!(b.executions, 2);
        assert_eq!(b.chained, 1);
        assert_eq!(b.lis, 3);
        assert_eq!(b.ops, 9);
        assert_eq!(b.slots, 12);
        assert_eq!(b.cycles, 7);
        assert_eq!(b.exit_nba, 1);
        assert_eq!(b.exit_redirect, 1);
        assert_eq!(b.exit_exception, 0);
        assert!((b.slot_occupancy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hottest_is_deterministically_ordered() {
        let mut p = BlockProfiler::new(1);
        for (tag, cyc) in [(0x100u32, 5u64), (0x200, 9), (0x300, 5)] {
            p.note_entry(tag, 0, false, 0, String::new);
            p.note_li(1, 4, cyc);
        }
        let hot = p.hottest(3);
        // 0x200 has the most cycles; 0x100 and 0x300 tie on cycles and
        // executions, so first-seen ordinal breaks the tie.
        assert_eq!(
            hot.iter().map(|b| b.tag_addr).collect::<Vec<_>>(),
            vec![0x200, 0x100, 0x300]
        );
        assert_eq!(p.hottest(1).len(), 1);
    }

    #[test]
    fn eviction_hot_window() {
        let mut p = BlockProfiler::new(1);
        let entry = 100_000;
        p.note_entry(0x2000, 0, false, entry, String::new);
        p.note_evict(0x2000, 0, entry + DEFAULT_HOT_WINDOW); // window edge
        p.note_evict(0x2000, 0, entry + DEFAULT_HOT_WINDOW + 1); // just outside
        p.note_evict(0x4000, 0, entry); // never executed
        let b = &p.profiles()[0];
        assert_eq!(b.evictions, 2);
        assert_eq!(b.evictions_while_hot, 1);
        assert_eq!(p.profiles()[1].evictions_while_hot, 0);
    }

    #[test]
    fn digest_tracks_hot_set_changes() {
        let mut a = BlockProfiler::new(1);
        a.note_entry(0x100, 0, false, 0, String::new);
        a.note_li(2, 4, 3);
        let mut b = a.clone();
        assert_eq!(a.hot_digest(5), b.hot_digest(5));
        b.note_li(2, 4, 3);
        assert_ne!(a.hot_digest(5), b.hot_digest(5));
    }

    #[test]
    fn report_json_shape() {
        let mut p = BlockProfiler::new(1);
        p.note_entry(0x2000, 1, false, 0, || "ld [%o0], %o1".into());
        p.note_li(2, 8, 4);
        p.note_exit(ExitKind::Exception);
        let j = p.report_json(10);
        assert_eq!(j.get("blocks").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("profiled_cycles").and_then(Json::as_u64), Some(4));
        let hot = j.get("hot").and_then(Json::as_arr).unwrap();
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].get("tag").and_then(Json::as_u64), Some(0x2000));
        assert_eq!(hot[0].get("exit_exception").and_then(Json::as_u64), Some(1));
        // The rendered report parses back.
        assert!(Json::parse(&j.to_string_pretty()).is_ok());
        // And the table mentions the head disassembly.
        assert!(p.report_table(10).contains("ld [%o0], %o1"));
    }

    /// Feed `entries` executions of a two-block alternation and check
    /// that only every Nth entry is recorded, whichever block it hits.
    #[test]
    fn samples_every_nth_entry_stratified() {
        let mut p = BlockProfiler::new(3);
        let mut picked = 0;
        for k in 0..30u64 {
            let tag = if k % 2 == 0 { 0x1000 } else { 0x2000 };
            let hit = p.note_entry(tag, 0, false, k * 10, String::new);
            assert_eq!(hit, k % 3 == 0, "entry {k}");
            picked += hit as u64;
            p.note_li(3, 8, 1); // recorded only while sampling
            p.note_exit(ExitKind::Nba);
        }
        assert_eq!(picked, 10);
        assert_eq!(p.entries_seen(), 30);
        assert_eq!(p.sampled(), 10);
        let total_execs: u64 = p.profiles().iter().map(|b| b.executions).sum();
        let total_lis: u64 = p.profiles().iter().map(|b| b.lis).sum();
        assert_eq!(total_execs, 10);
        assert_eq!(total_lis, 10);
        // Picks land on entries 0,3,6,… — the 3-period is coprime with
        // the 2-block alternation, so both blocks get sampled.
        assert_eq!(p.blocks(), 2);
    }

    #[test]
    fn period_one_records_everything() {
        let mut p = BlockProfiler::new(1);
        for k in 0..7u64 {
            assert!(p.note_entry(0x400, 1, k > 0, k, String::new));
            p.note_li(2, 4, 3);
            p.note_exit(ExitKind::Redirect);
        }
        let b = &p.profiles()[0];
        assert_eq!(b.executions, 7);
        assert_eq!(b.lis, 7);
        assert_eq!(b.cycles, 21);
        assert_eq!(b.chained, 6);
        assert_eq!(b.exit_redirect, 7);
    }

    #[test]
    fn unsampled_windows_record_nothing() {
        let mut p = BlockProfiler::new(2);
        assert!(p.note_entry(0x100, 0, false, 0, String::new));
        p.note_exit(ExitKind::Nba);
        assert!(!p.note_entry(0x200, 0, false, 5, String::new));
        p.note_li(4, 4, 9); // must be dropped
        p.note_exit(ExitKind::Exception);
        assert_eq!(p.blocks(), 1);
        assert_eq!(p.profiles()[0].tag_addr, 0x100);
        assert_eq!(p.profiles()[0].exit_exception, 0);
    }

    #[test]
    fn report_json_carries_sampling_params() {
        let mut p = BlockProfiler::new(8);
        p.note_entry(0x2000, 0, false, 0, || "nop".into());
        p.note_li(1, 4, 2);
        p.note_exit(ExitKind::Nba);
        let j = p.report_json(10);
        assert_eq!(j.get("sample_every").and_then(Json::as_u64), Some(8));
        assert_eq!(j.get("entries_seen").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("entries_sampled").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("blocks").and_then(Json::as_u64), Some(1));
        // The sampling parameters lead the report, in this order.
        let Json::Obj(pairs) = &j else {
            panic!("report is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "sample_every",
                "entries_seen",
                "entries_sampled",
                "blocks",
                "profiled_cycles",
                "hot_digest",
                "hot"
            ]
        );
        assert!(p
            .report_table(10)
            .starts_with("--- sampled profile: 1 in 8 of 1 block entries recorded ---\n"));
    }

    #[test]
    fn zero_period_clamps_to_one() {
        let p = BlockProfiler::new(0);
        assert_eq!(p.every(), 1);
    }
}
