//! Sampling profiler: the machine's one profiler hook. It feeds an
//! inner [`crate::BlockProfiler`], either completely (N = 1, the exact
//! per-block report) or at a fraction of its cost (N > 1).
//!
//! The [`SamplingProfiler`] samples every Nth *block entry*: when an
//! entry is picked, the whole execution of that block (entry → exit) is
//! recorded into the inner profiler; otherwise nothing is. Evictions
//! are always recorded. The machine keeps the armed/idle decision in a
//! plain `bool`, so the per-LI cost inside a burst is one predictable
//! branch.
//!
//! **Why the ranking converges.** Block entries are sampled
//! stratified-systematically: entry number `k` of the run is recorded
//! iff `k ≡ 0 (mod N)`, independent of which block it enters. Over a
//! run in which block `b` is entered `E_b` times and absorbs `C_b`
//! cycles, the sampler records `⌊E_b/N⌋ ± 1` of its executions —
//! an unbiased 1/N thinning of every block's entry stream. Expected
//! sampled cycles are `C_b/N`, so the sampled cycle ranking estimates
//! the exact ranking with relative error shrinking as `E_b/N` grows;
//! hot blocks (large `E_b`) are exactly the ones estimated best. The
//! differential test in `crates/core/tests/telemetry.rs` checks top-10
//! rank overlap ≥ 8/10 against N = 1 on all 8 workloads.

use crate::profile::{BlockProfiler, ExitKind};
use dtsvliw_json::Json;

/// Default sampling period: record one block entry in 16.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 16;

/// Every-Nth-block-entry sampling wrapper around [`BlockProfiler`]
/// (see the module docs for the convergence argument).
#[derive(Debug, Clone)]
pub struct SamplingProfiler {
    inner: BlockProfiler,
    every: u64,
    /// Block entries observed (sampled or not).
    entries_seen: u64,
    /// Entries actually recorded.
    sampled: u64,
    /// The block being recorded right now, if the current execution was
    /// picked: per-LI and exit hooks only fire while this is set.
    current: Option<(u32, u8)>,
}

impl SamplingProfiler {
    /// A sampler recording every `every`-th block entry (clamped to
    /// >= 1; 1 records everything, like the exact profiler).
    pub fn new(every: u64) -> Self {
        SamplingProfiler {
            inner: BlockProfiler::new(),
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

    /// Observe a block entry; returns `true` when this execution is
    /// sampled (the caller caches the answer in a plain `bool` and
    /// routes per-LI hooks through it). Mirrors
    /// [`BlockProfiler::note_entry`].
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
        if pick {
            self.sampled += 1;
            self.current = Some((tag, cwp));
            self.inner.note_entry(tag, cwp, chained, cycle, head);
        } else {
            self.current = None;
        }
        pick
    }

    /// Record one long instruction of the currently sampled execution
    /// (no-op when the current execution was not picked).
    pub fn note_li(&mut self, ops: u32, width: u32, cycles: u64) {
        if let Some((tag, cwp)) = self.current {
            self.inner.note_li(tag, cwp, ops, width, cycles);
        }
    }

    /// Record how the currently sampled execution left its block and
    /// close the sample window.
    pub fn note_exit(&mut self, kind: ExitKind) {
        if let Some((tag, cwp)) = self.current.take() {
            self.inner.note_exit(tag, cwp, kind);
        }
    }

    /// Record an eviction of `(tag, cwp)` at `cycle`, sampled or not:
    /// evictions are rare and their eviction-while-hot test needs every
    /// one (see [`BlockProfiler::note_evict`]).
    pub fn note_evict(&mut self, tag: u32, cwp: u8, cycle: u64) {
        self.inner.note_evict(tag, cwp, cycle);
    }

    /// The inner profiler holding the sampled accounting.
    pub fn profiler(&self) -> &BlockProfiler {
        &self.inner
    }

    /// The sampled report as JSON: the inner [`BlockProfiler`] report
    /// plus the sampling parameters needed to interpret it (counts are
    /// ≈ 1/N of the exact ones).
    pub fn report_json(&self, top_n: usize) -> Json {
        let mut j = self.inner.report_json(top_n);
        if let Json::Obj(pairs) = &mut j {
            pairs.insert(0, ("sample_every".to_string(), Json::U64(self.every)));
            pairs.insert(
                1,
                ("entries_seen".to_string(), Json::U64(self.entries_seen)),
            );
            pairs.insert(2, ("entries_sampled".to_string(), Json::U64(self.sampled)));
        }
        j
    }

    /// The sampled report as a human-readable table (the inner
    /// profiler's table under a sampling header).
    pub fn report_table(&self, top_n: usize) -> String {
        format!(
            "--- sampled profile: 1 in {} of {} block entries recorded ---\n{}",
            self.every,
            self.entries_seen,
            self.inner.report_table(top_n)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `entries` executions of a two-block alternation and check
    /// that only every Nth entry lands in the inner profiler, whichever
    /// block it hits.
    #[test]
    fn samples_every_nth_entry_stratified() {
        let mut s = SamplingProfiler::new(3);
        let mut picked = 0;
        for k in 0..30u64 {
            let tag = if k % 2 == 0 { 0x1000 } else { 0x2000 };
            let hit = s.note_entry(tag, 0, false, k * 10, String::new);
            assert_eq!(hit, k % 3 == 0, "entry {k}");
            picked += hit as u64;
            s.note_li(3, 8, 1); // recorded only while sampling
            s.note_exit(ExitKind::Nba);
        }
        assert_eq!(picked, 10);
        assert_eq!(s.entries_seen(), 30);
        assert_eq!(s.sampled(), 10);
        let total_execs: u64 = s.profiler().profiles().iter().map(|p| p.executions).sum();
        let total_lis: u64 = s.profiler().profiles().iter().map(|p| p.lis).sum();
        assert_eq!(total_execs, 10);
        assert_eq!(total_lis, 10);
        // Picks land on entries 0,3,6,… — the 3-period is coprime with
        // the 2-block alternation, so both blocks get sampled.
        assert_eq!(s.profiler().profiles().len(), 2);
    }

    #[test]
    fn period_one_records_everything() {
        let mut s = SamplingProfiler::new(1);
        for k in 0..7u64 {
            assert!(s.note_entry(0x400, 1, k > 0, k, String::new));
            s.note_li(2, 4, 3);
            s.note_exit(ExitKind::Redirect);
        }
        let p = &s.profiler().profiles()[0];
        assert_eq!(p.executions, 7);
        assert_eq!(p.lis, 7);
        assert_eq!(p.cycles, 21);
        assert_eq!(p.chained, 6);
        assert_eq!(p.exit_redirect, 7);
    }

    /// At N = 1 the sampler is the exact profiler: the same
    /// entry/li/exit/evict stream yields the same report and digest.
    #[test]
    fn period_one_matches_a_bare_block_profiler() {
        let mut s = SamplingProfiler::new(1);
        let mut bare = BlockProfiler::new();
        let blocks = [(0x1000u32, 0u8), (0x2000, 1), (0x1000, 0), (0x3000, 2)];
        for (k, &(tag, cwp)) in blocks.iter().cycle().take(40).enumerate() {
            let k = k as u64;
            let head = || format!("head {tag:#x}");
            let chained = !k.is_multiple_of(3);
            assert!(s.note_entry(tag, cwp, chained, k * 7, head));
            bare.note_entry(tag, cwp, chained, k * 7, head);
            for li in 0..(k % 4 + 1) as u32 {
                s.note_li(li + 1, 8, 1 + (k + li as u64) % 5);
                bare.note_li(tag, cwp, li + 1, 8, 1 + (k + li as u64) % 5);
            }
            let kind = [ExitKind::Nba, ExitKind::Redirect, ExitKind::Exception][k as usize % 3];
            s.note_exit(kind);
            bare.note_exit(tag, cwp, kind);
            if k % 5 == 4 {
                s.note_evict(tag, cwp, k * 7 + 3);
                bare.note_evict(tag, cwp, k * 7 + 3);
                // An eviction of a line that never executed.
                s.note_evict(0x9000, 0, k * 7 + 4);
                bare.note_evict(0x9000, 0, k * 7 + 4);
            }
        }
        assert_eq!(
            s.profiler().report_json(10).to_string(),
            bare.report_json(10).to_string()
        );
        assert_eq!(s.profiler().hot_digest(10), bare.hot_digest(10));
        assert!(bare.profiles().iter().any(|p| p.evictions_while_hot > 0));
    }

    #[test]
    fn unsampled_windows_record_nothing() {
        let mut s = SamplingProfiler::new(2);
        assert!(s.note_entry(0x100, 0, false, 0, String::new));
        s.note_exit(ExitKind::Nba);
        assert!(!s.note_entry(0x200, 0, false, 5, String::new));
        s.note_li(4, 4, 9); // must be dropped
        s.note_exit(ExitKind::Exception);
        assert_eq!(s.profiler().blocks(), 1);
        assert_eq!(s.profiler().profiles()[0].tag_addr, 0x100);
    }

    #[test]
    fn report_json_carries_sampling_params() {
        let mut s = SamplingProfiler::new(8);
        s.note_entry(0x2000, 0, false, 0, || "nop".into());
        s.note_li(1, 4, 2);
        s.note_exit(ExitKind::Nba);
        let j = s.report_json(10);
        assert_eq!(j.get("sample_every").and_then(Json::as_u64), Some(8));
        assert_eq!(j.get("entries_seen").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("entries_sampled").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("blocks").and_then(Json::as_u64), Some(1));
        assert!(s.report_table(10).contains("1 in 8"));
    }

    #[test]
    fn zero_period_clamps_to_one() {
        let s = SamplingProfiler::new(0);
        assert_eq!(s.every(), 1);
    }
}
