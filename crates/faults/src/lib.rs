//! Seeded fault injection for the DTSVLIW machine.
//!
//! The paper's correctness story rests on runtime validation — branch
//! tags (§3.8), alias order/cross bits (§3.10) and Hwu–Patt
//! checkpointing (§3.11) — but a simulator that aborts on the first
//! divergence never exercises those mechanisms under stress. This crate
//! supplies the stress: a [`FaultPlan`] names *fault sites* (places in
//! the machine where state can rot), a [`FaultInjector`] decides
//! deterministically — from a seed — when each site fires, and
//! [`corrupt`] implements the actual block mutations. The machine
//! detects the damage through its existing oracle (test-mode lockstep)
//! or a block-integrity checksum, quarantines the offending VLIW Cache
//! line, replays the trace segment on the Primary Processor and keeps
//! running; [`FaultStats`] counts every step of that pipeline so
//! campaigns can report detection and recovery *rates* instead of
//! anecdotes.
//!
//! Everything here is deterministic: the same `(plan, seed, workload)`
//! triple reproduces the same faults, detections and recoveries
//! bit-for-bit.

pub mod corrupt;

use dtsvliw_json::{Json, ToJson};

/// The workspace's seeded PRNG; every fault stream draws from it.
pub use dtsvliw_rng::Rng64;

// ---------------------------------------------------------------------
// Fault sites
// ---------------------------------------------------------------------

/// Number of distinct fault sites.
pub const NUM_SITES: usize = 6;

/// A place in the machine where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Flip one bit of an operand field of a scheduled instruction
    /// resident in the VLIW Cache (an SEU in the cache SRAM).
    CacheBitFlip,
    /// Corrupt the next-block-address store of a cached block, so the
    /// chain follows a stale/wrong address (§3.4's nba store going bad).
    StaleNba,
    /// Zero the branch tag of an operation scheduled under a branch, so
    /// it commits even when the branch leaves the recorded direction
    /// (§3.8's tag system inverting).
    BranchTagInvert,
    /// Make the VLIW Engine's aliasing detector miss: either suppress
    /// the next detected alias outright or cap the load/store lists so
    /// entries overflow and drop (§3.10 false negatives).
    AliasFalseNegative,
    /// Truncate the checkpoint-recovery store list before the next
    /// rollback unwinds it, leaving memory partially restored (§3.11's
    /// recovery list losing entries).
    RecoveryTruncate,
    /// Drop a COPY companion from a sealed block before it is installed:
    /// the renamed value never commits architecturally (a §3.2 split
    /// whose second half is lost).
    SchedMisSplit,
}

impl FaultSite {
    /// Every site, in stable report order.
    pub const ALL: [FaultSite; NUM_SITES] = [
        FaultSite::CacheBitFlip,
        FaultSite::StaleNba,
        FaultSite::BranchTagInvert,
        FaultSite::AliasFalseNegative,
        FaultSite::RecoveryTruncate,
        FaultSite::SchedMisSplit,
    ];

    /// Stable index into per-site counter arrays.
    pub fn index(self) -> usize {
        match self {
            FaultSite::CacheBitFlip => 0,
            FaultSite::StaleNba => 1,
            FaultSite::BranchTagInvert => 2,
            FaultSite::AliasFalseNegative => 3,
            FaultSite::RecoveryTruncate => 4,
            FaultSite::SchedMisSplit => 5,
        }
    }

    /// Stable kebab-case name (CLI `--sites`, JSON report keys, trace
    /// event payloads).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::CacheBitFlip => "cache-bit-flip",
            FaultSite::StaleNba => "stale-nba",
            FaultSite::BranchTagInvert => "branch-tag-invert",
            FaultSite::AliasFalseNegative => "alias-false-negative",
            FaultSite::RecoveryTruncate => "recovery-truncate",
            FaultSite::SchedMisSplit => "sched-mis-split",
        }
    }

    /// Parse a [`FaultSite::label`] back.
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|f| f.label() == s)
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------

/// One armed fault site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The site to inject at.
    pub site: FaultSite,
    /// Per-opportunity injection probability in `[0, 1]`.
    pub probability: f64,
    /// Maximum number of injections (0 = unlimited).
    pub max: u32,
}

/// A seeded fault campaign for one run, threaded through
/// `MachineConfig`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// PRNG seed: equal plans reproduce equal campaigns.
    pub seed: u64,
    /// The armed sites. A site absent here never fires.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan arming a single site.
    pub fn single(site: FaultSite, probability: f64, max: u32, seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: vec![FaultSpec {
                site,
                probability,
                max,
            }],
        }
    }

    /// A plan arming every site at the same probability.
    pub fn all_sites(probability: f64, max_each: u32, seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: FaultSite::ALL
                .iter()
                .map(|&site| FaultSpec {
                    site,
                    probability,
                    max: max_each,
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------

/// Draws the per-opportunity injection decisions for one run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Rng64,
    specs: [Option<FaultSpec>; NUM_SITES],
    injected: [u64; NUM_SITES],
}

impl FaultInjector {
    /// An injector for `plan`. A later spec for the same site replaces
    /// an earlier one.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut specs = [None; NUM_SITES];
        for s in &plan.specs {
            specs[s.site.index()] = Some(*s);
        }
        FaultInjector {
            rng: Rng64::new(plan.seed ^ 0xd75_1a1f),
            specs,
            injected: [0; NUM_SITES],
        }
    }

    /// Is `site` armed at all?
    pub fn armed(&self, site: FaultSite) -> bool {
        self.specs[site.index()].is_some()
    }

    /// Decide whether `site` fires at this opportunity. Draws from the
    /// seeded stream only for armed sites below their budget, so
    /// identical runs make identical decisions.
    pub fn roll(&mut self, site: FaultSite) -> bool {
        let i = site.index();
        let Some(spec) = self.specs[i] else {
            return false;
        };
        if spec.max != 0 && self.injected[i] >= spec.max as u64 {
            return false;
        }
        self.rng.unit() < spec.probability
    }

    /// Record that an injection at `site` actually landed (a roll that
    /// found nothing to corrupt — e.g. no COPY in the block — is not
    /// counted).
    pub fn note_injected(&mut self, site: FaultSite) {
        self.injected[site.index()] += 1;
    }

    /// Per-site landed-injection counts, indexed by [`FaultSite::index`].
    pub fn injected(&self) -> [u64; NUM_SITES] {
        self.injected
    }

    /// Total landed injections across sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// The seeded stream, for corruption helpers that need random picks.
    pub fn rng(&mut self) -> &mut Rng64 {
        &mut self.rng
    }

    /// Serialise the mutable state (PRNG position and per-site landed
    /// counts). The plan itself is not included — restore rebuilds the
    /// injector from the machine configuration's plan and then resumes
    /// the stream, so a resumed run draws the exact same decisions an
    /// uninterrupted one would.
    pub fn snapshot_json(&self) -> Json {
        Json::obj([
            ("rng_state", Json::U64(self.rng.state())),
            (
                "injected",
                Json::Arr(self.injected.iter().map(|&n| Json::U64(n)).collect()),
            ),
        ])
    }

    /// Resume the mutable state from [`FaultInjector::snapshot_json`]
    /// output; `None` on structural mismatch.
    pub fn restore_snapshot(&mut self, j: &Json) -> Option<()> {
        let injected = j.get("injected")?.as_arr()?;
        if injected.len() != NUM_SITES {
            return None;
        }
        let mut counts = [0u64; NUM_SITES];
        for (slot, v) in counts.iter_mut().zip(injected) {
            *slot = v.as_u64()?;
        }
        self.rng = Rng64::from_state(j.get("rng_state")?.as_u64()?);
        self.injected = counts;
        Some(())
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Resilience accounting for one run: how many faults were injected,
/// how many were detected, and what recovery cost. Lives inside
/// `RunStats` (hence `Copy`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Landed injections per site, indexed by [`FaultSite::index`].
    pub injected: [u64; NUM_SITES],
    /// Corruption detections (lockstep-oracle divergence, integrity
    /// mismatch at fetch, or test-sync failure) that entered recovery.
    pub detected: u64,
    /// Detections that ended in a consistent machine and a continued
    /// run.
    pub recovered: u64,
    /// Checkpoint rollback + Primary Processor replays performed.
    pub replays: u64,
    /// Sequential instructions re-executed during replays.
    pub replayed_instrs: u64,
    /// Cycles charged to replays (also included in `overhead_cycles`).
    pub replay_cycles: u64,
    /// Recoveries where replay could not reconstruct a consistent state
    /// and the architectural state was scrubbed from the test machine
    /// (models refill from a clean storage level).
    pub scrubs: u64,
    /// VLIW Cache lines quarantined after a detection.
    pub quarantined: u64,
    /// Scheduler block installs rejected because the tag was still in
    /// quarantine cooldown.
    pub quarantine_rejects: u64,
}

impl FaultStats {
    /// Total landed injections across sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Parse back from the [`ToJson`] form (the derived `injected_total`
    /// member is ignored).
    pub fn from_json(j: &Json) -> Option<Self> {
        let per_site = j.get("injected")?;
        let mut injected = [0u64; NUM_SITES];
        for s in FaultSite::ALL {
            injected[s.index()] = per_site.get(s.label())?.as_u64()?;
        }
        Some(FaultStats {
            injected,
            detected: j.get("detected")?.as_u64()?,
            recovered: j.get("recovered")?.as_u64()?,
            replays: j.get("replays")?.as_u64()?,
            replayed_instrs: j.get("replayed_instrs")?.as_u64()?,
            replay_cycles: j.get("replay_cycles")?.as_u64()?,
            scrubs: j.get("scrubs")?.as_u64()?,
            quarantined: j.get("quarantined")?.as_u64()?,
            quarantine_rejects: j.get("quarantine_rejects")?.as_u64()?,
        })
    }
}

impl ToJson for FaultStats {
    fn to_json(&self) -> Json {
        let injected = Json::Obj(
            FaultSite::ALL
                .iter()
                .map(|s| (s.label().to_string(), Json::U64(self.injected[s.index()])))
                .collect(),
        );
        Json::obj([
            ("injected", injected),
            ("injected_total", Json::U64(self.total_injected())),
            ("detected", Json::U64(self.detected)),
            ("recovered", Json::U64(self.recovered)),
            ("replays", Json::U64(self.replays)),
            ("replayed_instrs", Json::U64(self.replayed_instrs)),
            ("replay_cycles", Json::U64(self.replay_cycles)),
            ("scrubs", Json::U64(self.scrubs)),
            ("quarantined", Json::U64(self.quarantined)),
            ("quarantine_rejects", Json::U64(self.quarantine_rejects)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_labels_round_trip() {
        for s in FaultSite::ALL {
            assert_eq!(FaultSite::parse(s.label()), Some(s));
        }
        assert_eq!(FaultSite::parse("definitely-not-a-site"), None);
        let mut idx: Vec<usize> = FaultSite::ALL.iter().map(|s| s.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..NUM_SITES).collect::<Vec<_>>());
    }

    #[test]
    fn injector_respects_arming_and_budget() {
        let plan = FaultPlan::single(FaultSite::StaleNba, 1.0, 2, 9);
        let mut inj = FaultInjector::new(&plan);
        assert!(!inj.armed(FaultSite::CacheBitFlip));
        assert!(!inj.roll(FaultSite::CacheBitFlip), "unarmed never fires");
        assert!(inj.roll(FaultSite::StaleNba));
        inj.note_injected(FaultSite::StaleNba);
        assert!(inj.roll(FaultSite::StaleNba));
        inj.note_injected(FaultSite::StaleNba);
        assert!(!inj.roll(FaultSite::StaleNba), "budget of 2 exhausted");
        assert_eq!(inj.total_injected(), 2);
    }

    #[test]
    fn injector_probability_zero_never_fires() {
        let plan = FaultPlan::all_sites(0.0, 0, 1);
        let mut inj = FaultInjector::new(&plan);
        for _ in 0..100 {
            for s in FaultSite::ALL {
                assert!(!inj.roll(s));
            }
        }
    }

    #[test]
    fn injector_streams_reproduce() {
        let plan = FaultPlan::all_sites(0.5, 0, 1234);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for _ in 0..64 {
            for s in FaultSite::ALL {
                assert_eq!(a.roll(s), b.roll(s));
            }
        }
    }

    #[test]
    fn injector_snapshot_resumes_the_stream() {
        let plan = FaultPlan::all_sites(0.5, 0, 77);
        let mut a = FaultInjector::new(&plan);
        for _ in 0..33 {
            if a.roll(FaultSite::CacheBitFlip) {
                a.note_injected(FaultSite::CacheBitFlip);
            }
        }
        let snap = a.snapshot_json();
        let mut b = FaultInjector::new(&plan);
        b.restore_snapshot(&Json::parse(&snap.to_string()).unwrap())
            .expect("restore");
        assert_eq!(a.injected(), b.injected());
        for _ in 0..64 {
            for s in FaultSite::ALL {
                assert_eq!(a.roll(s), b.roll(s));
            }
        }
        assert!(b.restore_snapshot(&Json::U64(1)).is_none());
    }

    #[test]
    fn fault_stats_json_round_trip() {
        let mut st = FaultStats::default();
        st.injected[FaultSite::CacheBitFlip.index()] = 4;
        st.detected = 3;
        st.recovered = 3;
        st.replays = 2;
        st.replayed_instrs = 120;
        st.replay_cycles = 260;
        st.scrubs = 1;
        st.quarantined = 2;
        st.quarantine_rejects = 5;
        let back = FaultStats::from_json(&Json::parse(&st.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(st, back);
    }

    #[test]
    fn stats_json_has_per_site_keys() {
        let mut st = FaultStats::default();
        st.injected[FaultSite::StaleNba.index()] = 3;
        st.detected = 2;
        st.recovered = 2;
        let j = st.to_json();
        assert_eq!(
            j.get("injected")
                .and_then(|i| i.get("stale-nba"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(j.get("injected_total").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("detected").and_then(Json::as_u64), Some(2));
    }
}
