//! Exact cycle-attribution accounting: the four buckets (`vliw`,
//! `primary`, `overhead`, `degraded`) must partition `cycles` exactly,
//! the named overhead sub-counters must partition `overhead_cycles`,
//! and the per-block profiler must account for every VLIW cycle.
//!
//! Debug builds additionally assert both partitions after *every*
//! machine step (see `Machine::debug_check_cycle_attribution`), so
//! merely completing these runs exercises the invariant at each cycle.

use dtsvliw_core::{Machine, MachineConfig, RunStats};
use dtsvliw_faults::{FaultPlan, FaultSite};
use dtsvliw_trace::SamplingProfiler;
use dtsvliw_workloads::{by_name, Scale};

const WORKLOADS: [&str; 8] = [
    "compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex", "xlisp",
];

fn assert_exact(s: &RunStats, what: &str) {
    assert_eq!(
        s.attributed_cycles(),
        s.cycles,
        "{what}: vliw {} + primary {} + overhead {} + degraded {} != cycles {}",
        s.vliw_cycles,
        s.primary_cycles,
        s.overhead_cycles,
        s.degraded_cycles,
        s.cycles
    );
    assert_eq!(
        s.overhead_breakdown_sum(),
        s.overhead_cycles,
        "{what}: swap {} + mispredict {} + next_li {} + recovery {} != overhead {}",
        s.overhead_swap,
        s.overhead_mispredict,
        s.overhead_next_li,
        s.overhead_recovery,
        s.overhead_cycles
    );
}

#[test]
fn invariant_holds_on_every_workload() {
    for w in WORKLOADS {
        let workload = by_name(w, Scale::Test).expect("workload exists");
        let mut m = Machine::new(MachineConfig::feasible_paper(), &workload.image());
        m.run(200_000).unwrap_or_else(|e| panic!("{w}: {e}"));
        let s = m.stats();
        assert!(s.cycles > 0, "{w}: machine must make progress");
        assert_exact(&s, w);
        assert!(
            s.overhead_swap > 0,
            "{w}: a run that entered VLIW mode must charge swap overhead"
        );
    }
}

/// The profiler's per-block cycle attribution is exact: every cycle in
/// `vliw_cycles` was charged to exactly one block's long instruction.
#[test]
fn profiler_accounts_every_vliw_cycle() {
    let workload = by_name("compress", Scale::Test).expect("workload exists");
    let mut m = Machine::new(MachineConfig::feasible_paper(), &workload.image());
    m.attach_sampler(Box::new(SamplingProfiler::new(1)));
    m.run(200_000).expect("run completes");
    let s = m.stats();
    let p = m.sampler().expect("profiler attached").profiler();
    assert!(p.blocks() > 0, "blocks must have executed");
    let profiled: u64 = p.profiles().iter().map(|b| b.cycles).sum();
    assert_eq!(profiled, s.vliw_cycles, "profiler must cover vliw_cycles");
    let execs: u64 = p.profiles().iter().map(|b| b.executions).sum();
    let exits: u64 = p
        .profiles()
        .iter()
        .map(|b| b.exit_nba + b.exit_redirect + b.exit_exception)
        .sum();
    assert!(execs > 0);
    assert!(exits <= execs, "a block cannot exit more often than it ran");
    // The report renders the head instruction of the hottest block.
    let hottest = p.hottest(1)[0];
    assert!(!hottest.head.is_empty());
    assert!(p.report_table(10).contains(&hottest.head));
}

/// The faultsim stress kernel (same shape as `tests/faults.rs`):
/// enough hoisted-load/walking-store collisions and read-modify-writes
/// to provoke aliasing exceptions, detected divergences, recovery
/// replays and — under a storm — breaker trips.
const STRESS_SRC: &str = "
_start:
    set 0x8000, %o0
    mov 0, %o5
    mov 0, %g4
    st %g0, [%o0 + 64]
    st %g0, [%o0 + 68]
rep_loop:
    mov 0, %o1
loop:
    ld [%o0 + 64], %g2
    add %g2, 1, %g2
    st %g2, [%o0 + 64]
    sll %o1, 2, %o2
    add %o0, %o2, %o3
    add %o1, %g4, %g5
    st %g5, [%o3]
    ld [%o0 + 8], %o4
    add %o5, %o4, %o5
    ld [%o0 + 68], %g6
    add %g6, 1, %g6
    st %g6, [%o0 + 68]
    add %o1, 1, %o1
    cmp %o1, 4
    bl loop
    nop
    add %g4, 1, %g4
    cmp %g4, 40
    bl rep_loop
    nop
    ld [%o0 + 64], %g3
    ld [%o0 + 68], %g1
    add %o5, %g3, %o0
    add %o0, %g1, %o0
    ta 0
";

#[test]
fn invariant_holds_with_faults_armed() {
    let image = dtsvliw_asm::assemble(STRESS_SRC).expect("stress assembles");
    let plan = FaultPlan::single(FaultSite::CacheBitFlip, 0.2, 4, 7);
    let mut cfg = MachineConfig::ideal(4, 8).with_faults(plan);
    cfg.max_cycles = Some(20_000_000);
    let mut m = Machine::new(cfg, &image);
    m.run(10_000_000).expect("faulted run completes");
    let s = m.stats();
    assert!(s.faults.detected > 0, "faults must land: {:?}", s.faults);
    assert!(
        s.overhead_recovery > 0,
        "recovery must charge its sub-counter: {s:?}"
    );
    assert_exact(&s, "faults armed");
}

/// With the breaker tripping, degraded cycles are attributed
/// *exclusively* — not double-counted into `primary_cycles` — so the
/// partition still balances.
#[test]
fn invariant_holds_with_breaker_tripping() {
    let image = dtsvliw_asm::assemble(STRESS_SRC).expect("stress assembles");
    let plan = FaultPlan::single(FaultSite::CacheBitFlip, 0.9, 0, 7);
    let mut cfg = MachineConfig::ideal(4, 8)
        .with_faults(plan)
        .with_breaker(3, 100_000, 5_000);
    cfg.max_cycles = Some(40_000_000);
    let mut m = Machine::new(cfg, &image);
    m.run(10_000_000).expect("degraded run completes");
    let s = m.stats();
    assert!(s.degraded_entries > 0, "breaker never tripped");
    assert!(s.degraded_cycles > 0);
    assert_exact(&s, "breaker tripping");
}
