//! The §3.7 signal equations (`signals::predict`) against the executable
//! scheduler, on real traces: the Primary trace of every Table 2
//! workload is fed through a `Scheduler` with the machine's rules (a
//! rejected instruction seals the list; every other one ticks the list
//! once per Primary cycle, then inserts). Before every `tick` the
//! equations' prediction must equal the resolutions the tick logs.

use dtsvliw_isa::DynInstr;
use dtsvliw_primary::{PipelineModel, PrimaryTiming, RefMachine};
use dtsvliw_sched::scheduler::{Latencies, SchedConfig, Scheduler};
use dtsvliw_sched::signals::predict;
use dtsvliw_workloads::{all, Scale};

/// Trace instructions fed per workload.
const BUDGET: u64 = 20_000;

/// One entry of the captured trace, as the Scheduler Unit sees it.
enum Fed {
    Insert {
        d: DynInstr,
        resident: u8,
        ticks: u64,
    },
    Reject {
        pc: u32,
        seq: u64,
    },
}

/// The first `BUDGET` instructions of every workload's Primary trace.
fn traces() -> Vec<(String, Vec<Fed>)> {
    all(Scale::Test)
        .into_iter()
        .map(|w| {
            let mut rm = RefMachine::new(&w.image());
            let mut pipeline = PipelineModel::new(PrimaryTiming::default());
            let mut reject_delay_slot = false;
            let mut fed = Vec::new();
            while rm.retired < BUDGET {
                let resident = rm.state.resident;
                let s = rm.step().expect("workload runs");
                let d = s.dyn_instr;
                let ticks = pipeline.cycles_for(&d, s.window_trap);
                let live_delay_cti = d.instr.is_cti() && !d.delay_is_nop;
                if d.instr.is_non_schedulable()
                    || s.window_trap
                    || live_delay_cti
                    || reject_delay_slot
                {
                    fed.push(Fed::Reject {
                        pc: d.pc,
                        seq: d.seq,
                    });
                } else {
                    fed.push(Fed::Insert { d, resident, ticks });
                }
                reject_delay_slot = live_delay_cti;
                if s.halt.is_some() {
                    break;
                }
            }
            (w.name.to_string(), fed)
        })
        .collect()
}

/// Feed every trace through a scheduler built from `cfg`, checking the
/// equations before each tick. Returns the number of resolutions seen.
fn check(cfg: SchedConfig) -> u64 {
    let mut resolutions = 0;
    for (name, fed) in traces() {
        let mut s = Scheduler::new(cfg.clone());
        s.trace_events = Some(Vec::new());
        for f in &fed {
            match f {
                Fed::Insert { d, resident, ticks } => {
                    for _ in 0..*ticks {
                        let predicted = predict(&s);
                        s.tick();
                        let actual = s.trace_events.replace(Vec::new()).unwrap();
                        assert_eq!(
                            predicted, actual,
                            "{name}: signal equations disagree with the scheduler before seq {}",
                            d.seq
                        );
                        resolutions += actual.len() as u64;
                    }
                    s.insert(d, *resident);
                }
                Fed::Reject { pc, seq } => {
                    s.seal(*pc, *seq);
                }
            }
        }
        assert!(s.stats().blocks > 0, "{name}: no block sealed");
    }
    assert!(resolutions > 0, "no candidate resolved");
    resolutions
}

#[test]
fn equations_match_feasible_machine() {
    check(SchedConfig::feasible_paper());
}

#[test]
fn equations_match_dif_comparison_machine() {
    check(SchedConfig::dif_comparison());
}

#[test]
fn equations_match_widest_ideal_geometry() {
    check(SchedConfig::homogeneous(16, 16));
}

#[test]
fn equations_match_multicycle_latencies() {
    let mut cfg = SchedConfig::feasible_paper();
    cfg.latencies = Latencies { load: 2, fp: 3 };
    check(cfg);
}

#[test]
fn equations_match_without_splitting() {
    let mut cfg = SchedConfig::feasible_paper();
    cfg.enable_splitting = false;
    check(cfg);
}

#[test]
fn equations_match_without_redirection() {
    let mut cfg = SchedConfig::feasible_paper();
    cfg.enable_redirect = false;
    check(cfg);
}
