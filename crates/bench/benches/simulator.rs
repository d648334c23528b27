//! Component throughput microbenchmarks: the sequential interpreter,
//! the Scheduler Unit, the VLIW Engine (via the complete machine) —
//! ablations for the per-component costs DESIGN.md calls out.
//!
//! Dependency-free manual harness (`harness = false`); see
//! `benches/experiments.rs` for the timing scheme.

use dtsvliw_core::{Machine, MachineConfig};
use dtsvliw_isa::DynInstr;
use dtsvliw_json::Fnv1a;
use dtsvliw_mem::{Cache, CacheConfig};
use dtsvliw_primary::{PipelineModel, PrimaryTiming, RefMachine};
use dtsvliw_sched::scheduler::{SchedConfig, Scheduler};
use dtsvliw_sched::{Block, InsertOutcome};
use dtsvliw_workloads::{all, by_name, Scale};
use std::hash::Hasher;
use std::time::Instant;

const SAMPLES: usize = 5;

/// Is the benchmark `name` selected? Every non-flag argument is a
/// substring filter (`cargo bench --bench simulator -- scheduler/`);
/// with none, everything runs.
fn selected(name: &str) -> bool {
    let mut filters = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .peekable();
    filters.peek().is_none() || filters.any(|f| name.contains(&f))
}

fn bench(name: &str, elements: u64, mut f: impl FnMut() -> u64) {
    if !selected(name) {
        return;
    }
    let check = f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let got = f();
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(got, check, "nondeterministic benchmark body");
        best = best.min(dt);
    }
    let rate = elements as f64 / best / 1e6;
    println!("{name:<34}{:>10.3} ms{:>10.2} M elem/s", best * 1e3, rate);
}

/// One instruction of a Primary trace as the Scheduler Unit sees it.
enum Fed {
    /// Tick the list `ticks` times (pipeline plus I/D-cache cycles), then
    /// insert.
    Insert {
        d: DynInstr,
        resident: u8,
        ticks: u32,
    },
    /// A rejected instruction: seal the list.
    Reject { pc: u32, seq: u64 },
}

/// The whole Primary trace of one program, fed with the machine's tick
/// and reject rule on the feasible machine's caches.
fn feasible_trace(img: &dtsvliw_asm::Image) -> Vec<Fed> {
    let mut rm = RefMachine::new(img);
    let mut pipeline = PipelineModel::new(PrimaryTiming::default());
    let mut icache = Cache::new(CacheConfig::paper_icache());
    let mut dcache = Cache::new(CacheConfig::paper_dcache());
    let mut reject_delay_slot = false;
    let mut fed = Vec::new();
    loop {
        let resident = rm.state.resident;
        let s = rm.step().expect("workload runs");
        let d = s.dyn_instr;
        let mut ticks = pipeline.cycles_for(&d, s.window_trap) + icache.access_cost(d.pc) as u64;
        if let Some(addr) = d.eff_addr {
            ticks += dcache.access_cost(addr) as u64;
        }
        let live_delay_cti = d.instr.is_cti() && !d.delay_is_nop;
        if d.instr.is_non_schedulable() || s.window_trap || live_delay_cti || reject_delay_slot {
            fed.push(Fed::Reject {
                pc: d.pc,
                seq: d.seq,
            });
        } else {
            fed.push(Fed::Insert {
                d,
                resident,
                ticks: ticks as u32,
            });
        }
        reject_delay_slot = live_delay_cti;
        if s.halt.is_some() {
            return fed;
        }
    }
}

/// `scheduler/feasible_suite_replay`: the Scheduler Unit alone on the
/// whole `Scale::Test` trace of every Table 2 program, as the feasible
/// machine feeds it (heterogeneous slots, several ticks per insert,
/// seals on rejected instructions). Each program's trace is captured,
/// replayed `SAMPLES + 1` times and dropped before the next one; the
/// best replay of each program is summed. Every replay must seal the
/// same blocks (content-hash digest) and end with the same `SchedStats`;
/// the printed digest folds both over the suite, so two builds can be
/// checked for identical scheduling. The clock stops while a sealed
/// block is hashed: that check is the harness's, not the scheduler's.
fn feasible_suite_replay() {
    const NAME: &str = "scheduler/feasible_suite_replay";
    if !selected(NAME) {
        return;
    }
    let (mut best_total, mut fed_total, mut suite) = (0.0, 0u64, Fnv1a::default());
    for w in all(Scale::Test) {
        let fed = feasible_trace(&w.image());
        let replay = || {
            let mut s = Scheduler::new(SchedConfig::feasible_paper());
            let (mut digest, mut elapsed) = (Fnv1a::default(), 0.0);
            let mut t = Instant::now();
            // The block is dropped on the clock, as a VLIW Cache eviction
            // would; only the hashing is off it.
            let mut seal = |b: Block| {
                elapsed += t.elapsed().as_secs_f64();
                digest.write_u64(b.content_hash());
                t = Instant::now();
            };
            for f in &fed {
                match f {
                    Fed::Insert { d, resident, ticks } => {
                        for _ in 0..*ticks {
                            s.tick();
                        }
                        if let InsertOutcome::Inserted(Some(b)) = s.insert(d, *resident) {
                            seal(b);
                        }
                    }
                    Fed::Reject { pc, seq } => {
                        if let Some(b) = s.seal(*pc, *seq) {
                            seal(b);
                        }
                    }
                }
            }
            let elapsed = elapsed + t.elapsed().as_secs_f64();
            ((digest.finish(), s.stats()), elapsed)
        };
        let (check, _) = replay();
        let mut best = f64::INFINITY;
        for _ in 0..SAMPLES {
            let (got, elapsed) = replay();
            best = best.min(elapsed);
            assert_eq!(got, check, "{}: nondeterministic scheduler replay", w.name);
        }
        best_total += best;
        fed_total += fed.len() as u64;
        let (digest, st) = check;
        for v in [
            digest,
            st.blocks,
            st.lis,
            st.slots_filled,
            st.instrs,
            st.installs,
            st.moves,
            st.splits,
        ] {
            suite.write_u64(v);
        }
    }
    println!(
        "{NAME:<34}{:>10.3} ms{:>10.2} M elem/s{:>9.1} ns/instr  digest {:016x}",
        best_total * 1e3,
        fed_total as f64 / best_total / 1e6,
        best_total * 1e9 / fed_total as f64,
        suite.finish()
    );
}

fn main() {
    println!("{:<34}{:>13}{:>18}", "benchmark", "best", "throughput");

    // Sequential interpreter throughput.
    let w = by_name("ijpeg", Scale::Test).unwrap();
    let img = w.image();
    bench("interpreter/ref_machine_100k", 100_000, || {
        let mut m = RefMachine::new(&img);
        m.run(100_000).unwrap();
        100_000
    });
    // The lockstep oracle's path: the same body, recording nothing.
    bench("interpreter/ref_machine_run_to_100k", 100_000, || {
        let mut m = RefMachine::new(&img);
        let mut out = Vec::new();
        m.run_to(100_000, &mut out).unwrap();
        m.retired
    });

    // Pre-capture a trace, then measure pure scheduling throughput.
    let w = by_name("compress", Scale::Test).unwrap();
    let mut m = RefMachine::new(&w.image());
    let mut trace = Vec::new();
    for _ in 0..50_000 {
        let s = m.step().unwrap();
        if s.halt.is_some() {
            break;
        }
        if !s.dyn_instr.instr.is_non_schedulable() {
            trace.push(s.dyn_instr);
        }
    }
    for (w_, h) in [(4usize, 4usize), (8, 8), (16, 16)] {
        bench(
            &format!("scheduler/fcfs_{w_}x{h}"),
            trace.len() as u64,
            || {
                let mut s = Scheduler::new(SchedConfig::homogeneous(w_, h));
                let mut sealed = 0u64;
                for d in &trace {
                    s.tick();
                    if let InsertOutcome::Inserted(Some(_)) = s.insert(d, 1) {
                        sealed += 1;
                    }
                }
                sealed
            },
        );
    }

    feasible_suite_replay();

    // Complete machine.
    for name in ["compress", "go"] {
        let w = by_name(name, Scale::Test).unwrap();
        let img = w.image();
        bench(
            &format!("full_machine/ideal8x8_{name}_100k"),
            100_000,
            || {
                let mut m = Machine::new(MachineConfig::ideal(8, 8), &img);
                m.run(100_000).unwrap();
                m.stats().cycles
            },
        );
    }
    // Ablation: verification (test-mode state comparison) cost.
    let w = by_name("compress", Scale::Test).unwrap();
    let img = w.image();
    bench("full_machine/compress_no_verify", 100_000, || {
        let mut cfg = MachineConfig::ideal(8, 8);
        cfg.verify = false;
        let mut m = Machine::new(cfg, &img);
        m.run(100_000).unwrap();
        m.stats().cycles
    });
}
