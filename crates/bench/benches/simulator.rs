//! Component throughput microbenchmarks: the sequential interpreter,
//! the Scheduler Unit, the VLIW Engine (via the complete machine) —
//! ablations for the per-component costs DESIGN.md calls out.
//!
//! Dependency-free manual harness (`harness = false`); see
//! `benches/experiments.rs` for the timing scheme.

use dtsvliw_core::{Machine, MachineConfig};
use dtsvliw_primary::RefMachine;
use dtsvliw_sched::scheduler::{SchedConfig, Scheduler};
use dtsvliw_workloads::{by_name, Scale};
use std::time::Instant;

const SAMPLES: usize = 5;

fn bench(name: &str, elements: u64, mut f: impl FnMut() -> u64) {
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
                    if let dtsvliw_sched::InsertOutcome::Inserted(Some(_)) = s.insert(d, 1) {
                        sealed += 1;
                    }
                }
                sealed
            },
        );
    }

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
