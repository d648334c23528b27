//! Pinned simulated results. FNV-1a digests of the serialised
//! `RunStats` plus console output, for all 8 workloads under a plain, a
//! fault-storm and a circuit-breaker configuration, and of the JSONL
//! trace stream of two fault-storm runs, are fixed here. Any change to
//! the machine's timing, statistics, recovery or trace emission shows
//! up as a digest mismatch.
//!
//! The Scheduler Unit's output is pinned separately, block by block:
//! for the same workloads under six scheduler-heavy configurations,
//! the digest also covers the `Block::content_hash` of every block the
//! machine installs.
//!
//! Every configuration must run through the batched VLIW loop (bursts
//! taken), and arming every observation hook at once (tracer, hot-block
//! profiler at N = 1 and N = 16, heartbeat) must leave the digests
//! unchanged: observation never perturbs the simulation.

use dtsvliw_core::{Machine, MachineConfig};
use dtsvliw_faults::FaultPlan;
use dtsvliw_json::ToJson;
use dtsvliw_sched::scheduler::Latencies;
use dtsvliw_trace::{sink_to_writer, BlockProfiler, Heartbeat, TraceFormat, Tracer};
use dtsvliw_vliw::VliwCacheConfig;
use dtsvliw_workloads::{by_name, Scale};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Instruction budget per run: enough for every workload to warm the
/// VLIW Cache and chain blocks, small enough for a debug build.
const BUDGET: u64 = 40_000;

/// `(workload, [plain, storm, breaker])` digests of `RunStats` JSON
/// followed by the console output, in the paper's Table 2 order.
const PINNED: [(&str, [u64; 3]); 8] = [
    (
        "compress",
        [0x78bdb8961f4a248f, 0x434eabe63e55d608, 0x5c8b52e232099c26],
    ),
    (
        "gcc",
        [0xa114b6d440b4c3fc, 0xa20b278c42f671ca, 0x089d649df4e7d005],
    ),
    (
        "go",
        [0x532401e91cea3ce2, 0x8f0218673aa98f3f, 0x225abfc63f918f08],
    ),
    (
        "ijpeg",
        [0x400d653b1aee1014, 0xa4836b3f882393bc, 0xf29872192ccd0616],
    ),
    (
        "m88ksim",
        [0x6239887013c4c3a1, 0xe504703acd36c7bf, 0xcbdaec86cb5f4bd2],
    ),
    (
        "perl",
        [0x098e84e00e34d177, 0x229e0249ee449ba4, 0x03f0c578b450a633],
    ),
    (
        "vortex",
        [0x831bfd241e0f9df6, 0x8fa94281df1b8cbe, 0xdaafd2d6f3492ac5],
    ),
    (
        "xlisp",
        [0xcbc2253edb912373, 0x38a9c86088a49db0, 0xe866502e6f819861],
    ),
];

/// Digests of the JSONL trace bytes of the fault-storm runs.
const PINNED_TRACE: [(&str, u64); 2] = [
    ("compress", 0x120bd9b6a22a636b),
    ("xlisp", 0x6b2e12fa91bdb1c6),
];

/// The three configurations, in `PINNED` column order.
fn configs() -> [(&'static str, MachineConfig); 3] {
    let base = MachineConfig::feasible_paper();
    [
        ("plain", base.clone()),
        (
            "storm",
            base.clone()
                .with_faults(FaultPlan::all_sites(0.02, 8, 0xDEC0DE)),
        ),
        (
            "breaker",
            base.with_faults(FaultPlan::all_sites(0.05, 16, 77))
                .with_breaker(2, 20_000, 50_000),
        ),
    ]
}

/// `(workload, [thrash, ideal16, dif, multicycle, nosplit, noredirect])`
/// digests of `RunStats` JSON, console output and every installed
/// block's content hash, in the paper's Table 2 order.
const PINNED_SCHED: [(&str, [u64; 6]); 8] = [
    (
        "compress",
        [
            0x313ad0e9c239c4db,
            0x1784b4d55ea8b4cb,
            0x13cc5bd6dae14b36,
            0x2008033de9d0dce3,
            0x2ddcc68034e00191,
            0xaf5b50a5a1bd6fdd,
        ],
    ),
    (
        "gcc",
        [
            0x871d1fdd33a5faab,
            0x82cf3b4509b7ce23,
            0x0069c642eedbe319,
            0x5b09170cb1688663,
            0xea5233a87b76c62f,
            0x1a96139aadb85fbd,
        ],
    ),
    (
        "go",
        [
            0x91070f500c41550b,
            0x0d26bf3000be058a,
            0xeec3afa6e72ed08b,
            0x765c3ae047df02f6,
            0xb0a7f271a8793d40,
            0x9b7dd36fa78c3130,
        ],
    ),
    (
        "ijpeg",
        [
            0x66c438db006ec231,
            0xb43aa8e8ae8ec4bc,
            0x866a8a96d86ae007,
            0x4274839a4828e925,
            0x3ff4908dc5dbdc06,
            0x204a3a0ff348e40a,
        ],
    ),
    (
        "m88ksim",
        [
            0x564bd2ef32877398,
            0xc88a65e68d227a84,
            0xcd39dd7d67b25d35,
            0x78685e052e7a7ba0,
            0x45f09a5c3bfe820d,
            0x4bb317cf9738225d,
        ],
    ),
    (
        "perl",
        [
            0xf275755d5231573f,
            0xa522df843c13f220,
            0x5a0fabdb3092f30d,
            0xa2aa881375ad15d0,
            0xb552a66826e76bce,
            0xd83b7902dc35761d,
        ],
    ),
    (
        "vortex",
        [
            0xd614d2b1d63f5a83,
            0x5e6f9269f443c1cb,
            0x3b59bd4800fead14,
            0x94a10b8d5955c405,
            0x1f3be9186ef5b29c,
            0x1aa6b2e713c4a0ee,
        ],
    ),
    (
        "xlisp",
        [
            0x729dc69dcc6e1061,
            0x0431da28de350f33,
            0xfb404f74279628c2,
            0xbc11272f5f7f1aa0,
            0xbf806095b6a97326,
            0x944af4f947604eb3,
        ],
    ),
];

/// The scheduler-heavy configurations, in `PINNED_SCHED` column order:
/// the feasible machine with a 3 KB direct-mapped VLIW Cache (constant
/// premature flushing), the widest ideal geometry of the figures, the
/// DIF machine's greedy scheduling (`Scheduler::settle`), multicycle
/// latencies, and the two splitting ablations.
fn sched_configs() -> [(&'static str, MachineConfig); 6] {
    let base = MachineConfig::feasible_paper();
    let mut thrash = base.clone();
    let v = thrash.vliw_cache;
    thrash.vliw_cache = VliwCacheConfig::kb(3, 1, v.width, v.height);
    let mut multicycle = base.clone();
    multicycle.sched.latencies = Latencies { load: 2, fp: 3 };
    let mut nosplit = base.clone();
    nosplit.sched.enable_splitting = false;
    let mut noredirect = base;
    noredirect.sched.enable_redirect = false;
    [
        ("thrash", thrash),
        ("ideal16", MachineConfig::ideal(16, 16)),
        ("dif", MachineConfig::dif_machine()),
        ("multicycle", multicycle),
        ("nosplit", nosplit),
        ("noredirect", noredirect),
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Shared in-memory writer: one clone goes to the sink, the other reads
/// the bytes back after the run.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Everything simulated: statistics and console output.
fn result_doc(m: &Machine) -> String {
    let mut doc = m.stats().to_json().to_string();
    doc.push('\n');
    doc.push_str(&m.output_string());
    doc
}

fn result_digest(m: &Machine) -> u64 {
    fnv1a(result_doc(m).as_bytes())
}

/// [`result_digest`] extended with the content hash of every block the
/// machine installed, in install order.
fn sched_digest(m: &Machine) -> u64 {
    let mut doc = result_doc(m);
    for h in m.install_hashes() {
        doc.push_str(&format!("\n{h:016x}"));
    }
    fnv1a(doc.as_bytes())
}

fn machine(name: &str, cfg: MachineConfig) -> Machine {
    let w = by_name(name, Scale::Test).expect("known workload");
    Machine::new(cfg, &w.image())
}

/// Hook-free runs reproduce the pinned digests and take the burst loop.
#[test]
fn results_match_pinned_digests_and_burst() {
    let mut failures = Vec::new();
    for (name, digests) in PINNED {
        for ((label, cfg), want) in configs().into_iter().zip(digests) {
            let mut m = machine(name, cfg);
            m.run(BUDGET).expect("workload runs");
            let got = result_digest(&m);
            if got != want {
                failures.push(format!("{name}/{label}: {got:#018x}"));
            }
            assert!(m.fast_path_stats().0 > 0, "{name}/{label}: no burst taken");
        }
    }
    assert!(failures.is_empty(), "digests differ: {failures:#?}");
}

/// Every block the Scheduler Unit builds under the scheduler-heavy
/// configurations is pinned, together with the run's statistics.
#[test]
fn scheduler_outputs_match_pinned_digests() {
    let mut failures = Vec::new();
    for (name, digests) in PINNED_SCHED {
        for ((label, cfg), want) in sched_configs().into_iter().zip(digests) {
            let mut m = machine(name, cfg);
            m.record_install_hashes();
            m.run(BUDGET).expect("workload runs");
            assert!(
                !m.install_hashes().is_empty(),
                "{name}/{label}: no block installed"
            );
            let got = sched_digest(&m);
            if got != want {
                failures.push(format!("{name}/{label}: {got:#018x}"));
            }
        }
    }
    assert!(failures.is_empty(), "digests differ: {failures:#?}");
}

/// Tracer, hot-block profiler and heartbeat armed together change no
/// simulated result and keep the burst loop running, whether the
/// profiler records every block entry (N = 1) or samples one in 16.
#[test]
fn armed_hooks_leave_results_unchanged() {
    for every in [1, 16] {
        for (name, digests) in PINNED {
            for ((label, cfg), want) in configs().into_iter().zip(digests) {
                let mut m = machine(name, cfg);
                let sink = sink_to_writer(TraceFormat::Jsonl, Box::new(Shared::default()));
                m.attach_tracer(Box::new(Tracer::with_sink(1024, sink)));
                m.attach_profiler(Box::new(BlockProfiler::new(every)));
                m.attach_heartbeat(Box::new(Heartbeat::new(1_000, None)));
                m.run(BUDGET).expect("workload runs");
                assert!(
                    m.fast_path_stats().0 > 0,
                    "{name}/{label}/N={every}: hooks disarmed the burst loop"
                );
                // The tracer's event counters are folded into `stats()`
                // while it is attached; detach it to compare simulated
                // state alone.
                drop(m.take_tracer());
                assert_eq!(
                    result_digest(&m),
                    want,
                    "{name}/{label}/N={every}: armed hooks perturbed the simulation"
                );
            }
        }
    }
}

/// The JSONL trace of a fault-storm run is pinned byte for byte: every
/// event, including per-LI commits and D-cache misses, lands at the
/// same cycle in the same order.
#[test]
fn fault_storm_trace_bytes_match_pinned_digests() {
    let (_, storm) = configs()[1].clone();
    for (name, want) in PINNED_TRACE {
        let mut m = machine(name, storm.clone());
        let buf = Shared::default();
        let sink = sink_to_writer(TraceFormat::Jsonl, Box::new(buf.clone()));
        m.attach_tracer(Box::new(Tracer::with_sink(1024, sink)));
        m.run(BUDGET).expect("workload runs");
        let cycles = m.stats().cycles;
        let mut t = m.take_tracer().expect("tracer attached");
        t.finish(cycles).expect("in-memory sink cannot fail");
        assert!(
            m.stats().faults.total_injected() > 0,
            "{name}: no fault injected"
        );
        let bytes = buf.0.lock().unwrap().clone();
        assert_eq!(
            fnv1a(&bytes),
            want,
            "{name}: trace bytes differ ({} bytes)",
            bytes.len()
        );
    }
}
