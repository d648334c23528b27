//! Differential tests for the always-on telemetry layer: heartbeat and
//! sampling profiler must be *burst-compatible* (the burst loop keeps
//! chaining blocks with them armed) and *invisible* (simulated results
//! are byte-identical to a hook-free run). The sampled profile must
//! converge to the exact (N = 1) profile's hot-block ranking.

use dtsvliw_core::{Machine, MachineConfig};
use dtsvliw_json::{Json, ToJson};
use dtsvliw_trace::{BlockProfiler, Heartbeat};
use dtsvliw_workloads::{by_name, Scale};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// The eight workload names in the paper's Table 2 order.
const WORKLOADS: [&str; 8] = [
    "compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex", "xlisp",
];

/// Instruction budget per workload: enough for every workload to warm
/// the VLIW Cache and chain blocks, small enough for a debug build.
const BUDGET: u64 = 40_000;

/// Heartbeat cadence: small enough that every workload emits a
/// meaningful stream within BUDGET.
const EVERY: u64 = 1_000;

/// Shared in-memory writer so tests can capture heartbeat JSONL.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Shared {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn machine(name: &str) -> Machine {
    let w = by_name(name, Scale::Test).expect("known workload");
    Machine::new(MachineConfig::feasible_paper(), &w.image())
}

/// All 8 workloads: with the heartbeat armed the burst loop must still
/// chain blocks, `RunStats`, output and outcome must be byte-identical
/// to a heartbeat-off run, and the stream must be deterministic across
/// reruns.
#[test]
fn heartbeat_is_burst_compatible_and_invisible() {
    for name in WORKLOADS {
        let hb_run = || {
            let buf = Shared::default();
            let mut m = machine(name);
            m.attach_heartbeat(Box::new(Heartbeat::new(EVERY, Some(Box::new(buf.clone())))));
            let out = m.run(BUDGET).expect("workload runs");
            let mut hb = m.take_heartbeat().expect("heartbeat attached");
            hb.finish().expect("in-memory writer cannot fail");
            assert!(hb.emitted() > 0, "{name}: no heartbeat ever emitted");
            assert_eq!(hb.emitted(), m.telemetry().heartbeats);
            (
                out,
                m.stats().to_json().to_string(),
                m.output_string(),
                m.fast_path_stats(),
                buf.text(),
            )
        };

        let (out_a, stats_a, text_a, (bursts_a, chained_a), stream_a) = hb_run();
        assert!(bursts_a > 0, "{name}: no burst with heartbeat armed");
        assert!(
            chained_a > 0,
            "{name}: no chain crossed with heartbeat armed"
        );

        // Heartbeat off: simulated results byte-identical.
        let mut free = machine(name);
        let out_b = free.run(BUDGET).expect("workload runs");
        assert_eq!(out_a, out_b, "{name}: outcome differs under heartbeat");
        assert_eq!(
            stats_a,
            free.stats().to_json().to_string(),
            "{name}: statistics differ under heartbeat"
        );
        assert_eq!(
            text_a,
            free.output_string(),
            "{name}: output differs under heartbeat"
        );

        // Determinism: a rerun reproduces the stream byte for byte
        // (this is what makes the supervisor's merged campaign timeline
        // a deterministic artifact).
        let (_, _, _, _, stream_a2) = hb_run();
        assert_eq!(
            stream_a, stream_a2,
            "{name}: heartbeat stream not deterministic"
        );
    }
}

/// Heartbeat stream schema: every line parses, `seq` counts from 0,
/// cycle stamps are strictly increasing with gaps >= the cadence, and
/// the attribution pools partition the cycle counter exactly.
#[test]
fn heartbeat_schema_and_cadence() {
    let buf = Shared::default();
    let mut m = machine("compress");
    m.attach_heartbeat(Box::new(Heartbeat::new(EVERY, Some(Box::new(buf.clone())))));
    m.run(BUDGET).expect("workload runs");
    let mut hb = m.take_heartbeat().expect("heartbeat attached");
    hb.finish().expect("in-memory writer cannot fail");
    let text = buf.text();
    let mut prev_cycle = 0u64;
    let mut count = 0u64;
    for (i, line) in text.lines().enumerate() {
        let j = Json::parse(line).expect("heartbeat line parses");
        assert_eq!(j.get("seq").and_then(Json::as_u64), Some(i as u64));
        let cycle = j.get("cycle").and_then(Json::as_u64).expect("cycle");
        if i > 0 {
            assert!(
                cycle >= prev_cycle + EVERY,
                "cycle gap {} < cadence {EVERY}",
                cycle - prev_cycle
            );
        }
        prev_cycle = cycle;
        let pools: u64 = [
            "vliw_cycles",
            "primary_cycles",
            "overhead_cycles",
            "degraded_cycles",
        ]
        .iter()
        .map(|k| j.get(k).and_then(Json::as_u64).expect("pool"))
        .sum();
        assert_eq!(
            pools, cycle,
            "attribution pools must partition the cycle count"
        );
        assert!(j.get("ipc").is_some());
        assert!(j.get("breaker_open").and_then(Json::as_bool).is_some());
        assert!(j.get("instructions").and_then(Json::as_u64).unwrap() <= BUDGET);
        count += 1;
    }
    assert!(
        count >= 5,
        "expected a meaningful stream, got {count} records"
    );
}

/// All 8 workloads: the sampling profiler keeps the burst loop
/// running, never perturbs simulated results, and its top-10 hot
/// blocks overlap the exact (N = 1) profile's top-10 by at least 8.
#[test]
fn sampled_profile_matches_exact_ranking() {
    for name in WORKLOADS {
        let mut exact = machine(name);
        exact.attach_profiler(Box::new(BlockProfiler::new(1)));
        exact.run(BUDGET).expect("workload runs");
        assert!(exact.fast_path_stats().0 > 0, "{name}: no burst at N = 1");
        let exact_stats = exact.stats().to_json().to_string();
        let exact_prof = exact.take_profiler().unwrap();

        let mut sampled = machine(name);
        sampled.attach_profiler(Box::new(BlockProfiler::new(4)));
        sampled.run(BUDGET).expect("workload runs");
        let (bursts, _) = sampled.fast_path_stats();
        assert!(bursts > 0, "{name}: no burst at N = 4");
        assert_eq!(
            exact_stats,
            sampled.stats().to_json().to_string(),
            "{name}: sampling perturbed the simulation"
        );
        let smp = sampled.take_profiler().unwrap();
        assert!(smp.entries_seen() > 0, "{name}: profiler saw no entries");
        assert!(
            smp.sampled() >= smp.entries_seen() / 4,
            "{name}: sampled fewer entries than the period implies"
        );

        // Rank overlap: top-10 by cycles, as (tag, cwp) identity sets.
        let top = |p: &BlockProfiler| -> Vec<(u32, u8)> {
            p.hottest(10)
                .iter()
                .map(|b| (b.tag_addr, b.entry_cwp))
                .collect()
        };
        let exact_top = top(&exact_prof);
        let sampled_top = top(&smp);
        let k = exact_top.len().min(sampled_top.len());
        let overlap = exact_top
            .iter()
            .filter(|id| sampled_top.contains(id))
            .count();
        let need = (k * 8).div_ceil(10);
        assert!(
            overlap >= need,
            "{name}: sampled top-{k} overlaps exact by only {overlap} (need {need});\n\
             exact: {exact_top:?}\nsampled: {sampled_top:?}"
        );
    }
}

/// The telemetry registry's burst accounting must tie out with the
/// machine's own counters: burst cycles/instructions can never exceed
/// the totals, and a hook-free test-scale run spends the overwhelming
/// majority of its VLIW cycles inside bursts.
#[test]
fn burst_deltas_tie_out_with_run_totals() {
    let mut m = machine("xlisp");
    m.run(BUDGET).expect("workload runs");
    let stats = m.stats();
    let t = m.telemetry();
    assert!(t.bursts > 0);
    assert_eq!(t.burst_len_cycles.count(), t.bursts);
    assert_eq!(t.burst_chain_len.count(), t.bursts);
    assert_eq!(t.burst_chain_len.sum(), t.burst_chained);
    assert!(t.burst_cycles <= stats.cycles);
    assert!(t.burst_instructions <= stats.instructions);
    assert!(t.burst_vliw_cycles <= stats.vliw_cycles);
    assert!(
        t.burst_vliw_cycles * 2 > stats.vliw_cycles,
        "expected most VLIW cycles inside bursts: {} of {}",
        t.burst_vliw_cycles,
        stats.vliw_cycles
    );
    assert!(t.burst_lis > 0);
    assert!(t.burst_ops <= t.burst_slots);
    let occ = t.burst_slot_occupancy();
    assert!(occ > 0.0 && occ <= 1.0);
    // The telemetry JSON parses and carries the headline counters.
    let j = t.to_json();
    let parsed = Json::parse(&j.to_string()).expect("telemetry JSON parses");
    assert_eq!(parsed.get("bursts").and_then(Json::as_u64), Some(t.bursts));

    // And it stays out of RunStats: the serialised stats carry no
    // telemetry keys.
    let stats_json = stats.to_json().to_string();
    assert!(!stats_json.contains("burst"));
    assert!(!stats_json.contains("heartbeat"));
}
