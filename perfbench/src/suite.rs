//! The `suite_hot` and `suite_thrash` workloads: the eight Table 2
//! programs run to completion one after another on one thread, on the
//! feasible machine with caches starting empty.

use crate::replay::{self, LayerCosts};
use crate::report::Report;
use crate::seed::{self, Source};
use crate::spans::{SpanId, Spans};
use crate::stats::{geomean, median, percentile, ratio, stepped_percentile};
use dtsvliw_bench::supervise::fnv1a;
use dtsvliw_core::{Machine, MachineConfig, MachineError, RunStats};
use dtsvliw_json::ToJson;
use dtsvliw_vliw::VliwCacheConfig;
use dtsvliw_workloads::Scale;
use std::path::Path;
use std::time::{Duration, Instant};

/// The programs' size: a pass over all eight takes about a second, so a
/// run repeats every slice many times, spread over the whole run.
pub const SCALE: Scale = Scale::Test;
/// Instructions per timed slice of `Machine::run`: one latency sample.
pub const SLICE: u64 = 25_000;
/// Every suite program halts well before this at [`SCALE`].
const MAX_INSTRUCTIONS: u64 = 500_000_000;
/// Passes over the suite a run makes at least (repeats are compared).
const MIN_PASSES: usize = 3;
/// Set-ups a run times beyond the one per pass (for `setup_s`).
const EXTRA_SETUPS: usize = 8;
/// Slack allowed on the sum of the per-layer estimated shares.
pub const EST_SHARE_SLACK: f64 = 0.25;

/// The feasible machine; `thrash` shrinks the VLIW Cache to 3 KB
/// direct-mapped.
pub fn config(thrash: bool) -> MachineConfig {
    let mut cfg = MachineConfig::feasible_paper();
    if thrash {
        let v = cfg.vliw_cache;
        cfg.vliw_cache = VliwCacheConfig::kb(3, 1, v.width, v.height);
    }
    cfg
}

/// Digest of every simulated statistic of a run.
pub fn stats_digest(s: &RunStats) -> u64 {
    fnv1a(s.to_json().to_string().as_bytes())
}

/// Run `m` in slices of [`SLICE`] instructions until it exits or
/// retires `limit`, appending each slice's `(instructions retired,
/// host ns)` to `slices`. Returns the exit code, if the program exited.
pub fn run_sliced(
    m: &mut Machine,
    limit: u64,
    slices: &mut Vec<(u64, f64)>,
) -> Result<Option<u32>, MachineError> {
    let mut done = 0;
    while done < limit {
        let t = Instant::now();
        let out = m.run((done + SLICE).min(limit))?;
        slices.push((out.instructions - done, t.elapsed().as_nanos() as f64));
        done = out.instructions;
        if out.exit_code.is_some() {
            return Ok(out.exit_code);
        }
    }
    Ok(None)
}

/// One program's run in one pass.
pub struct ProgRun {
    pub name: &'static str,
    pub stats: RunStats,
    pub digest: u64,
    pub exit: Option<u32>,
    pub error: Option<String>,
    pub compile_ns: f64,
    pub new_ns: f64,
    pub run_ns: f64,
    /// `(instructions retired, host ns)` of each slice of the run.
    pub slices: Vec<(u64, f64)>,
    pub bursts: u64,
    pub chained: u64,
    /// `(write ms, bytes, resume ms)` when the pass snapshots.
    pub snapshot: Option<(f64, u64, f64)>,
}

/// The set-up: compile every program and build its machine. Returns
/// each machine with the host ns its compile and build took.
fn build(
    cfg: &MachineConfig,
    sources: &[Source],
    spans: &mut Spans,
    parent: SpanId,
) -> Result<Vec<(Machine, f64, f64)>, String> {
    let mut machines = Vec::new();
    for (name, src, _) in sources {
        let s = spans.begin("minicc.compile", Some(parent));
        let t = Instant::now();
        let image = seed::compile(name, src)?;
        let compile_ns = t.elapsed().as_nanos() as f64;
        spans.end(s);
        let s = spans.begin("core.new", Some(parent));
        let t = Instant::now();
        let m = Machine::new(cfg.clone(), &image);
        let new_ns = t.elapsed().as_nanos() as f64;
        spans.end(s);
        machines.push((m, compile_ns, new_ns));
    }
    Ok(machines)
}

/// One pass: compile and build every machine (the set-up), then run
/// each to completion in slices. With `snap_dir`, each finished machine
/// is also snapshotted and resumed, and the resumed statistics must
/// equal the original's.
pub fn pass(
    cfg: &MachineConfig,
    sources: &[Source],
    spans: &mut Spans,
    parent: SpanId,
    snap_dir: Option<&Path>,
) -> Result<(f64, Vec<ProgRun>), String> {
    let span = spans.begin("pass", Some(parent));
    let setup = Instant::now();
    let machines = build(cfg, sources, spans, span)?;
    let setup_ns = setup.elapsed().as_nanos() as f64;

    let mut runs = Vec::new();
    for ((name, _, _), (mut m, compile_ns, new_ns)) in sources.iter().zip(machines) {
        let s = spans.begin("core.run", Some(span));
        let mut slices = Vec::new();
        let (exit, mut error) = match run_sliced(&mut m, MAX_INSTRUCTIONS, &mut slices) {
            Ok(Some(code)) => (Some(code), None),
            Ok(None) => (
                None,
                Some(format!(
                    "{name}: no exit within {MAX_INSTRUCTIONS} instructions"
                )),
            ),
            Err(e) => (None, Some(format!("{name}: {e}"))),
        };
        spans.end(s);
        let stats = m.stats();
        let digest = stats_digest(&stats);
        let (bursts, chained) = m.fast_path_stats();
        let snapshot = match snap_dir {
            Some(dir) if error.is_none() => {
                let s = spans.begin("core.snapshot_write", Some(span));
                let t = Instant::now();
                let path = m
                    .write_snapshot(&dir.join(name))
                    .map_err(|e| format!("{name}: snapshot: {e}"))?;
                let write_ms = t.elapsed().as_nanos() as f64 / 1e6;
                spans.end(s);
                let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                let s = spans.begin("core.resume", Some(span));
                let t = Instant::now();
                let back = Machine::resume_from(cfg.clone(), &path)
                    .map_err(|e| format!("{name}: resume: {e}"))?;
                let resume_ms = t.elapsed().as_nanos() as f64 / 1e6;
                spans.end(s);
                if stats_digest(&back.stats()) != digest {
                    error = Some(format!("{name}: resumed statistics differ"));
                }
                Some((write_ms, bytes, resume_ms))
            }
            _ => None,
        };
        runs.push(ProgRun {
            name,
            stats,
            digest,
            exit,
            error,
            compile_ns,
            new_ns,
            run_ns: slices.iter().map(|s| s.1).sum(),
            slices,
            bursts,
            chained,
            snapshot,
        });
    }
    spans.end(span);
    Ok((setup_ns, runs))
}

/// Count each program run as an attempt; it fails on a machine error,
/// a wrong exit code, or statistics that differ from the first pass.
fn check_pass(runs: &[ProgRun], reference: &[ProgRun], sources: &[Source], report: &mut Report) {
    for ((r, first), (_, _, expected)) in runs.iter().zip(reference).zip(sources) {
        report.attempt(if let Some(e) = &r.error {
            Some(e.clone())
        } else if r.exit != *expected {
            Some(format!(
                "{}: exit {:?}, expected {expected:?}",
                r.name, r.exit
            ))
        } else if r.digest != first.digest {
            Some(format!(
                "{}: simulated statistics differ between runs",
                r.name
            ))
        } else {
            None
        });
    }
}

/// Simulated M instructions per host second over one pass.
fn pass_mips(runs: &[ProgRun]) -> f64 {
    let instr: u64 = runs.iter().map(|r| r.stats.instructions).sum();
    let ns: f64 = runs.iter().map(|r| r.run_ns).sum();
    ratio(instr as f64 * 1e3, ns)
}

/// Run the workload: repeated passes for at least `seconds`, checked
/// against each other. `trace` alternates untraced and traced passes
/// and then replays each layer alone.
pub fn run(
    thrash: bool,
    seed: u64,
    seconds: u64,
    work_dir: &Path,
    spans: &mut Spans,
    root: SpanId,
    report: &mut Report,
) -> Result<(), String> {
    let cfg = config(thrash);
    let sources = seed::sources(SCALE, seed)?;
    let trace = spans.is_traced();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    // (traced, setup ns, runs) per pass; the first pass is the reference.
    let mut passes: Vec<(bool, f64, Vec<ProgRun>)> = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        let traced = trace && passes.len() % 2 == 1;
        spans.set_recording(traced);
        let snap_dir = work_dir.join("snapshots");
        let first_traced = traced && passes.len() == 1;
        let (setup_ns, runs) = pass(
            &cfg,
            &sources,
            spans,
            root,
            first_traced.then_some(&*snap_dir),
        )?;
        spans.set_recording(trace);
        check_pass(
            &runs,
            passes.first().map_or(&runs, |p| &p.2),
            &sources,
            report,
        );
        passes.push((traced, setup_ns, runs));
    }
    let reference = &passes[0].2;
    let mips: Vec<f64> = passes.iter().map(|p| pass_mips(&p.2)).collect();
    println!("suite: M instr/s per pass {mips:.3?}");
    if trace {
        layer_metrics(&cfg, &sources, &passes, spans, root, report)
    } else {
        // More set-ups than passes, for a steadier median.
        let mut setups: Vec<f64> = passes.iter().map(|p| p.1 / 1e9).collect();
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            build(&cfg, &sources, spans, root)?;
            setups.push(t.elapsed().as_secs_f64());
        }
        // Best of N per slice: each slice position keeps its fastest
        // pass, which filters out passes that a noisy host slowed.
        let best: Vec<(u64, f64)> = reference
            .iter()
            .enumerate()
            .flat_map(|(p, run)| {
                let passes = &passes;
                run.slices
                    .iter()
                    .enumerate()
                    .map(move |(k, &(retired, _))| {
                        let ns = passes
                            .iter()
                            .filter_map(|q| q.2[p].slices.get(k))
                            .map(|s| s.1)
                            .fold(f64::INFINITY, f64::min);
                        (retired, ns)
                    })
            })
            .collect();
        let best_ns: f64 = best.iter().map(|s| s.1).sum();
        let instr: u64 = best.iter().map(|s| s.0).sum();
        let slices: Vec<f64> = best
            .iter()
            .filter(|s| s.0 > 0)
            .map(|&(retired, ns)| ns / 1e6 * SLICE as f64 / retired as f64)
            .collect();
        let ipcs: Vec<f64> = reference.iter().map(|r| r.stats.ipc()).collect();
        report.metric("sim_mips", ratio(instr as f64 * 1e3, best_ns), "Minstr/s");
        report.metric("ipc_geomean", geomean(&ipcs), "instr/cycle");
        report.metric(
            "jobs_per_s",
            ratio(reference.len() as f64 * 1e9, best_ns),
            "jobs/s",
        );
        latency_metrics(&slices, None, report)?;
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_mb", crate::host::peak_rss_mb()?, "MB");
        println!(
            "suite: {} passes, {} latency samples of {SLICE} instructions",
            passes.len(),
            slices.len()
        );
        Ok(())
    }
}

/// `attempt_ms_p50` and `attempt_ms_p90`, refusing a percentile with
/// fewer than ten samples beyond it. Samples seen by a poller every
/// `poll_step` ms take the [`stepped_percentile`].
pub fn latency_metrics(
    samples: &[f64],
    poll_step: Option<f64>,
    report: &mut Report,
) -> Result<(), String> {
    for (name, pct) in [("attempt_ms_p50", 50), ("attempt_ms_p90", 90)] {
        let v = match poll_step {
            Some(step) => stepped_percentile(samples, pct, step),
            None => percentile(samples, pct),
        };
        let v = v.ok_or(format!(
            "only {} latency samples: too few for {name}",
            samples.len()
        ))?;
        report.metric(name, v, "ms");
    }
    println!("latency: {} samples", samples.len());
    Ok(())
}

/// Sums of the simulated statistics of one pass.
#[derive(Default)]
pub struct SimTotals {
    pub instructions: u64,
    pub cycles: u64,
    pub vliw_cycles: u64,
    pub primary_cycles: u64,
    pub overhead_next_li: u64,
    pub overhead_swap: u64,
    pub mode_swaps: u64,
    pub sched_instrs: u64,
    pub sched_blocks: u64,
    pub slots_filled: u64,
    pub slots_total: u64,
    pub splits: u64,
    pub installs: u64,
    pub lis: u64,
    pub vcache_hits: u64,
    pub vcache_inserts: u64,
    pub vcache_evictions: u64,
    pub dcache_accesses: u64,
    pub dcache_misses: u64,
    pub icache_accesses: u64,
    pub icache_misses: u64,
}

impl SimTotals {
    pub fn add(&mut self, s: &RunStats) {
        self.instructions += s.instructions;
        self.cycles += s.cycles;
        self.vliw_cycles += s.vliw_cycles;
        self.primary_cycles += s.primary_cycles;
        self.overhead_next_li += s.overhead_next_li;
        self.overhead_swap += s.overhead_swap;
        self.mode_swaps += s.mode_swaps;
        self.sched_instrs += s.sched.instrs;
        self.sched_blocks += s.sched.blocks;
        self.slots_filled += s.sched.slots_filled;
        self.slots_total += s.sched.slots_total;
        self.splits += s.sched.splits;
        self.installs += s.sched.installs;
        self.lis += s.engine.lis;
        self.vcache_hits += s.vliw_cache.hits;
        self.vcache_inserts += s.vliw_cache.inserts;
        self.vcache_evictions += s.vliw_cache.evictions;
        self.dcache_accesses += s.dcache.accesses();
        self.dcache_misses += s.dcache.misses;
        self.icache_accesses += s.icache.accesses();
        self.icache_misses += s.icache.misses;
    }
}

/// The `core` ratios, the `sched` quality figures and the cache ratios
/// that come straight from the simulated statistics.
pub fn sim_metrics(t: &SimTotals, report: &mut Report) {
    let kinstr = t.instructions as f64 / 1e3;
    let instr = t.instructions as f64;
    report.metric(
        "core.mode_swaps_per_kinstr",
        ratio(t.mode_swaps as f64, kinstr),
        "1/kinstr",
    );
    report.metric(
        "core.vliw_cycle_share",
        ratio(t.vliw_cycles as f64, t.cycles as f64),
        "share",
    );
    report.metric(
        "core.primary_cycle_share",
        ratio(t.primary_cycles as f64, t.cycles as f64),
        "share",
    );
    report.metric(
        "core.overhead_next_li_cpi",
        ratio(t.overhead_next_li as f64, instr),
        "cycle/instr",
    );
    report.metric(
        "core.overhead_swap_cpi",
        ratio(t.overhead_swap as f64, instr),
        "cycle/instr",
    );
    report.metric("sched.instrs_scheduled", t.sched_instrs as f64, "count");
    report.metric("sched.blocks_sealed", t.sched_blocks as f64, "count");
    report.metric(
        "sched.slot_utilisation",
        ratio(t.slots_filled as f64, t.slots_total as f64),
        "share",
    );
    report.metric(
        "sched.splits_per_kinstr",
        ratio(t.splits as f64, kinstr),
        "1/kinstr",
    );
    report.metric(
        "sched.installs_per_kinstr",
        ratio(t.installs as f64, kinstr),
        "1/kinstr",
    );
    report.metric(
        "vliw.cache_hit_ratio",
        ratio(
            t.vcache_hits as f64,
            (t.vcache_hits + t.vcache_inserts) as f64,
        ),
        "share",
    );
    report.metric("vliw.cache_evictions", t.vcache_evictions as f64, "count");
    report.metric(
        "mem.dcache_miss_ratio",
        ratio(t.dcache_misses as f64, t.dcache_accesses as f64),
        "share",
    );
    report.metric(
        "mem.icache_miss_ratio",
        ratio(t.icache_misses as f64, t.icache_accesses as f64),
        "share",
    );
}

/// The replayed layers' per-operation costs, and their estimated
/// shares of `run_ns` scaled by the real run's operation counts. Fails
/// the run when the shares sum past 1 plus [`EST_SHARE_SLACK`].
pub fn replay_metrics(c: &LayerCosts, t: &SimTotals, run_ns: f64, report: &mut Report) {
    let primary_ns = ratio(c.primary_ns, c.primary_instrs as f64);
    let sched_ns = ratio(c.sched_ns, c.sched_instrs as f64);
    let li_ns = ratio(c.vliw_ns, c.vliw_lis as f64);
    let shares = [
        ratio(primary_ns * t.instructions as f64, run_ns),
        ratio(sched_ns * t.sched_instrs as f64, run_ns),
        ratio(li_ns * t.lis as f64, run_ns),
    ];
    report.metric("primary.ns_per_instr", primary_ns, "ns");
    report.metric("primary.oracle_est_share", shares[0], "share");
    report.metric("sched.ns_per_insert", sched_ns, "ns");
    report.metric("sched.est_share", shares[1], "share");
    report.metric("vliw.ns_per_li", li_ns, "ns");
    report.metric("vliw.est_share", shares[2], "share");
    report.metric(
        "vliw.decode_us_per_block",
        ratio(c.decode_ns / 1e3, c.decode_blocks as f64),
        "us",
    );
    report.metric(
        "mem.dcache_ns_per_access",
        ratio(c.dcache_ns, c.dcache_accesses as f64),
        "ns",
    );
    let sum: f64 = shares.iter().sum();
    report.metric("est.share_sum", sum, "share");
    report.attempt(
        (sum > 1.0 + EST_SHARE_SLACK)
            .then(|| format!("estimated layer shares sum to {sum:.3} > 1 + {EST_SHARE_SLACK}")),
    );
}

/// `core.snapshot_*` and `core.resume_ms` medians over samples of
/// `(write ms, bytes, resume ms)`.
pub fn snapshot_metrics(samples: &[(f64, u64, f64)], report: &mut Report) {
    let col = |f: fn(&(f64, u64, f64)) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    report.metric("core.snapshot_write_ms", col(|s| s.0), "ms");
    report.metric("core.snapshot_bytes", col(|s| s.1 as f64), "bytes");
    report.metric("core.resume_ms", col(|s| s.2), "ms");
}

fn layer_metrics(
    cfg: &MachineConfig,
    sources: &[Source],
    passes: &[(bool, f64, Vec<ProgRun>)],
    spans: &mut Spans,
    root: SpanId,
    report: &mut Report,
) -> Result<(), String> {
    let traced: Vec<&Vec<ProgRun>> = passes.iter().filter(|p| p.0).map(|p| &p.2).collect();
    let untraced: Vec<&Vec<ProgRun>> = passes.iter().filter(|p| !p.0).map(|p| &p.2).collect();
    let med =
        |f: &dyn Fn(&Vec<ProgRun>) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let run_ns = med(&|r| r.iter().map(|p| p.run_ns).sum());
    let mut totals = SimTotals::default();
    for r in &passes[0].2 {
        totals.add(&r.stats);
    }

    report.metric(
        "minicc.compile_s",
        med(&|r| r.iter().map(|p| p.compile_ns).sum::<f64>() / 1e9),
        "s",
    );
    report.metric("core.run_s", run_ns / 1e9, "s");
    report.metric(
        "core.ns_per_instr",
        ratio(run_ns, totals.instructions as f64),
        "ns",
    );
    report.metric(
        "core.new_ms",
        med(&|r| r.iter().map(|p| p.new_ns).sum::<f64>() / r.len() as f64 / 1e6),
        "ms",
    );
    let (bursts, chained) = passes[0]
        .2
        .iter()
        .fold((0, 0), |(b, c), r| (b + r.bursts, c + r.chained));
    report.metric(
        "core.burst_chained_per_burst",
        ratio(chained as f64, bursts as f64),
        "blocks/burst",
    );
    sim_metrics(&totals, report);
    let snaps: Vec<(f64, u64, f64)> = passes
        .iter()
        .flat_map(|p| p.2.iter().filter_map(|r| r.snapshot))
        .collect();
    snapshot_metrics(&snaps, report);

    let timer_ns = replay::timer_overhead_ns();
    let span = spans.begin("replay", Some(root));
    let mut costs = LayerCosts::default();
    for (name, src, expected) in sources {
        let image = seed::compile(name, src)?;
        match replay::replay(&image, cfg, u64::MAX, timer_ns, spans, span) {
            Ok((c, exit)) => {
                costs.add(&c);
                report
                    .attempt((exit != *expected).then(|| format!("{name}: replay exit {exit:?}")));
            }
            Err(e) => report.attempt(Some(format!("{name}: replay: {e}"))),
        }
    }
    spans.end(span);
    replay_metrics(&costs, &totals, run_ns, report);

    // No supervisor runs in a suite workload.
    report.metric("supervise.attempts", 0.0, "count");
    report.metric("supervise.failed_ratio", 0.0, "share");
    report.metric("supervise.slot_idle_share", 0.0, "share");
    report.metric("supervise.overhead_ms_p50", 0.0, "ms");
    report.metric("supervise.spawn_share", 0.0, "share");

    let mips = |ps: &[&Vec<ProgRun>]| median(&ps.iter().map(|r| pass_mips(r)).collect::<Vec<_>>());
    let (plain, traced_mips) = (mips(&untraced), mips(&traced));
    report.metric(
        "trace.overhead_share",
        ratio(plain - traced_mips, plain),
        "share",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_json::Json;

    /// The runner reproduces every row of the checked-in
    /// `dtsvliw_bench` gate: the tuned seed at the report's scale and
    /// budget, on the feasible machine.
    #[test]
    fn reproduces_the_checked_in_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_baseline.json");
        let text =
            std::fs::read_to_string(path).expect("BENCH_baseline.json at the repository root");
        let doc = Json::parse(&text).expect("baseline is JSON");
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("test"));
        let budget = doc
            .get("instruction_budget")
            .and_then(Json::as_u64)
            .expect("budget");
        let rows = doc.get("workloads").and_then(Json::as_arr).expect("rows");
        let sources = seed::sources(Scale::Test, seed::TUNED_SEED).unwrap();
        assert_eq!(rows.len(), sources.len());
        for (row, (name, src, _)) in rows.iter().zip(&sources) {
            assert_eq!(row.get("workload").and_then(Json::as_str), Some(*name));
            let mut m = Machine::new(config(false), &seed::compile(name, src).unwrap());
            run_sliced(&mut m, budget, &mut Vec::new()).unwrap();
            let s = m.stats();
            for (k, v) in [
                ("instructions", s.instructions),
                ("cycles", s.cycles),
                ("vliw_cycles", s.vliw_cycles),
            ] {
                assert_eq!(row.get(k).and_then(Json::as_u64), Some(v), "{name} {k}");
            }
        }
    }

    #[test]
    fn thrash_shrinks_only_the_vliw_cache() {
        let (hot, thrash) = (config(false), config(true));
        assert_eq!(thrash.vliw_cache.size_bytes, 3 * 1024);
        assert_eq!(thrash.vliw_cache.ways, 1);
        assert_eq!(thrash.sched, hot.sched);
        assert_eq!(thrash.icache, hot.icache);
        assert_eq!(thrash.dcache, hot.dcache);
    }
}
