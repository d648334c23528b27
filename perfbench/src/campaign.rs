//! The `campaign` workload: a closed loop of short `dtsvliw_run` jobs
//! through the supervise engine on one slot fewer than `nproc`.
//!
//! Each job runs one of the Table 2 programs, reseeded per job and
//! written as a `.mc` file, with a snapshot cadence, a heartbeat stream
//! and a `--metrics-json` result. Four jobs in five are short; the rest
//! run ten times longer.

use crate::replay::{self, LayerCosts};
use crate::report::Report;
use crate::seed;
use crate::spans::{SpanId, Spans};
use crate::stats::{geomean, lower_quartile, median, ratio, upper_quartile};
use crate::suite::{self, SimTotals};
use dtsvliw_bench::supervise::{canonical_result_digest, parse_campaign, run_campaign};
use dtsvliw_bench::supervise::{CampaignResult, CampaignSpec, EngineOptions};
use dtsvliw_core::{Machine, MachineConfig};
use dtsvliw_json::Json;
use dtsvliw_trace::Heartbeat;
use dtsvliw_workloads::Scale;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Jobs per campaign: the fewest that leave ten beyond a p90 over the
/// jobs, so that a run makes many campaigns.
const JOBS: usize = 100;
/// Of which this many run [`LONG_BUDGET`] instructions: a fifth, so the
/// p90 falls in the middle of the long jobs and the p50 in the middle of
/// the short ones. The supervisor polls its children every 4 ms, so
/// attempt times come in 4 ms steps; a percentile at the edge between
/// the two kinds of job jumps by a step or more from run to run.
const LONG_JOBS: usize = 20;
/// Short jobs are kept short so that spawn, tailing and settling, not
/// simulation, dominate their attempts.
const SHORT_BUDGET: u64 = 20_000;
/// Long attempts span many poll steps, so one step moves the p90 little.
const LONG_BUDGET: u64 = 10 * SHORT_BUDGET;
/// Simulated cycles between a job's snapshots: long jobs write two.
/// Every job passes the flag, so every job takes the snapshotting path.
const SNAPSHOT_EVERY: u64 = 50_000;
/// How often the supervisor looks for a finished child, in ms (its
/// attempt loop sleeps this long between `try_wait` calls).
const POLL_MS: f64 = 4.0;
/// Simulated cycles between a job's heartbeat records.
const HEARTBEAT_EVERY: u64 = 5_000;
/// Campaigns a run makes at least (repeats are compared).
const MIN_REPS: usize = 3;
/// Set-ups a run times beyond the one per campaign (for `setup_s`).
const EXTRA_SETUPS: usize = 8;

/// One job of the campaign.
pub struct Job {
    pub name: String,
    pub source: String,
    pub budget: u64,
}

/// SplitMix64: derives each job's LCG seed from the workload seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The campaign's jobs for `seed`: the eight programs in turn, each
/// job reseeded on its own. The shape is fixed so that seeds vary the
/// inputs, not the amount of work: the first [`LONG_JOBS`] jobs are
/// long (queued first, so they do not form the campaign's tail) and
/// the rest short.
pub fn jobs(seed: u64) -> Result<Vec<Job>, String> {
    let programs = dtsvliw_workloads::all(Scale::Small);
    (0..JOBS)
        .map(|i| {
            let w = &programs[i % programs.len()];
            let source = seed::reseed(&w.source, mix(seed.wrapping_add(i as u64)))?;
            Ok(Job {
                name: format!("{i:03}-{}", w.name),
                source,
                budget: if i < LONG_JOBS {
                    LONG_BUDGET
                } else {
                    SHORT_BUDGET
                },
            })
        })
        .collect()
}

/// Write the job sources and the spec under `dir`, check that every
/// source compiles, and parse the spec back with the engine's parser.
fn set_up(jobs: &[Job], runner: &Path, dir: &Path) -> Result<CampaignSpec, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    for sub in ["src", "snap", "hb", "res"] {
        std::fs::create_dir_all(dir.join(sub)).map_err(io)?;
    }
    let mut specs = Vec::new();
    for (id, job) in jobs.iter().enumerate() {
        let file = |sub: &str, ext: &str| dir.join(sub).join(format!("{}{ext}", job.name));
        let (src, snap, hb, res) = (
            file("src", ".mc"),
            file("snap", ""),
            file("hb", ".jsonl"),
            file("res", ".json"),
        );
        std::fs::write(&src, &job.source).map_err(io)?;
        seed::compile(&job.name, &job.source)?;
        let path = |p: &Path| Json::Str(p.display().to_string());
        let argv = [
            runner.display().to_string(),
            src.display().to_string(),
            "--max".to_string(),
            job.budget.to_string(),
            "--snapshot-every".to_string(),
            SNAPSHOT_EVERY.to_string(),
            "--snapshot-dir".to_string(),
            snap.display().to_string(),
            format!("--heartbeat={HEARTBEAT_EVERY}"),
            "--heartbeat-out".to_string(),
            hb.display().to_string(),
            "--metrics-json".to_string(),
            res.display().to_string(),
        ];
        specs.push(Json::obj([
            ("id", Json::U64(id as u64)),
            ("name", Json::Str(job.name.clone())),
            ("argv", Json::arr(argv.into_iter().map(Json::Str))),
            ("timeout_ms", Json::U64(60_000)),
            ("retries", Json::U64(0)),
            ("snapshot_dir", path(&snap)),
            ("heartbeat", path(&hb)),
            ("result", path(&res)),
        ]));
    }
    let text = Json::obj([("seed", Json::U64(1)), ("jobs", Json::Arr(specs))]).to_string();
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, &text).map_err(io)?;
    let back = std::fs::read_to_string(&spec_path).map_err(io)?;
    parse_campaign(&back).map_err(|e| format!("campaign spec: {e}"))
}

/// One finished campaign.
struct Rep {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    result: CampaignResult,
    /// `(instructions, cycles)` per job, from its result file.
    sim: Vec<(u64, u64)>,
}

fn read_sim(spec: &CampaignSpec) -> Vec<(u64, u64)> {
    spec.jobs
        .iter()
        .map(|j| {
            j.result
                .as_ref()
                .and_then(|p| std::fs::read_to_string(p).ok())
                .and_then(|t| Json::parse(&t).ok())
                .map_or((0, 0), |d| {
                    let f = |k: &str| d.get(k).and_then(Json::as_u64).unwrap_or(0);
                    (f("instructions"), f("cycles"))
                })
        })
        .collect()
}

fn rep_mips(r: &Rep) -> f64 {
    ratio(
        r.sim.iter().map(|s| s.0).sum::<u64>() as f64 / 1e6,
        r.wall_s,
    )
}

/// Count each job as an attempt; it fails when it did not succeed or
/// its result digest differs from the first campaign's.
fn check_rep(rep: &Rep, first: &Rep, report: &mut Report) {
    for (j, f) in rep.result.jobs.iter().zip(&first.result.jobs) {
        report.attempt(if !j.succeeded {
            Some(format!(
                "job {}: {:?}",
                j.name,
                j.attempts.last().map(|a| a.outcome.label())
            ))
        } else if j.result_digest.is_none() || j.result_digest != f.result_digest {
            Some(format!(
                "job {}: result digest changed between campaigns",
                j.name
            ))
        } else {
            None
        });
    }
}

/// Per-attempt wall times in ms, across every campaign.
fn attempt_walls(reps: &[Rep]) -> Vec<(usize, f64)> {
    reps.iter()
        .flat_map(|r| {
            r.result
                .jobs
                .iter()
                .enumerate()
                .map(|(i, j)| (i, j.wall_ms as f64))
        })
        .collect()
}

/// Run the workload: campaigns of the same jobs for at least
/// `seconds`, checked against each other. `trace` alternates untraced
/// and traced campaigns, writes the engine's spans of the last traced
/// one to `out_dir` as a Perfetto trace, then runs every job in this
/// process and replays each layer alone.
#[allow(clippy::too_many_arguments)]
pub fn run(
    seed: u64,
    seconds: u64,
    runner: &Path,
    work_dir: &Path,
    out_dir: &Path,
    spans: &mut Spans,
    root: SpanId,
    report: &mut Report,
) -> Result<(), String> {
    let jobs = jobs(seed)?;
    let trace = spans.is_traced();
    let opts = EngineOptions {
        // One core stays with the supervisor's poll and tailing loop.
        workers: crate::host::nproc().saturating_sub(1).max(1),
        spawn_window: None,
        chaos_seed: None,
        quiet: true,
        remotes: Vec::new(),
        metrics_addr: None,
        status_width: None,
    };
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        let traced = trace && reps.len() % 2 == 1;
        spans.set_recording(traced);
        let dir = work_dir.join(format!("campaign{}", reps.len()));
        let s = spans.begin("campaign.setup", Some(root));
        let t = Instant::now();
        let spec = set_up(&jobs, runner, &dir)?;
        let setup_s = t.elapsed().as_secs_f64();
        spans.end(s);
        let s = spans.begin("supervise.run_campaign", Some(root));
        let t = Instant::now();
        let result = run_campaign(&spec, &opts);
        let wall_s = t.elapsed().as_secs_f64();
        spans.end(s);
        spans.set_recording(trace);
        let rep = Rep {
            traced,
            setup_s,
            wall_s,
            result,
            sim: read_sim(&spec),
        };
        check_rep(&rep, reps.first().unwrap_or(&rep), report);
        if traced {
            let path = out_dir.join(format!("campaign-seed{seed}.perfetto.json"));
            let doc = dtsvliw_trace::merge_perfetto(&rep.result.spans);
            std::fs::write(&path, doc.to_string())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        reps.push(rep);
    }

    let mips: Vec<f64> = reps.iter().map(rep_mips).collect();
    println!("campaign: M instr/s per campaign {mips:.3?}");
    if trace {
        return layer_metrics(&jobs, &reps, work_dir, spans, root, report);
    }
    // More set-ups than campaigns, for a steadier median.
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    for i in 0..EXTRA_SETUPS {
        let dir = work_dir.join(format!("setup{i}"));
        let t = Instant::now();
        set_up(&jobs, runner, &dir)?;
        setups.push(t.elapsed().as_secs_f64());
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // Quartiles on the fast side filter out the campaigns that slow
    // spells on the host hit: each job keeps the lower quartile of its
    // attempt times, and the campaigns their upper quartile of
    // throughput. The median would follow the slow spells; the best is
    // set by one lucky attempt or campaign, and a job's fastest attempt
    // flips between poll steps from run to run.
    let job_walls: Vec<f64> = (0..JOBS)
        .map(|i| {
            lower_quartile(
                &reps
                    .iter()
                    .map(|r| r.result.jobs[i].wall_ms as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let upper = |f: &dyn Fn(&Rep) -> f64| upper_quartile(&reps.iter().map(f).collect::<Vec<_>>());
    let ipcs: Vec<f64> = reps[0]
        .sim
        .iter()
        .map(|&(i, c)| ratio(i as f64, c as f64))
        .collect();
    report.metric("sim_mips", upper(&rep_mips), "Minstr/s");
    report.metric("ipc_geomean", geomean(&ipcs), "instr/cycle");
    report.metric(
        "jobs_per_s",
        upper(&|r| r.result.succeeded as f64 / r.wall_s),
        "jobs/s",
    );
    suite::latency_metrics(&job_walls, Some(POLL_MS), report)?;
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", crate::host::peak_rss_mb()?, "MB");
    println!(
        "campaign: {} campaigns of {JOBS} jobs on {} slots",
        reps.len(),
        opts.workers
    );
    Ok(())
}

/// A job run in this process, without the supervisor: compile, build,
/// run with the same snapshot and heartbeat cadence, and write the
/// result document (`total_ns` covers these), then snapshot and resume
/// the finished machine.
struct InProcess {
    compile_ns: f64,
    new_ns: f64,
    run_ns: f64,
    total_ns: f64,
    digest: Option<String>,
    stats: dtsvliw_core::RunStats,
    bursts: u64,
    chained: u64,
    snapshot: (f64, u64, f64),
}

fn in_process(
    job: &Job,
    cfg: &MachineConfig,
    dir: &Path,
    spans: &mut Spans,
    parent: SpanId,
) -> Result<InProcess, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let total = Instant::now();
    let s = spans.begin("minicc.compile", Some(parent));
    let t = Instant::now();
    let image = seed::compile(&job.name, &job.source)?;
    let compile_ns = t.elapsed().as_nanos() as f64;
    spans.end(s);
    let s = spans.begin("core.new", Some(parent));
    let t = Instant::now();
    let mut m = Machine::new(cfg.clone(), &image);
    let new_ns = t.elapsed().as_nanos() as f64;
    spans.end(s);
    let hb = std::fs::File::create(dir.join("hb.jsonl")).map_err(io)?;
    m.attach_heartbeat(Box::new(Heartbeat::new(
        HEARTBEAT_EVERY,
        Some(Box::new(hb)),
    )));
    let s = spans.begin("core.run", Some(parent));
    let t = Instant::now();
    let snaps = dir.join("snap");
    m.run_with_snapshots(job.budget, SNAPSHOT_EVERY, &snaps)
        .map_err(|e| format!("{}: {e}", job.name))?;
    let run_ns = t.elapsed().as_nanos() as f64;
    spans.end(s);
    if let Some(mut hb) = m.take_heartbeat() {
        hb.finish()
            .map_err(|e| format!("{}: heartbeat: {e}", job.name))?;
    }
    let text = m.stats_json(10).to_string();
    std::fs::write(dir.join("result.json"), &text).map_err(io)?;
    let total_ns = total.elapsed().as_nanos() as f64;

    let s = spans.begin("core.snapshot_write", Some(parent));
    let t = Instant::now();
    let path = m
        .write_snapshot(&dir.join("final"))
        .map_err(|e| format!("{}: snapshot: {e}", job.name))?;
    let write_ms = t.elapsed().as_nanos() as f64 / 1e6;
    spans.end(s);
    let bytes = std::fs::metadata(&path).map_err(io)?.len();
    let s = spans.begin("core.resume", Some(parent));
    let t = Instant::now();
    let back = Machine::resume_from(cfg.clone(), &path)
        .map_err(|e| format!("{}: resume: {e}", job.name))?;
    let resume_ms = t.elapsed().as_nanos() as f64 / 1e6;
    spans.end(s);
    let stats = m.stats();
    if suite::stats_digest(&back.stats()) != suite::stats_digest(&stats) {
        return Err(format!("{}: resumed statistics differ", job.name));
    }
    let (bursts, chained) = m.fast_path_stats();
    Ok(InProcess {
        compile_ns,
        new_ns,
        run_ns,
        total_ns,
        digest: canonical_result_digest(&text),
        stats,
        bursts,
        chained,
        snapshot: (write_ms, bytes, resume_ms),
    })
}

fn layer_metrics(
    jobs: &[Job],
    reps: &[Rep],
    work_dir: &Path,
    spans: &mut Spans,
    root: SpanId,
    report: &mut Report,
) -> Result<(), String> {
    let cfg = MachineConfig::feasible_paper();
    let span = spans.begin("in_process", Some(root));
    let mut local = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let dir: PathBuf = work_dir.join("in_process").join(&job.name);
        let r = in_process(job, &cfg, &dir, spans, span)?;
        let expected = &reps[0].result.jobs[i].result_digest;
        report.attempt((r.digest.is_none() || &r.digest != expected).then(|| {
            format!(
                "job {}: in-process result differs from the campaign's",
                job.name
            )
        }));
        local.push(r);
    }
    spans.end(span);
    std::fs::remove_dir_all(work_dir.join("in_process")).map_err(|e| e.to_string())?;

    let sum = |f: &dyn Fn(&InProcess) -> f64| local.iter().map(f).sum::<f64>();
    let run_ns = sum(&|r| r.run_ns);
    let mut totals = SimTotals::default();
    for r in &local {
        totals.add(&r.stats);
    }
    report.metric("minicc.compile_s", sum(&|r| r.compile_ns) / 1e9, "s");
    report.metric("core.run_s", run_ns / 1e9, "s");
    report.metric(
        "core.ns_per_instr",
        ratio(run_ns, totals.instructions as f64),
        "ns",
    );
    report.metric(
        "core.new_ms",
        sum(&|r| r.new_ns) / local.len() as f64 / 1e6,
        "ms",
    );
    report.metric(
        "core.burst_chained_per_burst",
        ratio(sum(&|r| r.chained as f64), sum(&|r| r.bursts as f64)),
        "blocks/burst",
    );
    suite::sim_metrics(&totals, report);
    let snaps: Vec<(f64, u64, f64)> = local.iter().map(|r| r.snapshot).collect();
    suite::snapshot_metrics(&snaps, report);

    let timer_ns = replay::timer_overhead_ns();
    let span = spans.begin("replay", Some(root));
    let mut costs = LayerCosts::default();
    for job in jobs {
        let image = seed::compile(&job.name, &job.source)?;
        match replay::replay(&image, &cfg, job.budget, timer_ns, spans, span) {
            Ok((c, _)) => {
                costs.add(&c);
                report.attempt(None);
            }
            Err(e) => report.attempt(Some(format!("job {}: replay: {e}", job.name))),
        }
    }
    spans.end(span);
    suite::replay_metrics(&costs, &totals, run_ns, report);

    // The supervisor's own layer: attempts, failures, idle slots, and
    // the per-attempt overhead over the same job run in this process.
    let attempts: usize = reps
        .iter()
        .map(|r| {
            r.result
                .jobs
                .iter()
                .map(|j| j.attempts.len())
                .sum::<usize>()
        })
        .sum();
    let failed: usize = reps
        .iter()
        .map(|r| {
            r.result
                .jobs
                .iter()
                .map(|j| {
                    j.attempts
                        .iter()
                        .filter(|a| a.outcome.label() != "success")
                        .count()
                })
                .sum::<usize>()
        })
        .sum();
    let idle: Vec<f64> = reps
        .iter()
        .map(|r| {
            let busy: f64 = r.result.jobs.iter().map(|j| j.wall_ms as f64 / 1e3).sum();
            1.0 - ratio(busy, r.result.workers as f64 * r.wall_s)
        })
        .collect();
    let walls = attempt_walls(reps);
    let overheads: Vec<f64> = walls
        .iter()
        .map(|&(i, w)| w - local[i].total_ns / 1e6)
        .collect();
    report.metric("supervise.attempts", attempts as f64, "count");
    report.metric(
        "supervise.failed_ratio",
        ratio(failed as f64, attempts as f64),
        "share",
    );
    report.metric("supervise.slot_idle_share", median(&idle), "share");
    report.metric("supervise.overhead_ms_p50", median(&overheads), "ms");
    report.metric(
        "supervise.spawn_share",
        ratio(overheads.iter().sum(), walls.iter().map(|w| w.1).sum()),
        "share",
    );

    let mips = |traced: bool| {
        median(
            &reps
                .iter()
                .filter(|r| r.traced == traced)
                .map(rep_mips)
                .collect::<Vec<_>>(),
        )
    };
    let (plain, traced) = (mips(false), mips(true));
    report.metric(
        "trace.overhead_share",
        ratio(plain - traced, plain),
        "share",
    );
    Ok(())
}
