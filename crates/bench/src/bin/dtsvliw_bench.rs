//! `dtsvliw_bench` — the continuous-benchmark harness and regression
//! gate.
//!
//! Runs the eight-workload suite on the feasible paper machine and
//! writes a **bit-reproducible** benchmark report: two runs of the same
//! binary at the same scale produce byte-identical files, so CI can
//! `cmp` them and then diff against a checked-in baseline. Everything
//! nondeterministic (sim-host throughput, wall time) goes to stdout
//! only, never into the report.
//!
//! ```sh
//! dtsvliw_bench --quick --out BENCH_0.json        # write a report
//! dtsvliw_bench --quick --compare BENCH_baseline.json
//! dtsvliw_bench --quick --compare BENCH_baseline.json --inject-regression 5
//! ```
//!
//! `--compare` exits non-zero when any workload's IPC drops more than
//! `--tolerance` percent below the baseline, or its cycle count rises
//! more than the same tolerance above it. `--inject-regression P`
//! degrades the *measured* values by P percent before the comparison —
//! the CI negative test proving the gate actually fails.
//!
//! After the (profiled, bit-reproducible) report pass, a second
//! *timing pass* runs the suite hook-free and appends host-side
//! simulated-instructions-per-wall-second to the `BENCH_wallclock.json`
//! trend file. Wall-clock numbers live only there and on stdout, never
//! in the report body.
//!
//! Telemetry (DESIGN.md §12) arms on the timing pass only, so the
//! report stays byte-identical with or without it: `--heartbeat[=K]`
//! streams per-workload JSONL progress files into `--heartbeat-out`
//! (default `heartbeats/`), and `--profile-sampled[=N]` runs the
//! sampling profiler.
//!
//! Exit codes: 0 success, 1 regression or machine error, 2 bad
//! arguments.

use dtsvliw_bench::{geom_mean, WORKLOADS};
use dtsvliw_core::{Machine, MachineConfig};
use dtsvliw_json::Json;
use dtsvliw_trace::{Heartbeat, SamplingProfiler, DEFAULT_SAMPLE_PERIOD};
use dtsvliw_workloads::{by_name, Scale};
use std::sync::Mutex;

/// Heartbeat cadence when `--heartbeat` is given without a value.
const DEFAULT_HEARTBEAT_EVERY: u64 = 100_000;

/// Report file format marker.
const BENCH_FORMAT: &str = "dtsvliw-bench";
/// Report format version this build writes and reads.
const BENCH_VERSION: u64 = 1;
/// Hot-block digest depth: the fingerprint covers this many blocks.
const HOT_TOP: usize = 10;

fn usage() -> ! {
    eprintln!(
        "usage: dtsvliw_bench [--quick] [--scale test|small|large] [--instructions N]\n\
         \u{20}                    [--out PATH] [--compare BASELINE.json] [--tolerance PCT]\n\
         \u{20}                    [--inject-regression PCT] [--wallclock PATH] [--no-wallclock]\n\
         \u{20}                    [--heartbeat[=CYCLES]] [--heartbeat-out DIR] [--profile-sampled[=N]]"
    );
    std::process::exit(2);
}

fn die(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// One workload's deterministic measurements (everything that lands in
/// the report file).
struct Row {
    workload: &'static str,
    instructions: u64,
    cycles: u64,
    vliw_cycles: u64,
    hot_digest: u64,
    hot_blocks: u64,
}

impl Row {
    fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.to_string())),
            ("instructions", Json::U64(self.instructions)),
            ("cycles", Json::U64(self.cycles)),
            ("ipc", Json::F64(self.ipc())),
            ("vliw_cycles", Json::U64(self.vliw_cycles)),
            ("hot_digest", Json::U64(self.hot_digest)),
            ("hot_blocks", Json::U64(self.hot_blocks)),
        ])
    }
}

fn scale_label(s: Scale) -> &'static str {
    match s {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Large => "large",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut instructions = 1_000_000u64;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut tolerance = 2.0f64;
    let mut inject = 0.0f64;
    let mut wallclock: Option<String> = Some("BENCH_wallclock.json".to_string());
    let mut heartbeat: Option<u64> = None;
    let mut heartbeat_out = "heartbeats".to_string();
    let mut profile_sampled: Option<u64> = None;

    // Strictly positive cadences only: zero would mean "every cycle"
    // at best and a divide-by-zero at worst.
    let positive = |flag: &str, v: &str| -> u64 {
        match v.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: {flag} must be a positive integer, got {v}");
                usage();
            }
        }
    };

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                scale = Scale::Test;
                instructions = 200_000;
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("small") => Scale::Small,
                    Some("large") => Scale::Large,
                    _ => usage(),
                };
            }
            "--instructions" => {
                i += 1;
                instructions = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--compare" => {
                i += 1;
                compare = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--inject-regression" => {
                i += 1;
                inject = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--wallclock" => {
                i += 1;
                wallclock = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--no-wallclock" => wallclock = None,
            "--heartbeat" => heartbeat = Some(DEFAULT_HEARTBEAT_EVERY),
            "--heartbeat-out" => {
                i += 1;
                heartbeat_out = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--profile-sampled" => profile_sampled = Some(DEFAULT_SAMPLE_PERIOD),
            a if a.starts_with("--heartbeat=") => {
                heartbeat = Some(positive("--heartbeat", &a["--heartbeat=".len()..]));
            }
            a if a.starts_with("--profile-sampled=") => {
                profile_sampled = Some(positive(
                    "--profile-sampled",
                    &a["--profile-sampled=".len()..],
                ));
            }
            _ => usage(),
        }
        i += 1;
    }
    if out.is_none() && compare.is_none() {
        out = Some("BENCH_0.json".to_string());
    }

    // Run the suite in parallel. Each run is fully deterministic; the
    // wall clock is read outside the machines and reported only on
    // stdout.
    let started = std::time::Instant::now();
    let results = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in WORKLOADS {
            let results = &results;
            s.spawn(move || {
                let workload = by_name(w, scale).unwrap_or_else(|| die(format!("no workload {w}")));
                let mut m = Machine::new(MachineConfig::feasible_paper(), &workload.image());
                m.attach_sampler(Box::new(SamplingProfiler::new(1)));
                let outcome = m
                    .run(instructions)
                    .unwrap_or_else(|e| die(format!("{w}: {e}")));
                let stats = m.stats();
                let p = m.sampler().expect("profiler attached above").profiler();
                results.lock().unwrap().push(Row {
                    workload: w,
                    instructions: outcome.instructions,
                    cycles: stats.cycles,
                    vliw_cycles: stats.vliw_cycles,
                    hot_digest: p.hot_digest(HOT_TOP),
                    hot_blocks: p.blocks() as u64,
                });
            });
        }
    });
    let wall = started.elapsed();
    let mut rows = results.into_inner().unwrap();
    rows.sort_by_key(|r| WORKLOADS.iter().position(|w| *w == r.workload));

    // Nondeterministic throughput: stdout only.
    let total_instr: u64 = rows.iter().map(|r| r.instructions).sum();
    println!(
        "ran {} workloads at scale {}, {} instructions in {:.2?} \
         ({:.1}M instructions/s sim-host throughput)",
        rows.len(),
        scale_label(scale),
        total_instr,
        wall,
        total_instr as f64 / 1e6 / wall.as_secs_f64(),
    );
    for r in &rows {
        println!(
            "  {:<10} {:>9} cycles  ipc {:.3}  hot digest {:#018x} ({} blocks)",
            r.workload,
            r.cycles,
            r.ipc(),
            r.hot_digest,
            r.hot_blocks
        );
    }

    // Timing pass: the same suite hook-free (no profiler). This is the
    // number the wall-clock trend tracks; the profiled pass above keeps
    // the report bit-reproducible and pins the simulated results.
    // Telemetry (heartbeat, sampling profiler) arms here and only here.
    if heartbeat.is_some() {
        std::fs::create_dir_all(&heartbeat_out)
            .unwrap_or_else(|e| die(format!("creating {heartbeat_out}: {e}")));
    }
    let t_started = std::time::Instant::now();
    let timing = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in WORKLOADS {
            let timing = &timing;
            let heartbeat_out = &heartbeat_out;
            s.spawn(move || {
                let workload = by_name(w, scale).unwrap_or_else(|| die(format!("no workload {w}")));
                let mut m = Machine::new(MachineConfig::feasible_paper(), &workload.image());
                if let Some(every) = heartbeat {
                    let path = format!("{heartbeat_out}/{w}.jsonl");
                    let f = std::fs::File::create(&path)
                        .unwrap_or_else(|e| die(format!("creating {path}: {e}")));
                    m.attach_heartbeat(Box::new(Heartbeat::new(every, Some(Box::new(f)))));
                }
                if let Some(every) = profile_sampled {
                    m.attach_sampler(Box::new(SamplingProfiler::new(every)));
                }
                let outcome = m
                    .run(instructions)
                    .unwrap_or_else(|e| die(format!("{w} (timing): {e}")));
                let heartbeats = match m.take_heartbeat() {
                    Some(mut hb) => {
                        if let Err(e) = hb.finish() {
                            eprintln!("warning: {w}: heartbeat sink error: {e}");
                        }
                        hb.emitted()
                    }
                    None => 0,
                };
                let sampled = m.take_sampler().map_or(0, |sp| sp.sampled());
                let (bursts, chained) = m.fast_path_stats();
                timing.lock().unwrap().push((
                    w,
                    outcome.instructions,
                    bursts,
                    chained,
                    heartbeats,
                    sampled,
                ));
            });
        }
    });
    let t_wall = t_started.elapsed();
    let trows = timing.into_inner().unwrap();
    let t_instr: u64 = trows.iter().map(|r| r.1).sum();
    let bursts: u64 = trows.iter().map(|r| r.2).sum();
    let chained: u64 = trows.iter().map(|r| r.3).sum();
    let rate = t_instr as f64 / t_wall.as_secs_f64();
    println!(
        "timing pass: {} instructions in {:.2?} \
         ({:.1}M instructions/s hook-free; {} bursts, {} chained blocks)",
        t_instr,
        t_wall,
        rate / 1e6,
        bursts,
        chained,
    );
    if heartbeat.is_some() {
        let beats: u64 = trows.iter().map(|r| r.4).sum();
        println!("  telemetry: {beats} heartbeat records -> {heartbeat_out}/<workload>.jsonl");
    }
    if profile_sampled.is_some() {
        let sampled: u64 = trows.iter().map(|r| r.5).sum();
        println!("  telemetry: {sampled} block entries sampled across the suite");
    }

    // Append to the wall-clock trend file. Timestamps and wall time are
    // welcome here — this file is the designated home for everything
    // nondeterministic, which is exactly why it is not the report.
    if let Some(path) = &wallclock {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let entry = Json::obj([
            ("unix_time", Json::U64(ts)),
            ("scale", Json::Str(scale_label(scale).to_string())),
            ("instruction_budget", Json::U64(instructions)),
            ("instructions", Json::U64(t_instr)),
            ("wall_seconds", Json::F64(t_wall.as_secs_f64())),
            ("instructions_per_second", Json::F64(rate)),
            ("fast_path_bursts", Json::U64(bursts)),
            ("fast_path_chained", Json::U64(chained)),
        ]);
        let mut entries: Vec<Json> = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| Json::parse(&s).ok())
            .and_then(|d| {
                d.get("entries")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::to_vec)
            })
            .unwrap_or_default();
        entries.push(entry);
        let doc = Json::obj([
            ("format", Json::Str("dtsvliw-wallclock".to_string())),
            ("version", Json::U64(1)),
            ("entries", Json::Arr(entries)),
        ]);
        let mut s = doc.to_string_pretty();
        s.push('\n');
        std::fs::write(path, &s).unwrap_or_else(|e| die(format!("writing {path}: {e}")));
        println!("(wall-clock trend appended to {path})");
    }

    if let Some(path) = &out {
        let ipcs: Vec<f64> = rows.iter().map(Row::ipc).collect();
        let doc = Json::obj([
            ("format", Json::Str(BENCH_FORMAT.to_string())),
            ("version", Json::U64(BENCH_VERSION)),
            ("config", Json::Str("feasible".to_string())),
            ("scale", Json::Str(scale_label(scale).to_string())),
            ("instruction_budget", Json::U64(instructions)),
            ("geom_mean_ipc", Json::F64(geom_mean(&ipcs))),
            (
                "workloads",
                Json::Arr(rows.iter().map(Row::to_json).collect()),
            ),
        ]);
        let mut s = doc.to_string_pretty();
        s.push('\n');
        std::fs::write(path, &s).unwrap_or_else(|e| die(format!("writing {path}: {e}")));
        println!("(report written to {path}, {} bytes)", s.len());
    }

    let Some(path) = &compare else { return };
    let base = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format!("cannot read baseline {path}: {e}")));
    let base = Json::parse(&base).unwrap_or_else(|e| die(format!("baseline {path}: {e}")));
    if base.get("format").and_then(Json::as_str) != Some(BENCH_FORMAT) {
        die(format!("baseline {path} is not a {BENCH_FORMAT} report"));
    }
    match base.get("version").and_then(Json::as_u64) {
        Some(BENCH_VERSION) => {}
        v => die(format!("baseline {path}: unsupported version {v:?}")),
    }
    let empty = Vec::new();
    let base_rows = base
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);

    println!("--- comparing against {path} (tolerance {tolerance}%) ---");
    let mut regressions = 0usize;
    for b in base_rows {
        let (Some(w), Some(bipc), Some(bcycles)) = (
            b.get("workload").and_then(Json::as_str),
            b.get("ipc").and_then(Json::as_f64),
            b.get("cycles").and_then(Json::as_u64),
        ) else {
            die(format!("baseline {path}: malformed workload entry"));
        };
        let Some(r) = rows.iter().find(|r| r.workload == w) else {
            println!("  {w:<10} missing from this run");
            regressions += 1;
            continue;
        };
        // --inject-regression degrades the measured values for the CI
        // negative test; it never touches the written report.
        let ipc = r.ipc() * (1.0 - inject / 100.0);
        let cycles = r.cycles as f64 * (1.0 + inject / 100.0);
        let ipc_floor = bipc * (1.0 - tolerance / 100.0);
        let cycle_ceiling = bcycles as f64 * (1.0 + tolerance / 100.0);
        let bad = ipc < ipc_floor || cycles > cycle_ceiling;
        let digest_note = match b.get("hot_digest").and_then(Json::as_u64) {
            Some(d) if d != r.hot_digest => "  [hot-path shift]",
            _ => "",
        };
        println!(
            "  {:<10} ipc {:.3} vs {:.3} ({:+.2}%)  cycles {} vs {}{}{}",
            w,
            ipc,
            bipc,
            100.0 * (ipc - bipc) / bipc.max(1e-12),
            cycles as u64,
            bcycles,
            if bad { "  REGRESSION" } else { "" },
            digest_note,
        );
        regressions += bad as usize;
    }
    if regressions > 0 {
        eprintln!("error: {regressions} workload(s) regressed beyond {tolerance}%");
        std::process::exit(1);
    }
    println!("no regressions");
}
