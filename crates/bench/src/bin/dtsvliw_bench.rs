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
//! Every run carries the hot-block profiler at N = 1, so the report
//! pins each workload's hot-block digest as well as its cycles. The
//! sim-host throughput printed on stdout is informational; wall-clock
//! speed is measured hook-free by `perfbench/run.py` (`sim_mips`).
//!
//! Exit codes: 0 success, 1 regression or machine error, 2 bad
//! arguments.

use dtsvliw_bench::{geom_mean, WORKLOADS};
use dtsvliw_core::{Machine, MachineConfig};
use dtsvliw_json::Json;
use dtsvliw_trace::BlockProfiler;
use dtsvliw_workloads::{by_name, Scale};
use std::sync::Mutex;

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
         \u{20}                    [--inject-regression PCT]"
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
                m.attach_profiler(Box::new(BlockProfiler::new(1)));
                let outcome = m
                    .run(instructions)
                    .unwrap_or_else(|e| die(format!("{w}: {e}")));
                let stats = m.stats();
                let p = m.profiler().expect("profiler attached above");
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
