//! `perfbench` — the repository benchmark: simulator throughput and
//! campaign latency, end to end and per layer.
//!
//! ```sh
//! perfbench --workload suite_hot --seed 7 --seconds 35 --trace 0
//! perfbench --workload campaign --seed 7 --seconds 35 --trace 1 --runner path/to/dtsvliw_run
//! ```
//!
//! Workloads: `suite_hot`, `suite_thrash`, `campaign` (see README.md).
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the run's spans under `--work-dir`. The last line of
//! standard output is the result: `{"correct", "attempted", "failed",
//! "metrics"}`. Exit codes: 0 success, 1 a failed operation or check,
//! 2 bad arguments.

mod campaign;
mod host;
mod replay;
mod report;
mod seed;
mod spans;
mod stats;
mod suite;

use report::Report;
use spans::Spans;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: perfbench --workload suite_hot|suite_thrash|campaign [--seed N]
                 [--seconds S] [--trace 0|1] [--runner PATH] [--work-dir DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    runner: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: seed::DEFAULT_SEED,
        seconds: 35,
        trace: false,
        runner: None,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--runner" => a.runner = Some(PathBuf::from(value()?)),
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["suite_hot", "suite_thrash", "campaign"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

fn run(a: &Args, work_dir: &Path, report: &mut Report) -> Result<(), String> {
    let run_id = format!("{}-seed{}-pid{}", a.workload, a.seed, std::process::id());
    let mut spans = Spans::new(a.trace, run_id);
    let root = spans.begin(&format!("workload:{}", a.workload), None);
    let result = match a.workload.as_str() {
        "suite_hot" => suite::run(false, a.seed, a.seconds, work_dir, &mut spans, root, report),
        "suite_thrash" => suite::run(true, a.seed, a.seconds, work_dir, &mut spans, root, report),
        _ => {
            let runner = a
                .runner
                .clone()
                .unwrap_or_else(|| dtsvliw_bench::supervise::resolve_program("dtsvliw_run"));
            campaign::run(
                a.seed,
                a.seconds,
                &runner,
                work_dir,
                &a.work_dir,
                &mut spans,
                root,
                report,
            )
        }
    };
    spans.end(root);
    result?;
    if a.trace {
        let path = a
            .work_dir
            .join(format!("spans-{}-seed{}.json", a.workload, a.seed));
        let checked = spans.write_and_check(&path);
        if let Ok(n) = &checked {
            println!("spans: {n} written to {} and checked", path.display());
        }
        report.attempt(checked.err().map(|e| format!("span file: {e}")));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });

    println!("host: {}", host::fingerprint(a.seed));
    println!(
        "note: the model is not validated against hardware. The paper's feasible-machine \
         IPC of 2.24 was measured on SPECint95 binaries, not on these substitute programs, \
         so no error figure is reported."
    );
    // Per-run scratch (snapshots, campaign files), removed at the end;
    // span files stay in `work_dir` itself.
    let work_dir = a.work_dir.join(format!(
        "{}-seed{}-pid{}",
        a.workload,
        a.seed,
        std::process::id()
    ));
    let mut report = Report::default();
    let speed_before = host::calibration_us();
    let outcome = std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("{}: {e}", work_dir.display()))
        .and_then(|()| run(&a, &work_dir, &mut report));
    if let Err(e) = outcome {
        report.attempt(Some(e));
    }
    if let Err(e) = std::fs::remove_dir_all(&work_dir) {
        report.attempt(Some(format!("{}: {e}", work_dir.display())));
    }
    let speed_after = host::calibration_us();
    println!("host speed: calibration loop {speed_before:.2} us before the run, {speed_after:.2} us after");
    if a.trace {
        let us = (speed_before + speed_after) / 2.0;
        report.metric("host.calibration_us", us, "us");
    }

    for why in &report.failures {
        eprintln!("FAILED: {why}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!("{} failed of {} attempted", report.failed, report.attempted);
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
