//! Campaign supervisor: fan a spec's jobs across worker slots with
//! work-stealing, per-tenant quotas, stall detection,
//! checkpoint-and-requeue rebalancing, seeded backoff, and (optionally)
//! a chaos harness that attacks the campaign while it runs.
//!
//! ```sh
//! dtsvliw_supervise campaign.json --jobs 8 --out report.json
//! ```
//!
//! The campaign spec is JSON (see DESIGN.md §13 for the full schema):
//!
//! ```json
//! { "seed": 1,
//!   "backoff_ms": 50,
//!   "quotas": { "alice": 2 },
//!   "jobs": [
//!     { "name": "qsort",
//!       "argv": ["dtsvliw_run", "--workload", "qsort",
//!                "--snapshot-every", "100000", "--snapshot-dir", "snaps/qsort",
//!                "--heartbeat=100000", "--heartbeat-out", "hb/qsort.jsonl"],
//!       "timeout_ms": 60000,
//!       "retries": 3,
//!       "tenant": "alice",
//!       "snapshot_dir": "snaps/qsort",
//!       "heartbeat": "hb/qsort.jsonl" } ] }
//! ```
//!
//! A bare command name in `argv[0]` resolves to a sibling of this
//! binary (the usual cargo target directory layout), so specs do not
//! hard-code target paths.
//!
//! This binary is a thin shell: every policy lives in the unit-testable
//! `dtsvliw_bench::supervise` module tree. Outputs:
//!
//! * `--out` — the deterministic report (byte-identical across worker
//!   counts, completion orders, and chaos storms);
//! * `--attempts-out` — the attempt history (outcomes, resume flags,
//!   the seeded backoff schedule);
//! * `--wallclock-out` — durations, requeues, the chaos ledger
//!   (nondeterministic by design);
//! * `--spans-out` — the merged campaign trace: the span log every
//!   other document is projected from;
//! * `--timeline` — the merged heartbeat timeline, torn lines skipped.
//!
//! Exit codes: 0 all jobs succeeded, 1 some failed, 2 bad usage/spec.

use dtsvliw_bench::supervise::engine::{
    attempts_json, merge_timeline, report_json, run_campaign, wallclock_json, EngineOptions,
};
use dtsvliw_bench::supervise::spec::{parse_campaign, CampaignSpec};
use std::path::PathBuf;

const USAGE: &str = "usage: dtsvliw_supervise <spec.json> [options]
  --jobs N             worker slots (default: available cores)
  --spawn-window N     max children in flight (default: every slot)
  --chaos SEED         arm the chaos harness (seeded kills, freezes,
                       snapshot corruption, heartbeat tears)
  --out PATH           write the deterministic campaign report
  --attempts-out PATH  write the attempt-history log
  --wallclock-out PATH write the wall-clock side-channel
  --timeline PATH      write the merged heartbeat timeline (JSONL)
  --spans-out PATH     write the merged campaign trace (Perfetto JSON,
                       one track per slot on the campaign clock)
  --metrics-addr ADDR  serve Prometheus text /metrics on host:port for
                       the duration of the campaign
  --status-width N     clamp the live status line to N columns
                       (default: COLUMNS, then 120)
  --quiet              silence child stdout and per-attempt log lines";

struct Args {
    spec_path: PathBuf,
    jobs: usize,
    spawn_window: Option<usize>,
    chaos_seed: Option<u64>,
    out: Option<PathBuf>,
    attempts_out: Option<PathBuf>,
    wallclock_out: Option<PathBuf>,
    timeline: Option<PathBuf>,
    spans_out: Option<PathBuf>,
    metrics_addr: Option<String>,
    status_width: Option<usize>,
    quiet: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("dtsvliw_supervise: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_u64(flag: &str, v: Option<String>) -> u64 {
    let Some(v) = v else {
        die(&format!("{flag} needs a value"));
    };
    v.parse()
        .unwrap_or_else(|_| die(&format!("{flag} needs an unsigned integer, got `{v}`")))
}

fn positive(flag: &str, v: Option<String>) -> usize {
    let n = parse_u64(flag, v);
    if n == 0 {
        die(&format!("{flag} must be positive"));
    }
    n as usize
}

fn path(flag: &str, v: Option<String>) -> PathBuf {
    match v {
        Some(v) => PathBuf::from(v),
        None => die(&format!("{flag} needs a path")),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        spec_path: PathBuf::new(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        spawn_window: None,
        chaos_seed: None,
        out: None,
        attempts_out: None,
        wallclock_out: None,
        timeline: None,
        spans_out: None,
        metrics_addr: None,
        status_width: None,
        quiet: false,
    };
    let mut spec_seen = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => args.jobs = positive("--jobs", it.next()),
            "--spawn-window" => {
                args.spawn_window = Some(positive("--spawn-window", it.next()));
            }
            "--chaos" => args.chaos_seed = Some(parse_u64("--chaos", it.next())),
            "--out" => args.out = Some(path("--out", it.next())),
            "--attempts-out" => args.attempts_out = Some(path("--attempts-out", it.next())),
            "--wallclock-out" => args.wallclock_out = Some(path("--wallclock-out", it.next())),
            "--timeline" => args.timeline = Some(path("--timeline", it.next())),
            "--spans-out" => args.spans_out = Some(path("--spans-out", it.next())),
            "--metrics-addr" => match it.next() {
                Some(v) => args.metrics_addr = Some(v),
                None => die("--metrics-addr needs a host:port"),
            },
            "--status-width" => {
                args.status_width = Some(positive("--status-width", it.next()));
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            _ if a.starts_with('-') => die(&format!("unknown flag `{a}`")),
            _ => {
                if spec_seen {
                    die("exactly one spec file expected");
                }
                args.spec_path = PathBuf::from(a);
                spec_seen = true;
            }
        }
    }
    if !spec_seen {
        die("a campaign spec file is required");
    }
    args
}

fn load_spec(path: &PathBuf) -> CampaignSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    match parse_campaign(&text) {
        Ok(spec) => spec,
        Err(e) => die(&format!("invalid spec {}: {e}", path.display())),
    }
}

fn write_doc(path: &PathBuf, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("dtsvliw_supervise: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let spec = load_spec(&args.spec_path);
    let opts = EngineOptions {
        workers: args.jobs,
        spawn_window: args.spawn_window,
        chaos_seed: args.chaos_seed,
        quiet: args.quiet,
        remotes: Vec::new(),
        metrics_addr: args.metrics_addr.clone(),
        status_width: args.status_width,
    };
    let result = run_campaign(&spec, &opts);

    let report = report_json(&spec, &result).to_string_pretty() + "\n";
    match &args.out {
        Some(p) => write_doc(p, &report),
        None => print!("{report}"),
    }
    if let Some(p) = &args.attempts_out {
        write_doc(
            p,
            &(attempts_json(spec.seed, &result.jobs).to_string_pretty() + "\n"),
        );
    }
    if let Some(p) = &args.wallclock_out {
        write_doc(p, &(wallclock_json(&result).to_string_pretty() + "\n"));
    }
    if let Some(p) = &args.timeline {
        let (text, records) = merge_timeline(&spec);
        write_doc(p, &text);
        if !args.quiet {
            eprintln!(
                "supervise: merged {records} heartbeat records into {}",
                p.display()
            );
        }
    }
    if let Some(p) = &args.spans_out {
        let doc = dtsvliw_trace::merge_perfetto(&result.spans);
        write_doc(p, &(doc.to_string_pretty() + "\n"));
        if !args.quiet {
            eprintln!(
                "supervise: merged {} span events into {}",
                result.spans.len(),
                p.display()
            );
        }
    }

    if !args.quiet {
        eprintln!(
            "supervise: {} succeeded, {} failed ({} jobs, {} workers, {:.1}s{})",
            result.succeeded,
            result.failed,
            result.jobs.len(),
            result.workers,
            result.wall_ms as f64 / 1000.0,
            match &result.chaos {
                Some(c) => format!(
                    ", chaos actions: {}",
                    c.get("actions").and_then(|j| j.as_u64()).unwrap_or(0)
                ),
                None => String::new(),
            }
        );
    }
    std::process::exit(if result.failed == 0 { 0 } else { 1 });
}
