//! Post-mortem campaign explainer: turn a merged Perfetto campaign
//! trace (from `dtsvliw_supervise --spans-out`) back into a causal
//! narrative — per-job attempt chains with their wall time, chaos
//! strikes, forgiveness — plus a summary table (DESIGN.md §14).
//!
//! ```sh
//! dtsvliw_supervise --spec jobs.json --spans-out trace.json \
//!     --attempts-out attempts.json
//! dtsvliw_explain --spans trace.json --attempts attempts.json
//! ```
//!
//! `--attempts` renders the attempts document from the trace with the
//! supervisor's own projection and compares it with the file.
//! `--canon` prints the canonical timestamp-stripped span set instead,
//! so CI can `cmp` a chaos storm against a calm run from the trace
//! artifact alone.
//!
//! Exit codes: 0 ok, 1 when `--attempts` is given and the trace
//! disagrees with the attempts log, 2 bad usage or unreadable input.

use dtsvliw_bench::explain::{canonical, jobs, narrate, parse_trace, summary_table};
use dtsvliw_bench::supervise::engine::{attempts_json, job_results};
use dtsvliw_json::Json;

const USAGE: &str = "usage: dtsvliw_explain --spans PATH [options]
  --spans PATH      merged Perfetto campaign trace (required)
  --attempts PATH   attempts doc: cross-check the trace against the log
  --job ID          narrate only this job
  --canon           print the canonical span set and exit (cmp-gated)";

fn die(msg: &str) -> ! {
    eprintln!("dtsvliw_explain: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn value(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn load_json(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: not valid JSON: {e}")))
}

fn main() {
    let mut spans_path: Option<String> = None;
    let mut attempts_path: Option<String> = None;
    let mut only_job: Option<u64> = None;
    let mut canon = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spans" => spans_path = Some(value("--spans", it.next())),
            "--attempts" => attempts_path = Some(value("--attempts", it.next())),
            "--job" => {
                let v = value("--job", it.next());
                only_job = match v.parse() {
                    Ok(n) => Some(n),
                    Err(_) => die(&format!("--job needs an integer, got `{v}`")),
                };
            }
            "--canon" => canon = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let spans_path = spans_path.unwrap_or_else(|| die("--spans is required"));
    let doc = load_json(&spans_path);

    let view = match parse_trace(&doc) {
        Ok(v) => v,
        Err(e) => die(&format!("{spans_path}: {e}")),
    };
    if canon {
        print!("{}", canonical(&view));
        return;
    }

    if only_job.is_none() {
        print!("{}", summary_table(&view));
        println!();
    }
    print!("{}", narrate(&view, only_job));

    if let Some(p) = attempts_path {
        let logged = load_json(&p);
        // Through text, so integer kinds compare as the file spells them.
        let traced = attempts_json(view.seed, &job_results(&view, &jobs(&view))).to_string();
        let traced = Json::parse(&traced).expect("a rendered document parses");
        if traced == logged {
            println!("cross-check: trace agrees with the attempts log");
        } else {
            eprintln!("dtsvliw_explain: trace disagrees with the attempts log:");
            for what in disagreements(&traced, &logged) {
                eprintln!("  {what}");
            }
            std::process::exit(1);
        }
    }
}

/// The jobs whose entries differ between two attempts documents
/// (present in one only, or different), or the header when no job does.
fn disagreements(a: &Json, b: &Json) -> Vec<String> {
    let entries = |doc: &Json| {
        doc.get("jobs")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let (a_jobs, b_jobs) = (entries(a), entries(b));
    let id = |j: &Json| j.get("id").and_then(Json::as_u64);
    let mut ids: Vec<Option<u64>> = a_jobs.iter().chain(&b_jobs).map(id).collect();
    ids.sort();
    ids.dedup();
    let mut out: Vec<String> = ids
        .into_iter()
        .filter(|&i| a_jobs.iter().find(|j| id(j) == i) != b_jobs.iter().find(|j| id(j) == i))
        .map(|i| i.map_or("a job without an id".to_string(), |i| format!("job {i}")))
        .collect();
    if out.is_empty() {
        out.push("the document header".to_string());
    }
    out
}
