//! End-to-end tests for the sharded campaign supervisor: determinism
//! across worker counts, stall classification, corrupt-snapshot
//! quarantine under parallel retries, chaos-proofed recovery, and
//! spec rejection with the offending field named.
//!
//! Each test runs the real `dtsvliw_supervise` binary in its own fresh
//! scratch directory (relative paths in a spec resolve against the
//! supervisor's working directory, and leftover snapshots would be
//! auto-resumed).

use dtsvliw_json::Json;
use dtsvliw_trace::validate_perfetto;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const SUPERVISE: &str = env!("CARGO_BIN_EXE_dtsvliw_supervise");
const EXPLAIN: &str = env!("CARGO_BIN_EXE_dtsvliw_explain");
// Referencing the simulator binary forces cargo to build it, so the
// supervisor's sibling-of-current-exe resolution finds it.
const RUN: &str = env!("CARGO_BIN_EXE_dtsvliw_run");

/// A fresh scratch directory under the system temp dir (the workspace
/// has no tempfile dependency).
fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dtsvliw-supervise-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

struct Run {
    code: i32,
    stderr: String,
}

fn supervise(dir: &Path, spec: &str, extra: &[&str]) -> Run {
    std::fs::write(dir.join("spec.json"), spec).expect("write spec");
    let out = Command::new(SUPERVISE)
        .current_dir(dir)
        .arg("spec.json")
        .args(extra)
        .output()
        .expect("run dtsvliw_supervise");
    Run {
        code: out.status.code().unwrap_or(-1),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("read {name} in {}: {e}", dir.display()))
}

/// Run the post-mortem explainer; returns `(exit code, stdout)`.
fn explain(dir: &Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(EXPLAIN)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run dtsvliw_explain");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Fetch `/metrics` from a plain-text HTTP endpoint, retrying until the
/// server comes up (the campaign is racing us to bind it).
fn fetch_metrics(addr: &str, deadline: Instant) -> String {
    loop {
        if let Ok(mut s) = std::net::TcpStream::connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            if s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").is_ok() {
                let mut body = String::new();
                if s.read_to_string(&mut body).is_ok() && !body.is_empty() {
                    return body;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "metrics endpoint {addr} never answered"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The `(kind, args)` of every instant in a merged Perfetto trace.
fn instants(trace: &str) -> Vec<(String, Json)> {
    let doc = Json::parse(trace).expect("trace parses");
    doc.as_arr()
        .expect("trace-event array")
        .iter()
        .filter(|ev| ev.get("ph").and_then(Json::as_str) == Some("i"))
        .filter_map(|ev| {
            let args = ev.get("args")?;
            Some((args.get("kind")?.as_str()?.to_string(), args.clone()))
        })
        .collect()
}

/// The action of every chaos strike in a merged Perfetto trace.
fn strike_actions(trace: &str) -> Vec<String> {
    instants(trace)
        .into_iter()
        .filter(|(kind, _)| kind == "chaos_strike")
        .filter_map(|(_, args)| Some(args.get("action")?.as_str()?.to_string()))
        .collect()
}

/// Pick a port the OS considers free right now. A bind races with the
/// server reusing it, but the window is tiny and tests retry on fetch.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port()
}

/// Three shell jobs — two clean, one failing deterministically — so the
/// determinism check covers success paths, the retry loop, and the
/// seeded backoff schedule.
const MIXED_SPEC: &str = r#"{ "seed": 17, "backoff_ms": 2,
  "quotas": { "alice": 1 },
  "jobs": [
    { "name": "ok-a", "tenant": "alice", "timeout_ms": 30000, "retries": 1,
      "argv": ["sh", "-c", "echo '{\"v\": 1}' > a.json"], "result": "a.json" },
    { "name": "ok-b", "tenant": "alice", "timeout_ms": 30000, "retries": 1,
      "argv": ["sh", "-c", "exit 0"] },
    { "name": "always-fails", "timeout_ms": 30000, "retries": 2,
      "argv": ["sh", "-c", "exit 7"] } ] }"#;

#[test]
fn report_and_attempts_are_byte_identical_across_worker_counts() {
    let serial = scratch("det-serial");
    let wide = scratch("det-wide");
    let outs = [
        "--out",
        "r.json",
        "--attempts-out",
        "at.json",
        "--spans-out",
        "spans.json",
        "--quiet",
    ];
    let a = supervise(&serial, MIXED_SPEC, &[&["--jobs", "1"], &outs[..]].concat());
    let b = supervise(&wide, MIXED_SPEC, &[&["--jobs", "8"], &outs[..]].concat());
    // One job fails by design, so both runs exit 1.
    assert_eq!((a.code, b.code), (1, 1), "{}\n{}", a.stderr, b.stderr);
    assert_eq!(
        read(&serial, "r.json"),
        read(&wide, "r.json"),
        "report must not depend on worker count"
    );
    assert_eq!(
        read(&serial, "at.json"),
        read(&wide, "at.json"),
        "attempt history (incl. backoff schedule) must not depend on worker count"
    );
    let report = read(&serial, "r.json");
    assert!(report.contains("\"succeeded\": 2"), "{report}");
    assert!(report.contains("\"failed\": 1"), "{report}");
    let attempts = read(&serial, "at.json");
    assert!(attempts.contains("\"outcome\": \"error\""), "{attempts}");
    assert!(attempts.contains("\"detail\": 7"), "{attempts}");

    // The merged campaign traces are well-formed Perfetto documents,
    // and their canonical timestamp-stripped span sets do not depend on
    // worker count either.
    for dir in [&serial, &wide] {
        let doc = Json::parse(&read(dir, "spans.json")).expect("trace parses");
        let events = validate_perfetto(&doc).expect("well-formed perfetto trace");
        assert!(events > 0, "trace must carry events");
    }
    let canon_args = ["--spans", "spans.json", "--canon"];
    let (ca, canon_serial) = explain(&serial, &canon_args);
    let (cb, canon_wide) = explain(&wide, &canon_args);
    assert_eq!((ca, cb), (0, 0));
    assert_eq!(
        canon_serial, canon_wide,
        "canonical span set must not depend on worker count"
    );
    assert!(
        canon_serial.contains("\"kind\":\"campaign\",\"jobs\":3"),
        "{canon_serial}"
    );

    // The explainer reconstructs the retried job's attempt chain from
    // the trace alone, and the chain survives a cross-check against the
    // attempts log (exit 1 on any disagreement).
    let (code, story) = explain(&serial, &["--spans", "spans.json", "--attempts", "at.json"]);
    assert_eq!(code, 0, "trace must agree with the attempts log:\n{story}");
    assert!(
        story.contains("cross-check: trace agrees with the attempts log"),
        "{story}"
    );
    assert!(
        story.contains("job 2 `always-fails` — failed (3 attempt(s) consumed"),
        "retried job's chain must be reconstructed:\n{story}"
    );
    assert_eq!(
        story.matches("n=").count(),
        5,
        "five consumed attempts across the campaign:\n{story}"
    );
}

#[test]
fn stalled_job_is_killed_and_classified_distinctly() {
    let dir = scratch("stall");
    // One heartbeat, then silence: progress goes stale while the child
    // stays alive, which must be classified `stalled`, not `timeout`.
    let spec = r#"{ "seed": 5, "backoff_ms": 1,
      "jobs": [
        { "name": "wedged", "timeout_ms": 30000, "retries": 0,
          "stall_ms": 400, "heartbeat": "hb.jsonl",
          "argv": ["sh", "-c",
                   "echo '{\"cycle\": 1, \"instructions\": 1}' >> hb.jsonl; sleep 30"] } ] }"#;
    let r = supervise(
        &dir,
        spec,
        &["--out", "r.json", "--attempts-out", "at.json", "--quiet"],
    );
    assert_eq!(r.code, 1, "{}", r.stderr);
    let attempts = read(&dir, "at.json");
    assert!(
        attempts.contains("\"outcome\": \"stalled\""),
        "stale heartbeat must classify as stalled:\n{attempts}"
    );
    assert!(!attempts.contains("\"outcome\": \"timeout\""), "{attempts}");
}

#[test]
fn corrupt_snapshot_is_quarantined_and_does_not_poison_siblings() {
    let dir = scratch("quarantine");
    // Two simulator jobs with sibling snapshot directories under one
    // shared parent. Job a's latest.json is pre-corrupted, so its very
    // first attempt auto-resumes into exit 4 (corrupt snapshot). With
    // retries 0, the campaign only converges if that corruption is
    // forgiven, quarantined, and retried fresh — and if job b, retrying
    // in parallel against the shared parent directory, never sees it.
    assert!(Path::new(RUN).exists(), "simulator binary must be built");
    std::fs::create_dir_all(dir.join("snaps/a")).unwrap();
    std::fs::write(
        dir.join("snaps/a/latest.json"),
        "#### not a snapshot, but long enough to look like one ####",
    )
    .unwrap();
    let spec = r#"{ "seed": 9, "backoff_ms": 1,
      "jobs": [
        { "name": "victim", "timeout_ms": 120000, "retries": 0,
          "snapshot_dir": "snaps/a",
          "argv": ["dtsvliw_run", "--workload", "compress", "--scale", "test",
                   "--config", "ideal", "--geometry", "4x8",
                   "--snapshot-every", "100000", "--snapshot-dir", "snaps/a",
                   "--metrics-json", "a.json"],
          "result": "a.json" },
        { "name": "sibling", "timeout_ms": 120000, "retries": 0,
          "snapshot_dir": "snaps/b",
          "argv": ["dtsvliw_run", "--workload", "xlisp", "--scale", "test",
                   "--config", "ideal", "--geometry", "4x8",
                   "--snapshot-every", "100000", "--snapshot-dir", "snaps/b",
                   "--metrics-json", "b.json"],
          "result": "b.json" } ] }"#;
    let r = supervise(
        &dir,
        spec,
        &[
            "--jobs",
            "2",
            "--out",
            "r.json",
            "--attempts-out",
            "at.json",
            "--quiet",
        ],
    );
    assert_eq!(r.code, 0, "campaign must converge:\n{}", r.stderr);
    let report = read(&dir, "r.json");
    assert!(report.contains("\"failed\": 0"), "{report}");
    let attempts = read(&dir, "at.json");
    assert!(
        attempts.contains("\"outcome\": \"corrupt-snapshot\""),
        "{attempts}"
    );
    assert!(attempts.contains("\"forgiven\": true"), "{attempts}");
    // Quarantined, never deleted: the damaged file survives for
    // forensics under a new name.
    let quarantined: Vec<_> = std::fs::read_dir(dir.join("snaps/a"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("latest.json.quarantined-")
        })
        .collect();
    assert_eq!(quarantined.len(), 1, "exactly one quarantined snapshot");
    let kept = std::fs::read_to_string(quarantined[0].path()).unwrap();
    assert!(kept.starts_with("#### not a snapshot"), "bytes preserved");
}

#[test]
fn malformed_specs_are_rejected_naming_the_field() {
    let dir = scratch("badspec");
    let cases = [
        (
            r#"{ "jobs": [ { "name": "x", "argv": ["sh"], "timeout_ms": 0 } ] }"#,
            "timeout_ms",
        ),
        (
            r#"{ "jobs": [ { "name": "x", "argv": ["sh"], "retries": -1 } ] }"#,
            "retries",
        ),
        (
            r#"{ "jobs": [ { "name": "x", "argv": ["sh"], "id": 3 },
                           { "name": "y", "argv": ["sh"], "id": 3 } ] }"#,
            "id",
        ),
        (
            r#"{ "jobs": [ { "name": "x", "argv": ["sh"], "tenant": "ghost" } ] }"#,
            "tenant",
        ),
    ];
    for (spec, field) in cases {
        let r = supervise(&dir, spec, &["--quiet"]);
        assert_eq!(r.code, 2, "bad spec must exit 2: {spec}");
        assert!(
            r.stderr.contains(field),
            "rejection must name `{field}`:\n{}",
            r.stderr
        );
    }
}

/// The tentpole acceptance test: the same campaign run undisturbed and
/// under a chaos storm (seeded kills, freezes, snapshot corruption,
/// heartbeat tears) must produce byte-identical reports — recovery
/// proven by `cmp`, not claimed. Small-scale simulator jobs so chaos
/// has real processes to attack.
#[test]
fn chaos_storm_report_matches_undisturbed_run() {
    let calm_dir = scratch("chaos-calm");
    let storm_dir = scratch("chaos-storm");
    let job = |name: &str, workload: &str, config: &str, tag: &str| {
        format!(
            r#"{{ "name": "{name}", "timeout_ms": 120000, "retries": 8,
              "argv": ["dtsvliw_run", "--workload", "{workload}", "--scale", "small",
                       "--max", "20000000", "--config", "{config}", "--geometry", "4x8",
                       "--snapshot-every", "200000", "--snapshot-dir", "snaps/{tag}",
                       "--heartbeat=100000", "--heartbeat-out", "hb/{tag}.jsonl",
                       "--metrics-json", "out/{tag}.json"],
              "snapshot_dir": "snaps/{tag}", "heartbeat": "hb/{tag}.jsonl",
              "result": "out/{tag}.json" }}"#
        )
    };
    let spec = format!(
        r#"{{ "seed": 42, "backoff_ms": 5, "stall_ms": 2500, "jobs": [ {}, {}, {} ] }}"#,
        job("compress-ideal", "compress", "ideal", "a"),
        job("compress-feasible", "compress", "feasible", "b"),
        job("xlisp-ideal", "xlisp", "ideal", "c"),
    );
    let calm = supervise(
        &calm_dir,
        &spec,
        &[
            "--jobs",
            "1",
            "--out",
            "r.json",
            "--spans-out",
            "spans.json",
            "--quiet",
        ],
    );
    assert_eq!(calm.code, 0, "undisturbed run:\n{}", calm.stderr);
    let storm = supervise(
        &storm_dir,
        &spec,
        &[
            "--jobs",
            "2",
            "--chaos",
            "1337",
            "--out",
            "r.json",
            "--attempts-out",
            "at.json",
            "--spans-out",
            "spans.json",
            "--wallclock-out",
            "wall.json",
            "--quiet",
        ],
    );
    assert_eq!(
        storm.code, 0,
        "chaos run must still converge:\n{}",
        storm.stderr
    );
    assert_eq!(
        read(&calm_dir, "r.json"),
        read(&storm_dir, "r.json"),
        "chaos-stormed report must be byte-identical to the undisturbed one"
    );
    // The ledger proves the storm actually attacked something, and
    // counts exactly the strikes the trace records.
    let wall = Json::parse(&read(&storm_dir, "wall.json")).expect("wallclock parses");
    let actions = wall
        .get("chaos")
        .and_then(|c| c.get("actions"))
        .and_then(Json::as_u64)
        .expect("chaos ledger present");
    assert!(actions > 0, "chaos must have acted: {actions}");
    let strikes = strike_actions(&read(&storm_dir, "spans.json"));
    assert_eq!(actions, strikes.len() as u64, "{strikes:?}");

    // Both merged traces are well-formed Perfetto documents, and the
    // storm's timestamp-stripped canonical span set is byte-identical
    // to the calm run's — the distributed-tracing recovery gate.
    for dir in [&calm_dir, &storm_dir] {
        let doc = Json::parse(&read(dir, "spans.json")).expect("trace parses");
        let events = validate_perfetto(&doc).expect("well-formed perfetto trace");
        assert!(events > 0, "trace must carry events");
    }
    let (ca, canon_calm) = explain(&calm_dir, &["--spans", "spans.json", "--canon"]);
    let (cb, canon_storm) = explain(&storm_dir, &["--spans", "spans.json", "--canon"]);
    assert_eq!((ca, cb), (0, 0));
    assert_eq!(
        canon_calm, canon_storm,
        "canonical span set must be byte-identical under the chaos storm"
    );
    // The storm trace additionally records the strikes, and the
    // explainer's trace-derived attempt chains agree with the attempts
    // log even with forgiveness in play.
    let storm_trace = read(&storm_dir, "spans.json");
    assert!(
        storm_trace.contains("chaos strikes"),
        "storm trace must carry the chaos-strike counter track"
    );
    let (code, story) = explain(
        &storm_dir,
        &["--spans", "spans.json", "--attempts", "at.json"],
    );
    assert_eq!(code, 0, "trace must agree with the attempts log:\n{story}");
    assert!(
        story.contains("cross-check: trace agrees with the attempts log"),
        "{story}"
    );
}

/// A strike that found nothing to damage did not happen: jobs that
/// declare a snapshot directory and a heartbeat file but never write
/// either must draw no `corrupt-snapshot` or `tear-heartbeat` strike.
/// Chaos seed 2 draws a snapshot corruption on its sixth tick, while
/// both jobs are still sleeping.
#[test]
fn chaos_strikes_that_find_nothing_to_damage_are_not_logged() {
    let dir = scratch("chaos-noop");
    let job = |tag: &str| {
        format!(
            r#"{{ "name": "quiet-{tag}", "timeout_ms": 30000, "retries": 4,
              "argv": ["sh", "-c", "sleep 1"],
              "snapshot_dir": "snaps/{tag}", "heartbeat": "hb/{tag}.jsonl" }}"#
        )
    };
    let spec = format!(
        r#"{{ "seed": 5, "backoff_ms": 1, "jobs": [ {}, {} ] }}"#,
        job("a"),
        job("b")
    );
    let run = supervise(
        &dir,
        &spec,
        &[
            "--jobs",
            "2",
            "--chaos",
            "2",
            "--out",
            "r.json",
            "--spans-out",
            "spans.json",
            "--wallclock-out",
            "wall.json",
            "--quiet",
        ],
    );
    assert_eq!(run.code, 0, "{}", run.stderr);
    let strikes = strike_actions(&read(&dir, "spans.json"));
    assert!(
        strikes
            .iter()
            .all(|a| a != "corrupt-snapshot" && a != "tear-heartbeat"),
        "{strikes:?}"
    );
    let wall = Json::parse(&read(&dir, "wall.json")).expect("wallclock parses");
    let chaos = wall.get("chaos").expect("chaos ledger present");
    for key in ["snapshot_corruptions", "heartbeat_tears"] {
        assert_eq!(chaos.get(key).and_then(Json::as_u64), Some(0), "{chaos:?}");
    }
}

/// A snapshotting simulator job, with `extra` spliced into its spec
/// entry.
fn soft_deadline_spec(extra: &str) -> String {
    format!(
        r#"{{ "seed": 21, "backoff_ms": 2, "max_requeues": 3, "jobs": [
          {{ "name": "compress-soft", "timeout_ms": 120000, "retries": 0{extra},
            "argv": ["dtsvliw_run", "--workload", "compress", "--scale", "small",
                     "--max", "50000000", "--config", "ideal", "--geometry", "4x8",
                     "--snapshot-every", "200000", "--snapshot-dir", "snaps/a",
                     "--metrics-json", "out/a.json"],
            "snapshot_dir": "snaps/a", "result": "out/a.json" }} ] }}"#
    )
}

/// The `job_attempt` spans of a merged Perfetto trace that ended
/// `requeued`, as their args.
fn requeued_attempt_spans(trace: &str) -> Vec<Json> {
    let doc = Json::parse(trace).expect("trace parses");
    doc.as_arr()
        .expect("trace-event array")
        .iter()
        .filter_map(|ev| ev.get("args"))
        .filter(|a| a.get("kind").and_then(Json::as_str) == Some("job_attempt"))
        .filter(|a| a.get("outcome").and_then(Json::as_str) == Some("requeued"))
        .cloned()
        .collect()
}

/// Soft-deadline checkpoint-and-requeue on a local slot: the job is
/// killed past its soft deadline once a snapshot exists, resumes from
/// it, and converges to the report of a run that was never requeued.
/// Requeues stay within `max_requeues`, never reach the attempts log,
/// and their attempt spans carry no consumed-retry index.
#[test]
fn soft_deadline_requeues_locally_and_resumes_to_the_same_report() {
    let plain_dir = scratch("requeue-plain");
    let soft_dir = scratch("requeue-soft");
    let outs = [
        "--jobs",
        "1",
        "--out",
        "r.json",
        "--attempts-out",
        "at.json",
        "--spans-out",
        "spans.json",
        "--wallclock-out",
        "wall.json",
        "--quiet",
    ];
    let plain = supervise(&plain_dir, &soft_deadline_spec(""), &outs);
    assert_eq!(plain.code, 0, "{}", plain.stderr);
    let soft = supervise(
        &soft_dir,
        &soft_deadline_spec(r#", "soft_deadline_ms": 300"#),
        &outs,
    );
    assert_eq!(soft.code, 0, "{}", soft.stderr);

    let wall = Json::parse(&read(&soft_dir, "wall.json")).expect("wallclock parses");
    let requeues = wall.get("jobs").and_then(Json::as_arr).unwrap()[0]
        .get("requeues")
        .and_then(Json::as_u64)
        .unwrap();
    assert!((1..=3).contains(&requeues), "requeues {requeues}");
    let attempts = read(&soft_dir, "at.json");
    assert!(!attempts.contains("requeued"), "{attempts}");
    assert_eq!(
        read(&plain_dir, "r.json"),
        read(&soft_dir, "r.json"),
        "requeued-and-resumed report must match the straight run"
    );
    let spans = requeued_attempt_spans(&read(&soft_dir, "spans.json"));
    assert_eq!(spans.len() as u64, requeues, "{spans:?}");
    assert!(spans.iter().all(|a| a.get("n").is_none()), "{spans:?}");
}

/// The supervisor's pull-based `/metrics` endpoint answers while the
/// campaign is still running, in Prometheus text exposition format,
/// with the span/outcome counter families present.
#[test]
fn metrics_endpoint_answers_mid_campaign() {
    let dir = scratch("metrics");
    let spec = r#"{ "seed": 11, "backoff_ms": 2, "jobs": [
        { "name": "slow-a", "timeout_ms": 30000, "retries": 0,
          "argv": ["sh", "-c", "sleep 2"] },
        { "name": "slow-b", "timeout_ms": 30000, "retries": 0,
          "argv": ["sh", "-c", "sleep 2"] } ] }"#;
    std::fs::write(dir.join("spec.json"), spec).expect("write spec");
    let addr = format!("127.0.0.1:{}", free_port());
    let mut child = Command::new(SUPERVISE)
        .current_dir(&dir)
        .args([
            "spec.json",
            "--jobs",
            "2",
            "--metrics-addr",
            &addr,
            "--quiet",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn dtsvliw_supervise");

    let body = fetch_metrics(&addr, Instant::now() + Duration::from_secs(10));
    let status = child.wait().expect("supervisor exits");
    assert_eq!(status.code(), Some(0), "campaign must succeed");

    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(
        body.contains("text/plain; version=0.0.4"),
        "exposition content type:\n{body}"
    );
    for family in [
        "dtsvliw_attempts_total",
        "dtsvliw_steals_total",
        "dtsvliw_spans_total",
        "dtsvliw_chaos_strikes_total",
    ] {
        assert!(body.contains(family), "missing {family}:\n{body}");
    }
    assert!(
        body.contains("outcome=\"success\""),
        "attempt family must be labelled by outcome:\n{body}"
    );
}

/// Satellite: a real simulator capture under `--trace-format perfetto`
/// passes the same structural validation the campaign traces do —
/// well-formed traceEvents, monotonic per-track timestamps, balanced
/// begin/end pairs.
#[test]
fn simulator_perfetto_capture_validates() {
    let dir = scratch("perfetto");
    let out = Command::new(RUN)
        .current_dir(&dir)
        .args([
            "--workload",
            "compress",
            "--scale",
            "test",
            "--config",
            "ideal",
            "--geometry",
            "4x8",
            "--trace-out",
            "t.json",
            "--trace-format",
            "perfetto",
        ])
        .output()
        .expect("run dtsvliw_run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&read(&dir, "t.json")).expect("capture parses");
    let events = validate_perfetto(&doc).expect("well-formed perfetto capture");
    assert!(events > 0, "capture must carry events");
}

/// Campaigns run on local slots only: a script that still passes the
/// old `--workers` list must fail loudly, not quietly run local-only.
#[test]
fn workers_flag_is_rejected_as_unknown() {
    let dir = scratch("workersflag");
    let run = supervise(
        &dir,
        r#"{ "jobs": [ { "name": "x", "argv": ["sh", "-c", "exit 0"] } ] }"#,
        &["--workers", "a:1", "--quiet"],
    );
    assert_eq!(run.code, 2, "--workers must exit 2:\n{}", run.stderr);
    assert!(
        run.stderr.contains("unknown flag `--workers`"),
        "the rejection must name the flag:\n{}",
        run.stderr
    );
}
