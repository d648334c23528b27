//! End-to-end tests for the distributed campaign tier: a real
//! `dtsvliw_worker` serving leases over TCP to a real
//! `dtsvliw_supervise` coordinator.
//!
//! The tentpole property mirrors the local chaos guarantee: a
//! distributed campaign under a full network-chaos storm — with one
//! worker SIGKILLed mid-flight — must produce a deterministic report
//! byte-identical to an undisturbed `--jobs 1` local run. Failover is
//! proven by `cmp`, not claimed.

use dtsvliw_bench::supervise::dist::{coordinator_connect, proto, LeaseTable, Settle};
use dtsvliw_json::Json;
use dtsvliw_trace::validate_perfetto;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SUPERVISE: &str = env!("CARGO_BIN_EXE_dtsvliw_supervise");
const WORKER: &str = env!("CARGO_BIN_EXE_dtsvliw_worker");
const EXPLAIN: &str = env!("CARGO_BIN_EXE_dtsvliw_explain");
// Referencing the simulator binary forces cargo to build it, so both
// the supervisor's and the worker's sibling resolution find it.
const RUN: &str = env!("CARGO_BIN_EXE_dtsvliw_run");

/// A fresh scratch directory under the system temp dir (the workspace
/// has no tempfile dependency).
fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dtsvliw-dist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

/// Reaps the worker process on drop so a failing assert cannot leak it.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start a worker on an ephemeral port and wait for its port file.
fn start_worker(dir: &Path, tag: &str, slots: usize) -> WorkerProc {
    start_worker_with(dir, tag, slots, &[])
}

fn start_worker_with(dir: &Path, tag: &str, slots: usize, extra: &[&str]) -> WorkerProc {
    start_worker_in(dir, tag, slots, extra, &dir.join(format!("wd-{tag}")))
}

/// Start a worker running in `dir` with `--workdir workdir` as given, so
/// a relative workdir resolves against `dir`.
fn start_worker_in(
    dir: &Path,
    tag: &str,
    slots: usize,
    extra: &[&str],
    workdir: &Path,
) -> WorkerProc {
    let port_file = dir.join(format!("port-{tag}"));
    let child = Command::new(WORKER)
        .current_dir(dir)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--slots",
            &slots.to_string(),
            "--quiet",
        ])
        .args(extra)
        .arg("--workdir")
        .arg(workdir)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dtsvliw_worker");
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(
            Instant::now() < deadline,
            "worker `{tag}` never announced its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    WorkerProc { child, addr }
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

/// Quick smoke: jobs leased to a remote worker come back with the same
/// deterministic report a purely local run produces — including result
/// digests, which travel over the wire as shipped result files.
#[test]
fn remote_leases_reproduce_the_local_report() {
    let local_dir = scratch("smoke-local");
    let remote_dir = scratch("smoke-remote");
    // Each job sleeps so the local slot cannot drain both before the
    // worker's handshake completes on a loaded host: one job must run
    // remotely for the `/worker` track check below.
    let spec = r#"{ "seed": 9, "backoff_ms": 2, "jobs": [
        { "name": "ok-a", "timeout_ms": 30000, "retries": 1,
          "argv": ["sh", "-c", "sleep 1; echo '{\"v\": 1}' > a.json"], "result": "a.json" },
        { "name": "ok-b", "timeout_ms": 30000, "retries": 1,
          "argv": ["sh", "-c", "sleep 1; echo '{\"v\": 2}' > b.json"], "result": "b.json" } ] }"#;
    let local = supervise(
        &local_dir,
        spec,
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
    assert_eq!(local.code, 0, "{}", local.stderr);

    let worker = start_worker(&remote_dir, "w0", 2);
    let remote = supervise(
        &remote_dir,
        spec,
        &[
            "--jobs",
            "1",
            "--workers",
            &worker.addr,
            "--out",
            "r.json",
            "--spans-out",
            "spans.json",
            "--quiet",
        ],
    );
    assert_eq!(remote.code, 0, "{}", remote.stderr);
    assert_eq!(
        read(&local_dir, "r.json"),
        read(&remote_dir, "r.json"),
        "remote leases must not change the deterministic report"
    );

    // The merged cross-host trace is a well-formed Perfetto document
    // carrying worker-relayed spans (rebased onto the coordinator
    // clock, on per-endpoint `/worker` tracks), and its canonical
    // projection is byte-identical to the purely local run's.
    let trace = read(&remote_dir, "spans.json");
    let doc = Json::parse(&trace).expect("trace parses");
    let events = validate_perfetto(&doc).expect("well-formed cross-host trace");
    assert!(events > 0, "trace must carry events");
    assert!(
        trace.contains("/worker"),
        "worker-relayed spans must land on a /worker track:\n{trace}"
    );
    let canon = |dir: &Path| {
        let out = Command::new(EXPLAIN)
            .current_dir(dir)
            .args(["--spans", "spans.json", "--canon"])
            .output()
            .expect("run dtsvliw_explain");
        assert_eq!(out.status.code(), Some(0));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(
        canon(&local_dir),
        canon(&remote_dir),
        "canonical span set must not depend on where jobs ran"
    );
}

/// The worker daemon's own `/metrics` endpoint answers mid-campaign in
/// Prometheus text format, with the lease counters moving.
#[test]
fn worker_metrics_endpoint_answers_mid_campaign() {
    let dir = scratch("worker-metrics");
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let metrics_addr = probe.local_addr().expect("probe addr").to_string();
    drop(probe);
    let worker = start_worker_with(&dir, "w0", 2, &["--metrics-addr", &metrics_addr]);

    let spec = r#"{ "seed": 13, "backoff_ms": 2, "jobs": [
        { "name": "slow-a", "timeout_ms": 30000, "retries": 0,
          "argv": ["sh", "-c", "sleep 2"] },
        { "name": "slow-b", "timeout_ms": 30000, "retries": 0,
          "argv": ["sh", "-c", "sleep 2"] } ] }"#;
    std::fs::write(dir.join("spec.json"), spec).expect("write spec");
    let mut campaign = Command::new(SUPERVISE)
        .current_dir(&dir)
        .args([
            "spec.json",
            "--jobs",
            "1",
            "--workers",
            &worker.addr,
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dtsvliw_supervise");

    // Poll the worker's endpoint while the campaign runs until a lease
    // has landed there (sleeps keep the jobs in flight for seconds).
    let deadline = Instant::now() + Duration::from_secs(15);
    let body = loop {
        let mut text = String::new();
        if let Ok(mut s) = std::net::TcpStream::connect(&metrics_addr) {
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            if s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").is_ok() {
                let _ = s.read_to_string(&mut text);
            }
        }
        let leased = text
            .lines()
            .any(|l| l.starts_with("dtsvliw_worker_leases_accepted_total") && !l.ends_with(" 0"));
        if leased {
            break text;
        }
        assert!(
            Instant::now() < deadline,
            "worker metrics never showed an accepted lease:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let status = campaign.wait().expect("campaign exits");
    assert_eq!(status.code(), Some(0), "campaign must succeed");

    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    for family in [
        "dtsvliw_worker_results_sent_total",
        "dtsvliw_worker_hb_frames_total",
        "dtsvliw_worker_spans_relayed_total",
    ] {
        assert!(body.contains(family), "missing {family}:\n{body}");
    }
}

/// The tentpole acceptance test: two remote workers, the chaos harness
/// armed (process strikes *and* network strikes), and one worker
/// SIGKILLed mid-campaign. The stormed distributed report must be
/// byte-identical to an undisturbed `--jobs 1` local run, the attempts
/// doc must surface per-job fencing counts, and the wall-clock ledger
/// must show the distributed tier actually took strikes.
#[test]
fn distributed_chaos_storm_with_a_killed_worker_matches_calm_local_run() {
    let calm_dir = scratch("storm-calm");
    let storm_dir = scratch("storm-dist");
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
    assert_eq!(calm.code, 0, "undisturbed local run:\n{}", calm.stderr);

    let w0 = start_worker(&storm_dir, "w0", 2);
    let w1 = start_worker(&storm_dir, "w1", 2);
    let workers = format!("{},{}", w0.addr, w1.addr);
    // SIGKILL one worker a few seconds in: a real mid-campaign crash,
    // on top of the seeded network strikes.
    let victim_pid = w1.child.id();
    let assassin = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(4));
        let _ = Command::new("kill")
            .args(["-9", &victim_pid.to_string()])
            .status();
    });
    let storm = supervise(
        &storm_dir,
        &spec,
        &[
            "--jobs",
            "1",
            "--workers",
            &workers,
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
    assassin.join().unwrap();
    assert_eq!(
        storm.code, 0,
        "stormed distributed run must still converge:\n{}",
        storm.stderr
    );
    assert_eq!(
        read(&calm_dir, "r.json"),
        read(&storm_dir, "r.json"),
        "stormed distributed report must be byte-identical to the calm local one"
    );

    // The attempts doc surfaces at-most-once accounting per job.
    let attempts = read(&storm_dir, "at.json");
    assert!(
        attempts.contains("\"fenced_results\""),
        "attempts doc must surface fencing counts:\n{attempts}"
    );

    // The wall-clock ledger carries the distributed tier's story.
    let wall = Json::parse(&read(&storm_dir, "wall.json")).expect("wallclock parses");
    let dist = wall.get("dist").expect("dist ledger present");
    assert_eq!(
        dist.get("endpoints")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2),
        "{dist:?}"
    );
    let strikes = dist
        .get("net_chaos")
        .and_then(|n| n.get("strikes"))
        .and_then(Json::as_u64)
        .expect("net chaos ledger present");
    assert!(strikes > 0, "the storm must have attacked the wire");

    // Both ledgers count exactly what the trace records: every network
    // strike, and per job every result fencing rejected.
    let instants = instants(&read(&storm_dir, "spans.json"));
    let net_strikes = instants
        .iter()
        .filter(|(kind, _)| kind == "chaos_strike")
        .filter(|(_, args)| {
            args.get("action")
                .and_then(Json::as_str)
                .is_some_and(|a| a.starts_with("net-"))
        })
        .count();
    assert_eq!(strikes, net_strikes as u64);
    let attempts_doc = Json::parse(&attempts).expect("attempts doc parses");
    for job in attempts_doc.get("jobs").and_then(Json::as_arr).unwrap() {
        let id = job.get("id").and_then(Json::as_u64);
        let fences = instants
            .iter()
            .filter(|(kind, args)| kind == "fence" && args.get("job").and_then(Json::as_u64) == id)
            .count();
        assert_eq!(
            job.get("fenced_results").and_then(Json::as_u64),
            Some(fences as u64),
            "job {id:?}"
        );
    }

    // The merged cross-host trace stays well-formed through a worker
    // assassination, its canonical projection matches the calm local
    // run's, and the explainer's trace-derived attempt chains agree
    // with the attempts log despite fencing and forgiveness.
    let doc = Json::parse(&read(&storm_dir, "spans.json")).expect("trace parses");
    validate_perfetto(&doc).expect("well-formed cross-host trace");
    let canon = |dir: &Path| {
        let out = Command::new(EXPLAIN)
            .current_dir(dir)
            .args(["--spans", "spans.json", "--canon"])
            .output()
            .expect("run dtsvliw_explain");
        assert_eq!(out.status.code(), Some(0));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(
        canon(&calm_dir),
        canon(&storm_dir),
        "canonical span set must survive the distributed storm"
    );
    let crosscheck = Command::new(EXPLAIN)
        .current_dir(&storm_dir)
        .args(["--spans", "spans.json", "--attempts", "at.json"])
        .output()
        .expect("run dtsvliw_explain");
    let story = String::from_utf8_lossy(&crosscheck.stdout);
    assert_eq!(
        crosscheck.status.code(),
        Some(0),
        "trace must agree with the attempts log:\n{story}\n{}",
        String::from_utf8_lossy(&crosscheck.stderr)
    );
    assert!(
        story.contains("cross-check: trace agrees with the attempts log"),
        "{story}"
    );
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

/// At-most-once, proven against a real worker: a lease the coordinator
/// fences (a revoke the worker never heard — a partition) produces a
/// late result that the lease table rejects, while the reassigned
/// epoch's result settles exactly once.
#[test]
fn late_result_after_reassignment_is_fenced() {
    let dir = scratch("fencing");
    let worker = start_worker(&dir, "w0", 1);
    let (mut conn, slots) =
        coordinator_connect(&worker.addr, 7, Duration::from_secs(5)).expect("handshake");
    assert_eq!(slots, 1);

    let mut table = LeaseTable::new(1);
    let epoch0 = table.issue(0);
    let argv: Vec<String> = ["sh", "-c", "sleep 1; echo '{\"v\": 42}' > out.json"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    conn.send(
        &proto::lease(
            0,
            epoch0,
            "slowpoke",
            &argv,
            30_000,
            None,
            None,
            Some("out.json"),
            None,
        ),
        Duration::from_secs(5),
    )
    .expect("lease sends");

    // The coordinator decides the lease is dead (say, its revoke frame
    // was lost in a partition): the epoch is fenced at decision time,
    // and the job is reassigned under a fresh epoch that settles first.
    table.revoke(0);
    let epoch1 = table.issue(0);
    assert_eq!(table.settle(0, epoch1), Settle::Ok);

    // The partitioned worker eventually finishes and delivers its late
    // result for the fenced epoch. It must be rejected.
    let deadline = Instant::now() + Duration::from_secs(15);
    let verdict = loop {
        assert!(Instant::now() < deadline, "late result never arrived");
        match conn.recv(Duration::from_millis(200)) {
            Ok(Some(frame)) if proto::kind(&frame) == Some("result") => {
                let epoch = frame.get("epoch").and_then(Json::as_u64).expect("epoch");
                assert_eq!(epoch, epoch0, "the only in-flight lease was epoch 0");
                break table.settle(0, epoch);
            }
            Ok(_) => {} // keepalives
            Err(e) => panic!("connection died before the late result: {e}"),
        }
    };
    assert_eq!(verdict, Settle::Fenced, "late result must be fenced");
    assert_eq!(
        table.settle(0, epoch1),
        Settle::Duplicate,
        "the reassigned epoch settled exactly once"
    );
    let _ = conn.send(&proto::bye(), Duration::from_secs(5));
}

/// Every lease exit removes its scratch directory — including a lease
/// abandoned because its coordinator vanished mid-flight.
#[test]
fn abandoned_lease_leaves_no_scratch_directory() {
    let dir = scratch("abandon");
    let worker = start_worker(&dir, "w0", 1);
    let (mut conn, _) =
        coordinator_connect(&worker.addr, 7, Duration::from_secs(5)).expect("handshake");
    let argv: Vec<String> = ["sh", "-c", "sleep 30"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    conn.send(
        &proto::lease(0, 0, "orphan", &argv, 60_000, None, None, None, None),
        Duration::from_secs(5),
    )
    .expect("lease sends");
    let workdir = dir.join("wd-w0");
    let scratch_dirs = || {
        std::fs::read_dir(&workdir).map_or(0, |d| {
            d.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("job-"))
                .count()
        })
    };
    // The lease is running once its scratch directory exists.
    let deadline = Instant::now() + Duration::from_secs(10);
    while scratch_dirs() == 0 {
        assert!(Instant::now() < deadline, "the lease never started");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(conn);
    let deadline = Instant::now() + Duration::from_secs(10);
    while scratch_dirs() > 0 {
        assert!(
            Instant::now() < deadline,
            "an abandoned lease left its scratch directory behind"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Soft-deadline checkpoint-and-requeue on a leased slot: the
/// coordinator revokes the lease past its soft deadline once a shipped
/// snapshot has landed, and the next lease resumes from it. The report
/// matches a run that was never requeued; requeues stay within
/// `max_requeues`, never reach the attempts log, and their attempt
/// spans carry no consumed-retry index.
#[test]
fn soft_deadline_requeues_a_lease_and_resumes_to_the_same_report() {
    let plain_dir = scratch("requeue-plain");
    let soft_dir = scratch("requeue-leased");
    // Job 0 is dealt to the local slot and holds it, so job 1 — the
    // one with the soft deadline — is leased to the worker.
    let spec = |extra: &str| {
        format!(
            r#"{{ "seed": 21, "backoff_ms": 2, "max_requeues": 3, "jobs": [
              {{ "name": "hold-local", "timeout_ms": 30000, "retries": 0,
                "argv": ["sh", "-c", "sleep 3"] }},
              {{ "name": "compress-soft", "timeout_ms": 120000, "retries": 0{extra},
                "argv": ["dtsvliw_run", "--workload", "compress", "--scale", "small",
                         "--max", "50000000", "--config", "ideal", "--geometry", "4x8",
                         "--snapshot-every", "200000", "--snapshot-dir", "snaps/a",
                         "--metrics-json", "out/a.json"],
                "snapshot_dir": "snaps/a", "result": "out/a.json" }} ] }}"#
        )
    };
    let outs = [
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
    let mut args = vec!["--jobs", "1"];
    args.extend(outs);
    let plain = supervise(&plain_dir, &spec(""), &args);
    assert_eq!(plain.code, 0, "{}", plain.stderr);

    let worker = start_worker(&soft_dir, "w0", 1);
    let mut args = vec!["--jobs", "1", "--workers", &worker.addr];
    args.extend(outs);
    let soft = supervise(&soft_dir, &spec(r#", "soft_deadline_ms": 300"#), &args);
    assert_eq!(soft.code, 0, "{}", soft.stderr);

    let wall = Json::parse(&read(&soft_dir, "wall.json")).expect("wallclock parses");
    let requeues = wall.get("jobs").and_then(Json::as_arr).unwrap()[1]
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

    // The requeued attempt spans: none carries `n`, and the first
    // requeue happened on the remote slot's track.
    let doc = Json::parse(&read(&soft_dir, "spans.json")).expect("trace parses");
    let events = doc.as_arr().expect("trace-event array");
    let track_of = |tid: Option<u64>| {
        events
            .iter()
            .find(|ev| {
                ev.get("name").and_then(Json::as_str) == Some("thread_name")
                    && ev.get("tid").and_then(Json::as_u64) == tid
            })
            .and_then(|ev| ev.get("args")?.get("name")?.as_str().map(str::to_string))
            .unwrap_or_default()
    };
    let requeued: Vec<(String, &Json)> = events
        .iter()
        .filter_map(|ev| Some((ev.get("tid").and_then(Json::as_u64), ev.get("args")?)))
        .filter(|(_, a)| a.get("kind").and_then(Json::as_str) == Some("job_attempt"))
        .filter(|(_, a)| a.get("outcome").and_then(Json::as_str) == Some("requeued"))
        .map(|(tid, a)| (track_of(tid), a))
        .collect();
    assert_eq!(requeued.len() as u64, requeues, "{requeued:?}");
    assert!(
        requeued.iter().all(|(_, a)| a.get("n").is_none()),
        "{requeued:?}"
    );
    assert!(
        requeued[0].0.starts_with('r'),
        "the first requeue must revoke a lease: {requeued:?}"
    );
}

/// A worker started with a relative `--workdir` resumes a leased job
/// from the snapshot the coordinator ships with the lease: the child,
/// which runs inside the lease's scratch directory, must be handed a
/// resume path it can open from there. A re-run campaign finds the
/// first run's `latest.json` and resumes from it on its first attempt.
#[test]
fn relative_workdir_worker_resumes_a_shipped_snapshot() {
    let dir = scratch("relative-workdir");
    // Job 0 is dealt to the local slot and holds it, so job 1 — the
    // snapshotting one — is leased to the worker.
    let spec = r#"{ "seed": 5, "backoff_ms": 2, "jobs": [
          { "name": "hold-local", "timeout_ms": 30000, "retries": 0,
            "argv": ["sh", "-c", "sleep 3"] },
          { "name": "compress-resume", "timeout_ms": 120000, "retries": 0,
            "argv": ["dtsvliw_run", "--workload", "compress", "--scale", "small",
                     "--max", "2000000", "--config", "ideal", "--geometry", "4x8",
                     "--snapshot-every", "200000", "--snapshot-dir", "snaps/a",
                     "--metrics-json", "out/a.json"],
            "snapshot_dir": "snaps/a", "result": "out/a.json" } ] }"#;
    let first = supervise(&dir, spec, &["--jobs", "2", "--out", "r0.json", "--quiet"]);
    assert_eq!(first.code, 0, "{}", first.stderr);
    assert!(
        dir.join("snaps/a/latest.json").exists(),
        "no snapshot to resume"
    );

    let worker = start_worker_in(&dir, "w0", 1, &[], Path::new("wd-rel"));
    let args = [
        "--jobs",
        "1",
        "--workers",
        &worker.addr,
        "--out",
        "r1.json",
        "--attempts-out",
        "at.json",
        "--spans-out",
        "spans.json",
        "--quiet",
    ];
    let second = supervise(&dir, spec, &args);
    assert_eq!(second.code, 0, "{}", second.stderr);
    assert_eq!(read(&dir, "r0.json"), read(&dir, "r1.json"));

    let attempts = read(&dir, "at.json");
    assert!(!attempts.contains("corrupt-snapshot"), "{attempts}");
    let doc = Json::parse(&attempts).expect("attempts log parses");
    let job = &doc.get("jobs").and_then(Json::as_arr).unwrap()[1];
    let tries = job.get("attempts").and_then(Json::as_arr).unwrap();
    assert_eq!(tries.len(), 1, "{attempts}");
    assert_eq!(
        tries[0].get("resumed").and_then(Json::as_bool),
        Some(true),
        "{attempts}"
    );
    assert_eq!(
        tries[0].get("outcome").and_then(Json::as_str),
        Some("success"),
        "{attempts}"
    );

    // The attempt ran on the remote slot's track, not the local one.
    let spans = Json::parse(&read(&dir, "spans.json")).expect("trace parses");
    let events = spans.as_arr().expect("trace-event array");
    let tid = events
        .iter()
        .find(|ev| {
            ev.get("args").is_some_and(|a| {
                a.get("kind").and_then(Json::as_str) == Some("job_attempt")
                    && a.get("name").and_then(Json::as_str) == Some("compress-resume")
            })
        })
        .and_then(|ev| ev.get("tid").and_then(Json::as_u64))
        .expect("job 1 attempt span");
    let track = events
        .iter()
        .find(|ev| {
            ev.get("name").and_then(Json::as_str) == Some("thread_name")
                && ev.get("tid").and_then(Json::as_u64) == Some(tid)
        })
        .and_then(|ev| ev.get("args")?.get("name")?.as_str().map(str::to_string))
        .unwrap_or_default();
    assert!(
        track.starts_with('r'),
        "job 1 ran on `{track}`, not a lease"
    );
}

/// Graceful degradation: every configured worker unreachable, yet the
/// campaign completes on local slots alone — exit 0 — and the
/// wall-clock ledger records the downgrade.
#[test]
fn unreachable_workers_degrade_to_a_local_campaign() {
    let dir = scratch("degraded");
    // Port 1: connection refused. Jobs sleep long enough for the remote
    // slot to observe the dead endpoint while they are outstanding.
    let spec = r#"{ "seed": 3, "backoff_ms": 2, "jobs": [
        { "name": "steady-a", "timeout_ms": 30000, "retries": 1,
          "argv": ["sh", "-c", "sleep 1; echo '{\"v\": 1}' > a.json"], "result": "a.json" },
        { "name": "steady-b", "timeout_ms": 30000, "retries": 1,
          "argv": ["sh", "-c", "sleep 1"] } ] }"#;
    let r = supervise(
        &dir,
        spec,
        &[
            "--jobs",
            "2",
            "--workers",
            "127.0.0.1:1",
            "--out",
            "r.json",
            "--wallclock-out",
            "wall.json",
            "--quiet",
        ],
    );
    assert_eq!(
        r.code, 0,
        "zero reachable workers must still complete locally:\n{}",
        r.stderr
    );
    let report = read(&dir, "r.json");
    assert!(report.contains("\"succeeded\": 2"), "{report}");
    let wall = Json::parse(&read(&dir, "wall.json")).expect("wallclock parses");
    let dist = wall.get("dist").expect("dist ledger present");
    assert_eq!(
        dist.get("degraded").and_then(Json::as_bool),
        Some(true),
        "the downgrade must be recorded: {dist:?}"
    );
}

/// The simulator binary referenced above must exist (and this keeps the
/// `RUN` constant used).
#[test]
fn simulator_binary_is_built() {
    assert!(Path::new(RUN).exists());
}
