//! The worker side of the wire: serve leases, babysit children, stream
//! heartbeats and snapshots home.
//!
//! `dtsvliw_worker` binds a listener and serves each coordinator
//! connection on its own thread, one lease at a time per connection
//! (the coordinator opens one connection per slot it wants). A lease
//! runs in a private scratch directory keyed by `(job, epoch)`, so a
//! re-leased job never collides with the ghost of its fenced
//! predecessor; the directory goes however the lease ends. The child
//! runs under the same [`Babysitter`] a local slot uses, and while it
//! runs the worker:
//!
//! * relays the complete records of the child's heartbeat tail as
//!   `hb` frames (an empty `hb` every [`KEEPALIVE_MS`] is the liveness
//!   signal that defeats half-open connections);
//! * ships the child's `latest.json` as checksummed `snap` frames
//!   whenever it changes, so an evicted shard resumes mid-flight on
//!   whatever host gets the next lease;
//! * obeys `revoke` frames (kill, acknowledge, no result) and treats
//!   connection loss the same way — an orphaned child must not outlive
//!   its lease, because its late result would be fenced anyway.

use super::client::Connection;
use super::proto;
use crate::supervise::babysit::{Babysitter, KillPolicy};
use crate::supervise::metrics::{spawn_metrics_server, WorkerCounters};
use crate::supervise::outcome::Outcome;
use dtsvliw_json::Json;
use dtsvliw_trace::{SpanEvent, SpanKind, SpanPhase};
use std::net::TcpListener;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cadence of empty `hb` keepalive frames while the child is quiet.
pub const KEEPALIVE_MS: u64 = 500;
/// Per-frame write deadline.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);
/// Minimum gap between snapshot shipments for one lease.
const SHIP_GAP_MS: u64 = 200;

/// How the worker binary was invoked.
pub struct WorkerOptions {
    /// Listen address (`host:port`; port 0 binds ephemerally).
    pub listen: String,
    /// Slot count advertised in the hello-ack.
    pub slots: usize,
    /// Root for per-lease scratch directories.
    pub workdir: PathBuf,
    /// Write the bound address here once listening (tests and scripts
    /// bind port 0 and discover the port from this file).
    pub port_file: Option<PathBuf>,
    /// Serve the worker-side `/metrics` page here when set.
    pub metrics_addr: Option<String>,
    pub quiet: bool,
}

fn log(opts: &WorkerOptions, line: &str) {
    if !opts.quiet {
        eprintln!("dtsvliw_worker: {line}");
    }
}

/// Bind, announce, and serve coordinator connections forever.
pub fn serve(opts: &WorkerOptions) -> std::io::Result<()> {
    let listener = TcpListener::bind(&opts.listen)?;
    let addr = listener.local_addr()?;
    std::fs::create_dir_all(&opts.workdir)?;
    if let Some(pf) = &opts.port_file {
        // Temp-then-rename so a polling reader never sees half a line.
        let tmp = pf.with_extension("tmp");
        std::fs::write(&tmp, format!("{addr}\n"))?;
        std::fs::rename(&tmp, pf)?;
    }
    eprintln!("dtsvliw_worker: listening on {addr} ({} slots)", opts.slots);
    let counters = Arc::new(WorkerCounters::new());
    if let Some(maddr) = &opts.metrics_addr {
        // The daemon serves until killed, so the stop flag never flips
        // and the server thread simply dies with the process.
        let registry = Arc::clone(&counters);
        let page: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(move || registry.render());
        match spawn_metrics_server(maddr, page, Arc::new(AtomicBool::new(false))) {
            Ok((bound, _handle)) => {
                eprintln!("dtsvliw_worker: metrics on http://{bound}/metrics");
            }
            Err(e) => eprintln!("dtsvliw_worker: cannot bind metrics endpoint {maddr}: {e}"),
        }
    }
    let opts = WorkerOptions {
        listen: addr.to_string(),
        slots: opts.slots,
        workdir: opts.workdir.clone(),
        port_file: opts.port_file.clone(),
        metrics_addr: opts.metrics_addr.clone(),
        quiet: opts.quiet,
    };
    let opts = Arc::new(opts);
    loop {
        let (stream, peer) = listener.accept()?;
        let opts = opts.clone();
        let counters = Arc::clone(&counters);
        std::thread::spawn(move || {
            log(&opts, &format!("session from {peer}"));
            match Connection::from_stream(stream) {
                Ok(conn) => session(&opts, conn, &counters),
                Err(e) => log(&opts, &format!("session setup failed: {e}")),
            }
            log(&opts, &format!("session from {peer} over"));
        });
    }
}

/// One coordinator connection: handshake, then serve leases until the
/// peer says bye or the wire dies.
fn session(opts: &WorkerOptions, mut conn: Connection, counters: &WorkerCounters) {
    let hello = match conn.recv(Duration::from_secs(10)) {
        Ok(Some(f)) => f,
        Ok(None) => return log(opts, "peer never said hello"),
        Err(e) => return log(opts, &format!("handshake: {e}")),
    };
    if let Err(why) = proto::check_hello(&hello) {
        log(opts, &format!("refusing session: {why}"));
        let _ = conn.send(&proto::bye(), WRITE_DEADLINE);
        return;
    }
    // Span relay is a negotiated capability: only a coordinator that
    // asked for spans in its hello gets them attached to frames.
    let spans_on = proto::wants_spans(&hello);
    let me = format!("pid-{}", std::process::id());
    if conn
        .send(
            &proto::hello_ack(opts.slots as u64, &me, spans_on),
            WRITE_DEADLINE,
        )
        .is_err()
    {
        return;
    }
    loop {
        let frame = match conn.recv(Duration::from_millis(200)) {
            Ok(Some(f)) => f,
            Ok(None) => continue,
            Err(e) => return log(opts, &format!("session: {e}")),
        };
        match proto::kind(&frame) {
            Some("lease") => {
                if !run_lease(opts, &mut conn, &frame, spans_on, counters) {
                    return;
                }
            }
            Some("bye") | None => return,
            Some(other) => log(opts, &format!("ignoring stray `{other}` frame")),
        }
    }
}

/// Length and mtime of `latest.json`: it is shipped only when they move.
type SnapStamp = Option<(u64, std::time::SystemTime)>;

/// Ship the child's `latest.json` as a `snap` frame if it changed since
/// the `shipped` stamp. Returns the bytes shipped (`None` when nothing
/// was), or `Err` when the connection failed.
fn ship_snapshot(
    conn: &mut Connection,
    (job, epoch): (u64, u64),
    path: &Path,
    shipped: &mut SnapStamp,
    counters: &WorkerCounters,
) -> Result<Option<u64>, ()> {
    let meta = std::fs::metadata(path).ok();
    let stamp = meta.and_then(|m| Some((m.len(), m.modified().ok()?)));
    if stamp.is_none() || stamp == *shipped {
        return Ok(None);
    }
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(None);
    };
    conn.send(&proto::snap(job, epoch, &text), WRITE_DEADLINE)
        .map_err(|_| ())?;
    counters.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
    *shipped = stamp;
    Ok(Some(text.len() as u64))
}

/// One lease's worker-local spans, waiting to ride the next outgoing
/// `hb` or `result` frame; kept only when the handshake negotiated span
/// relay. The worker has no clock shared with the coordinator: every
/// span is stamped in milliseconds since the lease arrived, and the
/// coordinator rebases them onto its lease-grant anchor.
struct SpanRelay {
    on: bool,
    received: Instant,
    job: u64,
    epoch: u64,
    pending: Vec<Json>,
}

/// Worker-local span ids: the lease pair is 1, instants are 0; the
/// coordinator remaps nonzero ids into its own space on absorption.
const LEASE_SPAN_ID: u64 = 1;

impl SpanRelay {
    fn note(&mut self, kind: SpanKind, phase: SpanPhase, id: u64, extra: Option<(&str, Json)>) {
        if !self.on {
            return;
        }
        let mut args = vec![
            ("side".to_string(), Json::Str("worker".to_string())),
            ("job".to_string(), Json::U64(self.job)),
            ("epoch".to_string(), Json::U64(self.epoch)),
        ];
        args.extend(extra.map(|(k, v)| (k.to_string(), v)));
        let ev = SpanEvent {
            t_ms: self.received.elapsed().as_millis() as u64,
            kind,
            phase,
            id,
            track: "worker".to_string(),
            args,
        };
        self.pending.push(ev.to_json());
    }

    fn drain_onto(&mut self, frame: &mut Json, counters: &WorkerCounters) {
        counters
            .spans_relayed
            .fetch_add(self.pending.len() as u64, Ordering::Relaxed);
        proto::attach_spans(frame, std::mem::take(&mut self.pending));
    }

    /// An `hb` frame carrying `records` and every pending span.
    fn hb(&mut self, records: Vec<Json>, counters: &WorkerCounters) -> Json {
        let mut f = proto::hb(self.job, self.epoch, records);
        self.drain_onto(&mut f, counters);
        counters.hb_frames.fetch_add(1, Ordering::Relaxed);
        f
    }
}

/// A lease's private scratch directory, keyed by `(job, epoch)` so a
/// fenced predecessor's ghost writes into *its* directory, never this
/// one's. Removed on every exit from the lease.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Serve one lease to completion. Returns `false` when the connection
/// died and the session must end.
fn run_lease(
    opts: &WorkerOptions,
    conn: &mut Connection,
    lease: &Json,
    spans_on: bool,
    counters: &WorkerCounters,
) -> bool {
    let Some((job, epoch)) = proto::job_epoch(lease) else {
        log(opts, "lease without job/epoch");
        return false;
    };
    counters.leases_accepted.fetch_add(1, Ordering::Relaxed);
    let mut spans = SpanRelay {
        on: spans_on,
        received: Instant::now(),
        job,
        epoch,
        pending: Vec::new(),
    };
    spans.note(SpanKind::Lease, SpanPhase::Begin, LEASE_SPAN_ID, None);
    let name = lease.get("name").and_then(Json::as_str).unwrap_or("?");
    let argv: Vec<String> = lease
        .get("argv")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let timeout_ms = lease
        .get("timeout_ms")
        .and_then(Json::as_u64)
        .unwrap_or(60_000);
    let rel = |key: &str| lease.get(key).and_then(Json::as_str).map(|s| s.to_string());
    let heartbeat = rel("heartbeat");
    let snapshot_dir = rel("snapshot_dir");
    let result_path = rel("result");

    // Declared before the child, so the directory goes only once the
    // child is dead.
    let scratch = Scratch(opts.workdir.join(format!("job-{job}-e{epoch}")));
    let _ = std::fs::remove_dir_all(&scratch.0);
    if argv.is_empty() || std::fs::create_dir_all(&scratch.0).is_err() {
        let _ = conn.send(
            &proto::result(job, epoch, Outcome::Error(125), false, None, false),
            WRITE_DEADLINE,
        );
        return true;
    }

    // Materialise the shipped snapshot (checksum-verified) so the
    // attempt resumes exactly where the evicted host stopped.
    let mut resumed = false;
    let snap_path = snapshot_dir
        .as_deref()
        .map(|d| dtsvliw_core::latest_path(&scratch.0.join(d)));
    if let (Some(shipment), Some(path)) = (lease.get("snapshot"), &snap_path) {
        if !matches!(shipment, Json::Null) {
            match proto::verified_data(shipment) {
                Some(text) => {
                    if let Some(parent) = path.parent() {
                        let _ = std::fs::create_dir_all(parent);
                    }
                    resumed = std::fs::write(path, text).is_ok();
                }
                None => log(
                    opts,
                    &format!(
                        "lease {job}e{epoch}: shipped snapshot failed checksum, starting fresh"
                    ),
                ),
            }
        }
    }
    // The child runs in the scratch directory, so it is handed the
    // snapshot path as declared, relative to its own working directory.
    let resume = snapshot_dir
        .as_deref()
        .filter(|_| resumed && !argv.iter().any(|a| a == "--resume"))
        .map(|d| dtsvliw_core::latest_path(Path::new(d)));

    log(
        opts,
        &format!("lease {job}e{epoch} `{name}`: {}", argv.join(" ")),
    );
    let heartbeat = heartbeat.map(|h| scratch.0.join(h));
    let spawned = Babysitter::spawn(
        &argv,
        Some(&scratch.0),
        resume.as_deref(),
        true,
        heartbeat,
        |line| log(opts, line),
    );
    let (outcome, tail_truncated) = match spawned {
        Err(outcome) => (outcome, 0),
        Ok(mut sitter) => {
            // Backstop timeout: the coordinator revokes at its own
            // deadline, but a partitioned worker must not nurse an
            // orphan forever.
            let backstop = KillPolicy::timeout_only(Duration::from_millis(timeout_ms));
            let mut last_sent = Instant::now();
            let mut last_ship: Option<Instant> = None;
            let mut shipped = None;
            loop {
                // The exit's final flush takes the same relay path:
                // whatever the child wrote in its last breath, including
                // a record it never newline-terminated, and its last
                // snapshot.
                let (read, exited) = match sitter.poll(|line| log(opts, line)) {
                    ControlFlow::Continue(read) => (read, None),
                    ControlFlow::Break((outcome, tail)) => (tail, Some(outcome)),
                };
                let truncated = read.truncated;
                // Relay heartbeat records; keepalive when quiet.
                // Pending spans ride whichever hb frame goes out next.
                if !read.records.is_empty()
                    || last_sent.elapsed() >= Duration::from_millis(KEEPALIVE_MS)
                {
                    if conn
                        .send(&spans.hb(read.records, counters), WRITE_DEADLINE)
                        .is_err()
                    {
                        return abandon(opts, job, epoch, "hb send failed");
                    }
                    last_sent = Instant::now();
                }
                // Ship the snapshot when it changed (rate-limited while
                // the child runs).
                if let Some(path) = &snap_path {
                    let due =
                        last_ship.is_none_or(|t| t.elapsed() >= Duration::from_millis(SHIP_GAP_MS));
                    if due || exited.is_some() {
                        match ship_snapshot(conn, (job, epoch), path, &mut shipped, counters) {
                            Err(()) => return abandon(opts, job, epoch, "snap ship failed"),
                            Ok(None) => {}
                            Ok(Some(bytes)) => {
                                let bytes = Some(("bytes", Json::U64(bytes)));
                                spans.note(SpanKind::SnapshotShip, SpanPhase::Instant, 0, bytes);
                                last_ship = Some(Instant::now());
                                last_sent = Instant::now();
                            }
                        }
                    }
                }
                if let Some(outcome) = exited {
                    break (outcome, truncated);
                }
                if let Some(reason) = backstop.decide(sitter.started.elapsed(), Duration::ZERO) {
                    sitter.kill(reason);
                }
                // Obey the coordinator.
                match conn.recv(Duration::from_millis(10)) {
                    Ok(Some(frame)) => match proto::kind(&frame) {
                        Some("revoke") if proto::job_epoch(&frame) == Some((job, epoch)) => {
                            log(opts, &format!("lease {job}e{epoch} revoked"));
                            counters.revoked.fetch_add(1, Ordering::Relaxed);
                            drop(sitter);
                            return conn
                                .send(&proto::revoked(job, epoch), WRITE_DEADLINE)
                                .is_ok();
                        }
                        Some("bye") => return false,
                        _ => {}
                    },
                    Ok(None) => {}
                    Err(e) => return abandon(opts, job, epoch, &format!("{e}")),
                }
            }
        }
    };
    counters
        .tail_truncated
        .fetch_add(tail_truncated, Ordering::Relaxed);

    let label = Some(("outcome", Json::Str(outcome.label().to_string())));
    spans.note(SpanKind::Lease, SpanPhase::End, LEASE_SPAN_ID, label);
    let (result_text, missing) = match (&result_path, outcome) {
        (Some(p), Outcome::Success) => match std::fs::read_to_string(scratch.0.join(p)) {
            Ok(text) => (Some(text), false),
            Err(_) => (None, true),
        },
        _ => (None, false),
    };
    log(
        opts,
        &format!("lease {job}e{epoch} `{name}`: {}", outcome.label()),
    );
    let mut result_frame = proto::result(
        job,
        epoch,
        outcome,
        resumed,
        result_text.as_deref(),
        missing,
    );
    proto::attach_tail_truncated(&mut result_frame, tail_truncated);
    spans.drain_onto(&mut result_frame, counters);
    let ok = conn.send(&result_frame, WRITE_DEADLINE).is_ok();
    if ok {
        counters.results_sent.fetch_add(1, Ordering::Relaxed);
    }
    ok
}

/// The connection died mid-lease: the child dies with it as the lease
/// unwinds (its result could never settle — the coordinator fences the
/// epoch the moment it declares the connection lost).
fn abandon(opts: &WorkerOptions, job: u64, epoch: u64, why: &str) -> bool {
    log(opts, &format!("lease {job}e{epoch} abandoned: {why}"));
    false
}
