//! Worker threads, the attempt loop, and the deterministic merge.
//!
//! `run_campaign` fans the spec's jobs across worker threads through
//! the [`queue`](super::queue) scheduler. Each slot runs one attempt at
//! a time through one loop, whether the child is local (a
//! [`Babysitter`]) or leased to a remote worker: it resumes from a
//! durable snapshot whenever one exists, judges the attempt by one
//! [`KillPolicy`] (hard timeout, heartbeat stall, soft-deadline
//! checkpoint-and-requeue), and settles every ending in one place
//! (`finish_attempt`). Only transport differs: local children are
//! registered for process chaos; leases carry epochs, frames, shipped
//! snapshots and results, silence detection and network chaos.
//! Failures the supervisor's
//! own chaos harness caused — and corrupt snapshots, which are
//! quarantined and retried fresh — are *forgiven*: they consume no
//! retry budget (up to [`FORGIVENESS_CAP`]), which is what keeps the
//! final report of a chaos-stormed campaign byte-identical to an
//! undisturbed run.
//!
//! Determinism contract of the three output documents:
//!
//! * **report** ([`report_json`]) — pure function of the spec and each
//!   job's final status + result digest; invariant under worker count,
//!   completion order, retries, and chaos.
//! * **attempts log** ([`attempts_json`]) — the full attempt history
//!   with outcomes and the seeded backoff schedule; deterministic
//!   whenever the attempts themselves are (no chaos, no wall-clock-
//!   bound outcomes). Soft-deadline requeues are *not* recorded here —
//!   they are wall-clock shaped by nature and live in the side-channel.
//! * **wall-clock side-channel** ([`wallclock_json`]) — durations,
//!   requeue counts, the chaos ledger; never expected to reproduce.
//!
//! The campaign span log is the only record of what happened. Every
//! settled attempt, strike, fencing rejection and quarantine lands there
//! as a span; the documents, [`CampaignResult`] and the `/metrics` page
//! are all read back out of it through [`crate::explain`], the reader
//! `dtsvliw_explain` uses on the trace file.

use super::babysit::{Babysitter, KillPolicy};
use super::backoff;
use super::chaos::{send_signal, ChaosAction, ChaosEngine, FORGIVENESS_CAP};
use super::dist::{
    coordinator_connect, proto, Connection, LeaseTable, NetChaos, NetStrike, Settle,
};
use super::heartbeat::{complete_records, progress_of, Progress};
use super::metrics::{campaign_page, spawn_metrics_server};
use super::outcome::{KillReason, Outcome};
use super::queue::{Claim, Scheduler};
use super::spec::{CampaignSpec, JobSpec};
use super::status::{BoardSnapshot, StatusSink, WorkerView};
use super::{canonical_result_digest, fnv1a};
use crate::explain::{self, CampaignView};
use dtsvliw_json::Json;
use dtsvliw_trace::{SpanEvent, SpanKind, SpanLog, SpanPhase};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Quarantined snapshots kept per job; older ones are evicted and the
/// evictions counted in the wall-clock ledger.
pub const QUARANTINE_KEEP: usize = 8;

/// Slot ceiling honoured per remote endpoint, whatever it advertises.
const MAX_SLOTS_PER_ENDPOINT: usize = 16;
/// Per-frame write deadline on coordinator connections.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);
/// Handshake deadline (probe and slot connects).
const CONNECT_DEADLINE: Duration = Duration::from_secs(3);
/// A remote lease whose connection produced no frame at all for this
/// long is declared lost (worker keepalives come every 500 ms, so this
/// is ~6 missed keepalives — or a half-open socket).
const REMOTE_SILENCE_MS: u64 = 3_000;
/// After a revoke is sent, how long to wait for the ack or result
/// before writing the connection off.
const REVOKE_GRACE_MS: u64 = 5_000;

/// How the engine is driven (the bin's command line, in parsed form).
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker slots (`--jobs`).
    pub workers: usize,
    /// In-flight spawn window (back-pressure); defaults to every slot,
    /// local and remote.
    pub spawn_window: Option<usize>,
    /// Arm the chaos harness with this seed.
    pub chaos_seed: Option<u64>,
    /// Silence child stdout and per-attempt log lines.
    pub quiet: bool,
    /// Remote worker endpoints (`--workers host:port,…`), validated by
    /// [`super::dist::parse_worker_list`].
    pub remotes: Vec<String>,
    /// Serve `/metrics` (Prometheus text exposition) on this address
    /// for the campaign's duration.
    pub metrics_addr: Option<String>,
    /// Clamp the status line to this many columns (`--status-width`)
    /// instead of the detected terminal width.
    pub status_width: Option<usize>,
}

/// One recorded (budget-relevant) attempt.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    pub outcome: Outcome,
    pub resumed: bool,
    /// The failure was chaos-caused or a quarantined corrupt snapshot:
    /// it consumed no retry budget.
    pub forgiven: bool,
    /// Backoff scheduled after this attempt (`None` when terminal).
    pub backoff_ms: Option<u64>,
}

/// A job's final, merged state.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub id: u64,
    pub name: String,
    pub succeeded: bool,
    /// Canonical digest of the declared result file (succeeded jobs
    /// only; `"missing"` when declared but absent).
    pub result_digest: Option<String>,
    pub attempts: Vec<AttemptRecord>,
    /// Retries consumed (forgiven attempts excluded).
    pub consumed_retries: u32,
    pub forgiven: u64,
    pub requeues: u64,
    pub wall_ms: u64,
    /// Late or duplicated remote results rejected by lease-epoch
    /// fencing (at-most-once accounting). Always 0 for local attempts.
    pub fenced_results: u64,
    /// Attempts whose heartbeat stream ended in a genuinely torn
    /// (unparseable) final record.
    pub tail_truncated: u64,
}

/// Everything `run_campaign` produced.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Sorted by job id — the merge key.
    pub jobs: Vec<JobResult>,
    pub succeeded: u64,
    pub failed: u64,
    pub workers: usize,
    pub wall_ms: u64,
    /// The chaos action ledger, when `--chaos` was armed.
    pub chaos: Option<Json>,
    /// The distributed-tier ledger (`--workers`): endpoints, slots,
    /// fencing counts, the degradation flag, network strikes. `None`
    /// for local-only campaigns.
    pub dist: Option<Json>,
    /// Quarantined snapshots evicted by the retention cap.
    pub quarantines_evicted: u64,
    /// Every campaign span recorded on either side of the wire, with
    /// worker-local clocks already normalised against lease-grant
    /// anchors: the ledger everything above was projected from. Feed
    /// to [`dtsvliw_trace::merge_perfetto`].
    pub spans: Vec<SpanEvent>,
}

// ---------------------------------------------------------------------
// Shared engine state
// ---------------------------------------------------------------------

/// A job's decision state: what the next attempt's budget, backoff and
/// kill policy depend on. What happened is in the span log.
#[derive(Default)]
struct JobRun {
    consumed: u32,
    forgiven: u64,
    /// Soft-deadline requeues so far, against the spec's
    /// `max_requeues`.
    requeues: u64,
    done: Option<bool>,
    /// Chaos marks against the in-flight attempt, cleared when it ends.
    chaos_killed: bool,
    chaos_frozen: bool,
    /// A network strike hit the attempt's connection.
    chaos_net: bool,
}

struct RunningChild {
    pid: u32,
    job: usize,
}

struct EngineState {
    sched: Scheduler,
    runs: Vec<JobRun>,
    running: Vec<RunningChild>,
    workers: Vec<WorkerView>,
    done: usize,
    failed: usize,
    finished_instructions: u64,
    /// Lease epochs for remote attempts (fencing, at-most-once).
    leases: LeaseTable,
    /// Reachability per remote endpoint (index into `opts.remotes`).
    endpoint_up: Vec<bool>,
    /// Sticky: every endpoint was down while jobs were outstanding —
    /// the campaign drained (at least partly) on local slots alone.
    degraded: bool,
}

struct Shared<'a> {
    spec: &'a CampaignSpec,
    opts: &'a EngineOptions,
    state: Mutex<EngineState>,
    cv: Condvar,
    sink: Mutex<StatusSink>,
    over: AtomicBool,
    started: Instant,
    /// Campaign span log: the campaign's only ledger. `Arc` so the
    /// `/metrics` thread, which outlives the borrow-scoped worker
    /// threads, can fold it on each scrape. Lock order: state -> spans;
    /// no code path takes state while holding spans.
    spans: Arc<Mutex<SpanLog>>,
    /// Stable-id allocator for begin/end span pairing.
    span_seq: AtomicU64,
    /// Track name per slot: `w<i>` local, `r<i>:<endpoint>` remote.
    slot_names: Vec<String>,
}

impl Shared<'_> {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn next_span_id(&self) -> u64 {
        self.span_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record one span event stamped `now`.
    fn span(
        &self,
        kind: SpanKind,
        phase: SpanPhase,
        id: u64,
        track: &str,
        args: Vec<(String, Json)>,
    ) {
        self.span_at(self.now_ms(), kind, phase, id, track, args);
    }

    /// Record one span event at an explicit campaign timestamp (used
    /// for begin marks anchored at spawn time, and for normalised
    /// worker-relayed spans).
    fn span_at(
        &self,
        t_ms: u64,
        kind: SpanKind,
        phase: SpanPhase,
        id: u64,
        track: &str,
        args: Vec<(String, Json)>,
    ) {
        self.spans
            .lock()
            .unwrap()
            .record(t_ms, kind, phase, id, track, args);
    }

    /// Clear the status line and log one line, keeping redraws clean.
    fn log(&self, line: &str) {
        if self.opts.quiet {
            return;
        }
        let mut sink = self.sink.lock().unwrap();
        sink.clear();
        eprintln!("{line}");
    }

    fn board(&self, st: &EngineState) -> BoardSnapshot {
        BoardSnapshot {
            total: self.spec.jobs.len(),
            done: st.done,
            failed: st.failed,
            finished_instructions: st.finished_instructions,
            workers: st.workers.clone(),
            shard_depths: st.sched.shard_depths(),
        }
    }
}

/// True when the attempt's failure is attributable to the chaos
/// harness: a strike mark is pending and the outcome is one a strike
/// produces (a kill lands as a signal; a freeze lands as a stall or a
/// timeout, depending on which detector fires first; a network strike
/// lands as a stall or timeout when it starved the heartbeat relay).
fn chaos_caused(outcome: Outcome, killed_mark: bool, frozen_mark: bool, net_mark: bool) -> bool {
    match outcome {
        Outcome::Signal(_) => killed_mark,
        Outcome::Timeout | Outcome::Stalled => killed_mark || frozen_mark || net_mark,
        _ => false,
    }
}

// ---------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------

/// Emit a quota-headroom counter sample per tenant (only when the spec
/// declares quotas, so unconstrained campaigns carry no counter track).
fn quota_headroom_sample(shared: &Shared<'_>, st: &EngineState) {
    if shared.spec.quotas.is_empty() {
        return;
    }
    let mut args = vec![("name".to_string(), Json::Str("quota headroom".to_string()))];
    for ((tenant, _), (running, quota)) in shared.spec.quotas.iter().zip(st.sched.tenant_loads()) {
        args.push((
            tenant.clone(),
            Json::U64(quota.saturating_sub(running) as u64),
        ));
    }
    shared.span(SpanKind::Campaign, SpanPhase::Counter, 0, "campaign", args);
}

/// Park on the scheduler until a job is claimable for slot `w`, or the
/// campaign is over (`None`).
fn claim_job(shared: &Shared<'_>, w: usize) -> Option<usize> {
    let mut st = shared.state.lock().unwrap();
    loop {
        match st
            .sched
            .claim(w, shared.started.elapsed().as_millis() as u64)
        {
            Claim::Done => return None,
            Claim::Run(j) => {
                if st.sched.last_claim_was_steal() {
                    shared.span(
                        SpanKind::Steal,
                        SpanPhase::Instant,
                        0,
                        &shared.slot_names[w],
                        vec![
                            ("job".to_string(), Json::U64(shared.spec.jobs[j].id)),
                            (
                                "name".to_string(),
                                Json::Str(shared.spec.jobs[j].name.clone()),
                            ),
                        ],
                    );
                }
                quota_headroom_sample(shared, &st);
                return Some(j);
            }
            Claim::Wait => {
                st = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(10))
                    .unwrap()
                    .0;
            }
        }
    }
}

fn worker_loop(shared: &Shared<'_>, w: usize) {
    while let Some(job_idx) = claim_job(shared, w) {
        run_attempt(shared, w, job_idx, None);
        shared.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// The attempt loop, shared by local and remote slots
// ---------------------------------------------------------------------

/// How often a local slot looks at its child.
const LOCAL_POLL: Duration = Duration::from_millis(4);

/// How an attempt ended, as its settle needs it.
struct End {
    outcome: Outcome,
    /// The attempt's freshest heartbeat progress.
    progress: Option<Progress>,
    /// Torn final heartbeat records.
    truncated: u64,
    /// The resume flag a worker reported: it overrides the
    /// coordinator's when a shipped snapshot failed verification.
    resumed: Option<bool>,
    /// The slot's connection is still usable (always, on local slots).
    alive: bool,
}

impl End {
    /// An ending that carries nothing beyond its outcome.
    fn bare(outcome: Outcome, alive: bool) -> End {
        End {
            outcome,
            progress: None,
            truncated: 0,
            resumed: None,
            alive,
        }
    }
}

/// The connection a remote slot leases its attempts over.
struct Wire<'c> {
    conn: &'c mut Connection,
    net: Option<&'c mut NetChaos>,
}

/// An attempt's transport: a child on this host, or a lease on a worker
/// connection. Everything else about an attempt is shared.
trait Transport {
    /// Just before the child was spawned or the lease sent.
    fn started(&self) -> Instant;
    /// Wait for the next look at the attempt: `Continue` with the
    /// freshest heartbeat progress while it runs, `Break` once it ended.
    fn next(&mut self, shared: &Shared<'_>, w: usize) -> ControlFlow<End, Option<Progress>>;
    /// Kill the attempt for `reason`; a later `next` observes its end.
    fn kill(&mut self, shared: &Shared<'_>, w: usize, reason: KillReason);
}

impl Transport for Babysitter {
    fn started(&self) -> Instant {
        self.started
    }

    fn next(&mut self, shared: &Shared<'_>, _: usize) -> ControlFlow<End, Option<Progress>> {
        std::thread::sleep(LOCAL_POLL);
        match self.poll(|line| shared.log(&format!("supervise: {line}"))) {
            ControlFlow::Continue(read) => ControlFlow::Continue(read.progress),
            ControlFlow::Break((outcome, tail)) => ControlFlow::Break(End {
                progress: tail.progress,
                truncated: tail.truncated,
                ..End::bare(outcome, true)
            }),
        }
    }

    fn kill(&mut self, _: &Shared<'_>, _: usize, reason: KillReason) {
        Babysitter::kill(self, reason);
    }
}

/// Run one attempt of `job_idx` on slot `w` — a local child when `wire`
/// is `None`, a lease over it otherwise — from the resume decision to
/// its settle. Returns whether the wire is still usable.
fn run_attempt(shared: &Shared<'_>, w: usize, job_idx: usize, wire: Option<Wire<'_>>) -> bool {
    let job = &shared.spec.jobs[job_idx];
    // Resume from the latest durable snapshot whenever one exists and
    // the job did not ask for --resume itself — including on the first
    // attempt, so a campaign re-run after a supervisor crash picks up
    // where the dead one left off.
    let snapshot = job
        .snapshot_dir
        .as_deref()
        .map(dtsvliw_core::latest_path)
        .filter(|p| p.exists());
    let resumed = snapshot.is_some() && !job.argv.iter().any(|a| a == "--resume");
    let (seq, requeues) = {
        let run = &shared.state.lock().unwrap().runs[job_idx];
        (run.consumed as u64 + run.forgiven, run.requeues)
    };
    shared.log(&format!(
        "supervise: {} job `{}` attempt {}/{}{}",
        shared.slot_names[w],
        job.name,
        seq + 1,
        job.retries + 1,
        if resumed {
            " (resuming from snapshot)"
        } else {
            ""
        }
    ));
    let policy = KillPolicy::for_job(shared.spec, job, requeues);
    let remote = wire.is_some();
    let attempt: Result<Box<dyn Transport + '_>, End> = match wire {
        None => {
            start_local(shared, job_idx, snapshot.filter(|_| resumed)).map(|s| Box::new(s) as _)
        }
        Some(wire) => Lease::start(shared, w, job_idx, wire, snapshot).map(|l| Box::new(l) as _),
    };
    let (end, spawn_time) = match attempt {
        Err(end) => (end, Instant::now()),
        Ok(mut attempt) => {
            shared.state.lock().unwrap().workers[w] = WorkerView {
                job: Some(job.name.clone()),
                progress: None,
                remote,
            };
            (watch(shared, w, &policy, &mut *attempt), attempt.started())
        }
    };

    let resumed = end.resumed.unwrap_or(resumed);
    finish_attempt(shared, w, job_idx, &end, resumed, spawn_time);
    end.alive
}

/// Watch a started attempt until it ends: credit heartbeat progress
/// to the stall clock and the status board, and kill it when `policy`
/// says so.
fn watch(shared: &Shared<'_>, w: usize, policy: &KillPolicy, attempt: &mut dyn Transport) -> End {
    let started = attempt.started();
    let mut last_progress = None;
    let mut last_change = Instant::now();
    let mut killed = false;
    loop {
        let progress = match attempt.next(shared, w) {
            ControlFlow::Continue(p) => p,
            ControlFlow::Break(end) => break end,
        };
        if progress != last_progress {
            last_progress = progress;
            last_change = Instant::now();
            shared.state.lock().unwrap().workers[w].progress = progress;
        }
        if !killed {
            if let Some(reason) = policy.decide(started.elapsed(), last_change.elapsed()) {
                killed = true;
                attempt.kill(shared, w, reason);
            }
        }
    }
}

/// Spawn the attempt's child on this host, resuming from `resume_from`
/// when set, and register it as a chaos target.
fn start_local(
    shared: &Shared<'_>,
    job_idx: usize,
    resume_from: Option<PathBuf>,
) -> Result<Babysitter, End> {
    let job = &shared.spec.jobs[job_idx];
    let mute = shared.opts.quiet || shared.opts.workers > 1;
    let hb = job.heartbeat.clone();
    let sitter = Babysitter::spawn(&job.argv, None, resume_from.as_deref(), mute, hb, |line| {
        shared.log(&format!("supervise: {line}"))
    })
    .map_err(|outcome| End::bare(outcome, true))?;
    let mut st = shared.state.lock().unwrap();
    st.running.push(RunningChild {
        pid: sitter.pid(),
        job: job_idx,
    });
    Ok(sitter)
}

/// Credit-classify-and-schedule: everything that happens under the
/// state lock once an attempt has ended.
fn finish_attempt(
    shared: &Shared<'_>,
    w: usize,
    job_idx: usize,
    end: &End,
    resumed: bool,
    spawn_time: Instant,
) {
    let job = &shared.spec.jobs[job_idx];
    let outcome = end.outcome;
    let now_ms = shared.now_ms();
    let wall_ms = spawn_time.elapsed().as_millis() as u64;
    let t_spawn = spawn_time.duration_since(shared.started).as_millis() as u64;
    let span_id = shared.next_span_id();
    let track = shared.slot_names[w].clone();
    // Begin/end pair for this attempt, emitted together once its fate
    // is known (the merge pairs by id, not by emission order). `n` is
    // the consumed-retry index — byte-stable across chaos because
    // forgiveness keeps it so — and is what the canonical projection
    // and `dtsvliw_explain` key attempt chains on. The end carries the
    // settled attempt whole: every attempt figure the campaign
    // documents and `/metrics` print is read back from it.
    let mut settled = vec![
        ("job".to_string(), Json::U64(job.id)),
        (
            "outcome".to_string(),
            Json::Str(outcome.label().to_string()),
        ),
        ("resumed".to_string(), Json::Bool(resumed)),
        ("wall_ms".to_string(), Json::U64(wall_ms)),
        ("tail_truncated".to_string(), Json::U64(end.truncated)),
    ];
    if let Some(detail) = outcome.detail() {
        settled.push(("detail".to_string(), Json::I64(detail)));
    }
    let attempt_span =
        |shared: &Shared<'_>, n: Option<u32>, forgiven: bool, mut end_args: Vec<_>| {
            let mut args = vec![
                ("job".to_string(), Json::U64(job.id)),
                ("name".to_string(), Json::Str(job.name.clone())),
            ];
            end_args.push(("forgiven".to_string(), Json::Bool(forgiven)));
            if let Some(n) = n {
                args.push(("n".to_string(), Json::U64(n as u64)));
                end_args.push(("n".to_string(), Json::U64(n as u64)));
            }
            shared.span_at(
                t_spawn,
                SpanKind::JobAttempt,
                SpanPhase::Begin,
                span_id,
                &track,
                args,
            );
            shared.span_at(
                now_ms.max(t_spawn),
                SpanKind::JobAttempt,
                SpanPhase::End,
                span_id,
                &track,
                end_args,
            );
        };
    let mut st = shared.state.lock().unwrap();
    let st = &mut *st;

    // Credit the attempt's heartbeat as it deregisters, so the
    // aggregate throughput survives job completion.
    if let (Outcome::Success, Some(p)) = (outcome, end.progress) {
        st.finished_instructions += p.instructions;
    }
    st.running.retain(|r| r.job != job_idx);
    st.workers[w] = WorkerView::default();
    let run = &mut st.runs[job_idx];
    let (chaos_killed, chaos_frozen, chaos_net) =
        (run.chaos_killed, run.chaos_frozen, run.chaos_net);
    run.chaos_killed = false;
    run.chaos_frozen = false;
    run.chaos_net = false;

    if outcome.is_requeue() {
        // Not a failure, not recorded in the attempts log (requeues are
        // wall-clock shaped); immediately claimable by any worker. The
        // attempt span likewise carries no consumed-retry index.
        run.requeues += 1;
        attempt_span(shared, None, false, settled);
        st.sched.requeue(job_idx, w, now_ms);
        quota_headroom_sample(shared, st);
        shared.log(&format!(
            "supervise: w{w} job `{}` past soft deadline: checkpointed and requeued",
            job.name
        ));
        return;
    }

    if outcome == Outcome::Success {
        let n = run.consumed;
        run.done = Some(true);
        st.done += 1;
        st.sched.finish(job_idx);
        let bursts = end.progress.map_or(0, |p| p.bursts);
        settled.push(("bursts".to_string(), Json::U64(bursts)));
        attempt_span(shared, Some(n), false, settled);
        quota_headroom_sample(shared, st);
        return;
    }

    // A corrupt snapshot must not poison every further retry — and must
    // not poison *sibling* jobs either, so it is quarantined (renamed,
    // never deleted) inside this job's own snapshot directory.
    if outcome == Outcome::CorruptSnapshot {
        if let Some(dir) = &job.snapshot_dir {
            let tag = job.id * 1000 + run.consumed as u64 + run.forgiven;
            match dtsvliw_core::quarantine_latest(dir, tag) {
                Ok(Some(dest)) => {
                    shared.log(&format!(
                        "supervise: w{w} job `{}`: corrupt snapshot quarantined to {}, retrying fresh",
                        job.name,
                        dest.display()
                    ));
                    // A long storm must not let forensic copies pile up
                    // without bound: keep the newest few, ledger the rest.
                    let evicted = match dtsvliw_core::prune_quarantine(dir, QUARANTINE_KEEP) {
                        Ok(evicted) => evicted,
                        Err(e) => {
                            shared.log(&format!(
                                "supervise: w{w} job `{}`: quarantine prune failed: {e}",
                                job.name
                            ));
                            0
                        }
                    };
                    shared.span(
                        SpanKind::Quarantine,
                        SpanPhase::Instant,
                        0,
                        &track,
                        vec![
                            ("job".to_string(), Json::U64(job.id)),
                            ("evicted".to_string(), Json::U64(evicted)),
                        ],
                    );
                }
                Ok(None) => {}
                Err(e) => shared.log(&format!(
                    "supervise: w{w} job `{}`: quarantine failed: {e}",
                    job.name
                )),
            }
        }
    }

    // A lost connection is never the job's fault, chaos or not — a real
    // worker crash must degrade into a clean local retry, exactly like
    // a corrupt snapshot degrades into a fresh start.
    let forgivable = outcome == Outcome::CorruptSnapshot
        || outcome == Outcome::Lost
        || chaos_caused(outcome, chaos_killed, chaos_frozen, chaos_net);
    let forgiven = forgivable && run.forgiven < FORGIVENESS_CAP;
    // The backoff schedule is keyed by *consumed* retries, not raw
    // attempt count: forgiveness means the failure did not happen, so
    // a chaos storm must not escalate a job toward the backoff cap
    // (and in undisturbed runs the two counts coincide anyway).
    let attempt_key = run.consumed;
    if forgiven {
        run.forgiven += 1;
    } else {
        run.consumed += 1;
    }
    let terminal = !forgiven && run.consumed > job.retries;
    if terminal {
        run.done = Some(false);
        st.done += 1;
        st.failed += 1;
        st.sched.finish(job_idx);
        settled.push(("job_failed".to_string(), Json::Bool(true)));
        attempt_span(shared, Some(attempt_key), forgiven, settled);
        shared.log(&format!(
            "supervise: w{w} job `{}` failed ({})",
            job.name,
            outcome.label()
        ));
    } else {
        let delay = backoff::delay_ms(
            shared.spec.seed,
            job.id,
            attempt_key,
            shared.spec.backoff_ms,
        );
        settled.push(("backoff_ms".to_string(), Json::U64(delay)));
        attempt_span(shared, Some(attempt_key), forgiven, settled);
        st.sched.requeue(job_idx, w, now_ms + delay);
    }
    quota_headroom_sample(shared, st);
}

// ---------------------------------------------------------------------
// Remote slots (the distributed tier, DESIGN.md §14)
// ---------------------------------------------------------------------

/// Record an endpoint's reachability; when the last one goes dark with
/// jobs still outstanding, latch the degradation flag — the campaign is
/// draining on local slots alone and the wall-clock ledger must say so.
fn mark_endpoint(shared: &Shared<'_>, ep_idx: usize, up: bool) {
    let mut st = shared.state.lock().unwrap();
    st.endpoint_up[ep_idx] = up;
    if !up && st.sched.outstanding() > 0 && st.endpoint_up.iter().all(|&u| !u) && !st.degraded {
        st.degraded = true;
        drop(st);
        shared.log("supervise: every remote endpoint unreachable — degrading to local slots");
    }
}

/// One remote slot: connect (with seeded backoff on failure), then
/// claim-and-lease until the campaign drains or the wire dies.
fn remote_slot_loop(shared: &Shared<'_>, w: usize, ep_idx: usize, endpoint: &str, sub: usize) {
    let mut net = shared
        .opts
        .chaos_seed
        .map(|seed| NetChaos::new(seed, endpoint, sub));
    let mut failures: u32 = 0;
    'outer: loop {
        if shared.state.lock().unwrap().sched.outstanding() == 0 {
            break;
        }
        let mut conn = match coordinator_connect(endpoint, shared.spec.seed, CONNECT_DEADLINE) {
            Ok((conn, _slots)) => {
                mark_endpoint(shared, ep_idx, true);
                failures = 0;
                conn
            }
            Err(why) => {
                if failures == 0 {
                    shared.log(&format!("supervise: r{w} {why}"));
                }
                failures = failures.saturating_add(1);
                shared.span(
                    SpanKind::Reconnect,
                    SpanPhase::Instant,
                    0,
                    &shared.slot_names[w],
                    vec![
                        ("endpoint".to_string(), Json::Str(endpoint.to_string())),
                        ("failures".to_string(), Json::U64(failures as u64)),
                    ],
                );
                mark_endpoint(shared, ep_idx, false);
                // Reconnect backoff: the same pure seeded-jitter shape
                // retries use, keyed by the endpoint and slot so slots
                // do not thundering-herd one recovering worker.
                let key = fnv1a(endpoint.as_bytes()) ^ (sub as u64).wrapping_mul(0x9e37);
                let delay = backoff::delay_ms(shared.spec.seed, key, failures.min(10), 100);
                let t = Instant::now();
                while (t.elapsed().as_millis() as u64) < delay {
                    if shared.state.lock().unwrap().sched.outstanding() == 0 {
                        break 'outer;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                continue;
            }
        };
        loop {
            let Some(job_idx) = claim_job(shared, w) else {
                let _ = conn.send(&proto::bye(), WRITE_DEADLINE);
                conn.shutdown();
                break 'outer;
            };
            let wire = Wire {
                conn: &mut conn,
                net: net.as_mut(),
            };
            let alive = run_attempt(shared, w, job_idx, Some(wire));
            shared.cv.notify_all();
            if !alive {
                conn.shutdown();
                break;
            }
        }
    }
}

/// A leased attempt's transport: one lease epoch on a worker
/// connection.
struct Lease<'c> {
    wire: Wire<'c>,
    job_idx: usize,
    epoch: u64,
    /// Id of the lease's begin/end span pair.
    span: u64,
    /// Just before the lease was sent.
    started: Instant,
    /// Clock-normalisation anchor: the worker stamps its spans in
    /// milliseconds since it received this lease, and the merge rebases
    /// them as `t_grant + t_worker` (DESIGN.md §15).
    t_grant: u64,
    span_ids: HashMap<u64, u64>,
    last_frame: Instant,
    last_draw: Instant,
    /// The kill decided against the lease, and when to stop waiting
    /// for the worker to acknowledge it.
    revoked: Option<(KillReason, Instant)>,
    half_open_until: Option<Instant>,
    dup_next_result: bool,
    /// The job's local heartbeat file was recreated for this attempt.
    hb_reset: bool,
    /// The freshest progress relayed so far.
    progress: Option<Progress>,
}

impl<'c> Lease<'c> {
    /// Lease `job_idx` to the connected worker under a fresh epoch,
    /// shipping `snapshot` inline so the attempt resumes from it.
    fn start(
        shared: &Shared<'_>,
        w: usize,
        job_idx: usize,
        wire: Wire<'c>,
        snapshot: Option<PathBuf>,
    ) -> Result<Self, End> {
        let job = &shared.spec.jobs[job_idx];
        let snap_text = snapshot.and_then(|p| std::fs::read_to_string(p).ok());
        let epoch = shared.state.lock().unwrap().leases.issue(job_idx);
        let span = shared.next_span_id();
        shared.span(
            SpanKind::Lease,
            SpanPhase::Begin,
            span,
            &shared.slot_names[w],
            vec![
                ("job".to_string(), Json::U64(job.id)),
                ("name".to_string(), Json::Str(job.name.clone())),
                ("epoch".to_string(), Json::U64(epoch)),
                ("endpoint".to_string(), Json::Str(wire.conn.peer())),
            ],
        );
        let frame = proto::lease(
            job_idx as u64,
            epoch,
            &job.name,
            &job.argv,
            job.timeout_ms,
            job.heartbeat.as_deref().and_then(Path::to_str),
            job.snapshot_dir.as_deref().and_then(Path::to_str),
            job.result.as_deref().and_then(Path::to_str),
            snap_text.as_deref(),
        );
        let started = Instant::now();
        let mut lease = Lease {
            wire,
            job_idx,
            epoch,
            span,
            started,
            t_grant: shared.now_ms(),
            span_ids: HashMap::new(),
            last_frame: started,
            last_draw: started,
            revoked: None,
            half_open_until: None,
            dup_next_result: false,
            hb_reset: false,
            progress: None,
        };
        if lease.wire.conn.send(&frame, WRITE_DEADLINE).is_err() {
            return Err(lease.lost(shared, w));
        }
        if let Some(text) = &snap_text {
            shared.span(
                SpanKind::SnapshotShip,
                SpanPhase::Instant,
                0,
                &shared.slot_names[w],
                vec![
                    ("job".to_string(), Json::U64(job.id)),
                    ("epoch".to_string(), Json::U64(epoch)),
                    ("direction".to_string(), Json::Str("outbound".to_string())),
                    ("bytes".to_string(), Json::U64(text.len() as u64)),
                ],
            );
        }
        Ok(lease)
    }

    /// Absorb the worker-relayed span records riding on an `hb` or
    /// `result` frame: worker-local times (milliseconds since the worker
    /// received the lease) are rebased onto the lease-grant anchor,
    /// worker-local span ids are remapped into the coordinator's id
    /// space, and the track becomes this slot's worker-side track.
    fn absorb_spans(&mut self, shared: &Shared<'_>, w: usize, frame: &Json) {
        let Some(spans) = frame.get("spans").and_then(Json::as_arr) else {
            return;
        };
        let track = format!("{}/worker", shared.slot_names[w]);
        for rec in spans {
            let Some(mut ev) = SpanEvent::from_json(rec) else {
                continue;
            };
            ev.t_ms = self.t_grant.saturating_add(ev.t_ms);
            if ev.id != 0 {
                ev.id = *self
                    .span_ids
                    .entry(ev.id)
                    .or_insert_with(|| shared.next_span_id());
            }
            shared.span_at(ev.t_ms, ev.kind, ev.phase, ev.id, &track, ev.args);
        }
    }

    /// Settle a `result` frame through the lease table. `None` when it
    /// was fenced or a duplicate: it belongs to no live attempt, and
    /// this one keeps pumping. Each rejection is recorded as a fence
    /// span.
    fn settle(&mut self, shared: &Shared<'_>, w: usize, frame: &Json) -> Option<End> {
        let job = &shared.spec.jobs[self.job_idx];
        let result_epoch = frame
            .get("epoch")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        let settles = if self.dup_next_result { 2 } else { 1 };
        let mut accepted = false;
        for _ in 0..settles {
            let verdict = shared
                .state
                .lock()
                .unwrap()
                .leases
                .settle(self.job_idx, result_epoch);
            let what = match verdict {
                Settle::Ok => {
                    accepted = true;
                    continue;
                }
                Settle::Fenced => "late",
                Settle::Duplicate => "duplicate",
            };
            shared.span(
                SpanKind::Fence,
                SpanPhase::Instant,
                0,
                &shared.slot_names[w],
                vec![
                    ("job".to_string(), Json::U64(job.id)),
                    ("epoch".to_string(), Json::U64(result_epoch)),
                    ("reason".to_string(), Json::Str(what.to_string())),
                ],
            );
            shared.log(&format!(
                "supervise: r{w} job `{}`: rejected a {what} result for epoch {result_epoch} (current {})",
                job.name, self.epoch
            ));
        }
        accepted.then(|| End {
            progress: self.progress,
            truncated: frame
                .get("tail_truncated")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            resumed: frame.get("resumed").and_then(Json::as_bool),
            ..End::bare(accept_result(shared, job, frame), true)
        })
    }

    /// Network strikes against this very connection (seeded per slot,
    /// so the storm is reproducible).
    fn strike(&mut self, shared: &Shared<'_>, w: usize) {
        let Some(nc) = self.wire.net.as_deref_mut() else {
            return;
        };
        if self.last_draw.elapsed() < Duration::from_millis(50) {
            return;
        }
        self.last_draw = Instant::now();
        let Some(strike) = nc.draw(6) else {
            return;
        };
        shared.state.lock().unwrap().runs[self.job_idx].chaos_net = true;
        let strike_label = match strike {
            NetStrike::Reset => "net-reset",
            NetStrike::HalfOpen(_) => "net-half-open",
            NetStrike::Truncate => "net-truncate",
            NetStrike::DupResult => "net-dup-result",
        };
        shared.span(
            SpanKind::ChaosStrike,
            SpanPhase::Instant,
            0,
            &shared.slot_names[w],
            vec![
                ("action".to_string(), Json::Str(strike_label.to_string())),
                (
                    "job".to_string(),
                    Json::U64(shared.spec.jobs[self.job_idx].id),
                ),
            ],
        );
        match strike {
            NetStrike::Reset => self.wire.conn.shutdown(),
            NetStrike::HalfOpen(ms) => {
                self.half_open_until = Some(Instant::now() + Duration::from_millis(ms));
            }
            NetStrike::Truncate => {
                let _ = self.wire.conn.send_truncated(&proto::bye());
            }
            NetStrike::DupResult => self.dup_next_result = true,
        }
    }

    /// The wire died or was written off. The attempt settles as the
    /// kill already decided against it, or else as lost — a loss is
    /// never the job's fault — with its epoch fenced.
    fn lost(&mut self, shared: &Shared<'_>, w: usize) -> End {
        let outcome = match self.revoked {
            Some((reason, _)) => reason.outcome(),
            None => {
                shared.state.lock().unwrap().leases.revoke(self.job_idx);
                shared.log(&format!(
                    "supervise: r{w} job `{}`: connection lost, retrying elsewhere",
                    shared.spec.jobs[self.job_idx].name
                ));
                Outcome::Lost
            }
        };
        self.close(shared, w, End::bare(outcome, false))
    }

    /// Close the lease's span on the way to its settle.
    fn close(&self, shared: &Shared<'_>, w: usize, end: End) -> End {
        shared.span(
            SpanKind::Lease,
            SpanPhase::End,
            self.span,
            &shared.slot_names[w],
            vec![("conn_alive".to_string(), Json::Bool(end.alive))],
        );
        end
    }
}

impl Transport for Lease<'_> {
    fn started(&self) -> Instant {
        self.started
    }

    /// Pump the connection once (a 10 ms receive): relayed heartbeat
    /// progress while the lease runs, its ending once a result or
    /// revoke acknowledgement settles it or the wire is given up.
    fn next(&mut self, shared: &Shared<'_>, w: usize) -> ControlFlow<End, Option<Progress>> {
        self.strike(shared, w);
        let job = &shared.spec.jobs[self.job_idx];
        let wire_job = self.job_idx as u64;
        match self.wire.conn.recv(Duration::from_millis(10)) {
            Err(_) => return ControlFlow::Break(self.lost(shared, w)),
            Ok(None) => {}
            // Half-open: bytes arrive but nothing is processed — and
            // nothing refreshes the liveness clock, so a long enough
            // episode trips the silence detector.
            Ok(Some(_)) if self.half_open_until.is_some_and(|t| Instant::now() < t) => {}
            Ok(Some(frame)) => {
                self.last_frame = Instant::now();
                let ours = proto::job_epoch(&frame) == Some((wire_job, self.epoch));
                match proto::kind(&frame) {
                    Some("hb") if ours => {
                        self.absorb_spans(shared, w, &frame);
                        let relayed = relay_heartbeat(job, &frame, &mut self.hb_reset);
                        self.progress = relayed.or(self.progress);
                    }
                    Some("snap") if ours => accept_snapshot(shared, w, job, &frame),
                    Some("revoked") if ours => {
                        if let Some((reason, _)) = self.revoked {
                            return ControlFlow::Break(self.close(
                                shared,
                                w,
                                End::bare(reason.outcome(), true),
                            ));
                        }
                    }
                    Some("result") if frame.get("job").and_then(Json::as_u64) == Some(wire_job) => {
                        self.absorb_spans(shared, w, &frame);
                        if let Some(end) = self.settle(shared, w, &frame) {
                            return ControlFlow::Break(self.close(shared, w, end));
                        }
                    }
                    _ => {}
                }
            }
        }
        // A revoke the worker never acknowledged writes the connection
        // off; the epoch is fenced regardless.
        let unacknowledged = self
            .revoked
            .is_some_and(|(_, grace)| Instant::now() >= grace);
        if unacknowledged || self.last_frame.elapsed() >= Duration::from_millis(REMOTE_SILENCE_MS) {
            return ControlFlow::Break(self.lost(shared, w));
        }
        ControlFlow::Continue(self.progress)
    }

    /// Revoke the lease for `reason`. Fence first, then tell the
    /// worker: a result racing the revoke frame loses either way. A
    /// revoke that cannot be written drops the wire, so the next pump
    /// finds it dead and settles the attempt as this kill.
    fn kill(&mut self, shared: &Shared<'_>, _: usize, reason: KillReason) {
        shared.state.lock().unwrap().leases.revoke(self.job_idx);
        self.revoked = Some((
            reason,
            Instant::now() + Duration::from_millis(REVOKE_GRACE_MS),
        ));
        let frame = proto::revoke(self.job_idx as u64, self.epoch);
        if self.wire.conn.send(&frame, WRITE_DEADLINE).is_err() {
            self.wire.conn.shutdown();
        }
    }
}

/// Append a relayed `hb` frame's records to the job's local heartbeat
/// file (recreated on the attempt's first batch, so the tail-reset
/// semantics match a local retry) and return the freshest progress.
fn relay_heartbeat(job: &JobSpec, frame: &Json, hb_reset: &mut bool) -> Option<Progress> {
    let records = frame.get("records").and_then(Json::as_arr)?;
    if records.is_empty() {
        return None; // keepalive
    }
    if let Some(path) = &job.heartbeat {
        use std::io::Write;
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let file = if *hb_reset {
            std::fs::OpenOptions::new().append(true).open(path).ok()
        } else {
            *hb_reset = true;
            std::fs::File::create(path).ok()
        };
        if let Some(mut f) = file {
            for rec in records {
                let _ = writeln!(f, "{rec}");
            }
        }
    }
    records.iter().rev().find_map(progress_of)
}

/// Verify and land a shipped snapshot as the job's local `latest.json`
/// (temp-then-rename, like the snapshot layer's own writes), so the
/// next lease — on any host — resumes from it.
fn accept_snapshot(shared: &Shared<'_>, w: usize, job: &JobSpec, frame: &Json) {
    let Some(dir) = &job.snapshot_dir else { return };
    let Some(text) = proto::verified_data(frame) else {
        shared.log(&format!(
            "supervise: job `{}`: shipped snapshot failed its checksum, dropped",
            job.name
        ));
        return;
    };
    shared.span(
        SpanKind::SnapshotShip,
        SpanPhase::Instant,
        0,
        &shared.slot_names[w],
        vec![
            ("job".to_string(), Json::U64(job.id)),
            ("direction".to_string(), Json::Str("inbound".to_string())),
            ("bytes".to_string(), Json::U64(text.len() as u64)),
        ],
    );
    let path = dtsvliw_core::latest_path(dir);
    let _ = std::fs::create_dir_all(dir);
    let tmp = path.with_extension("ship-tmp");
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

/// Land an accepted result frame: materialise the declared result file
/// locally (the merge stage digests local files only) and map the wire
/// outcome back into the local vocabulary.
fn accept_result(shared: &Shared<'_>, job: &JobSpec, frame: &Json) -> Outcome {
    let label = frame.get("outcome").and_then(Json::as_str).unwrap_or("");
    let detail = frame.get("detail").and_then(Json::as_i64);
    let Some(outcome) = Outcome::from_label(label, detail) else {
        shared.log(&format!(
            "supervise: job `{}`: unknown remote outcome `{label}`, treating as lost",
            job.name
        ));
        return Outcome::Lost;
    };
    if let (Some(path), Outcome::Success) = (&job.result, outcome) {
        match frame.get("result").and_then(Json::as_str) {
            Some(text) => {
                if let Some(parent) = path.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                let _ = std::fs::write(path, text);
            }
            // The remote declared the file missing: a stale local copy
            // from an earlier attempt must not mask that.
            None => {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    outcome
}

// ---------------------------------------------------------------------
// Chaos and status threads
// ---------------------------------------------------------------------

fn chaos_loop(shared: &Shared<'_>, seed: u64) {
    let mut engine = ChaosEngine::new(seed);
    let mut frozen: Vec<(u32, Instant)> = Vec::new();
    while !shared.over.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
        let now = Instant::now();
        frozen.retain(|(pid, until)| {
            if now >= *until {
                send_signal(*pid, "CONT");
                false
            } else {
                true
            }
        });
        let Some(action) = engine.draw(6) else {
            continue;
        };
        // A strike that finds no eligible victim, or nothing to damage,
        // is not a strike: only executed actions land on the chaos
        // track, which the ledger and `/metrics` count.
        let mut struck: Option<(&'static str, u64)> = None;
        let mut st = shared.state.lock().unwrap();
        match action {
            ChaosAction::Kill => {
                if !st.running.is_empty() {
                    let victim = engine.pick(st.running.len());
                    let (pid, job) = (st.running[victim].pid, st.running[victim].job);
                    send_signal(pid, "KILL");
                    st.runs[job].chaos_killed = true;
                    struck = Some(("kill", shared.spec.jobs[job].id));
                }
            }
            ChaosAction::Freeze(ms) => {
                let candidates: Vec<usize> = (0..st.running.len())
                    .filter(|&i| !frozen.iter().any(|(p, _)| *p == st.running[i].pid))
                    .collect();
                if !candidates.is_empty() {
                    let i = candidates[engine.pick(candidates.len())];
                    let (pid, job) = (st.running[i].pid, st.running[i].job);
                    if send_signal(pid, "STOP") {
                        frozen.push((pid, now + Duration::from_millis(ms)));
                        st.runs[job].chaos_frozen = true;
                        struck = Some(("freeze", shared.spec.jobs[job].id));
                    }
                }
            }
            ChaosAction::CorruptSnapshot => {
                let candidates: Vec<usize> = (0..shared.spec.jobs.len())
                    .filter(|&j| st.runs[j].done.is_none())
                    .filter(|&j| shared.spec.jobs[j].snapshot_dir.is_some())
                    .collect();
                if !candidates.is_empty() {
                    let j = candidates[engine.pick(candidates.len())];
                    let dir = shared.spec.jobs[j].snapshot_dir.as_deref().unwrap();
                    if engine.corrupt_file(&dtsvliw_core::latest_path(dir)) {
                        struck = Some(("corrupt-snapshot", shared.spec.jobs[j].id));
                    }
                }
            }
            ChaosAction::TearHeartbeat => {
                let candidates: Vec<usize> = st
                    .running
                    .iter()
                    .map(|r| r.job)
                    .filter(|&j| shared.spec.jobs[j].heartbeat.is_some())
                    .collect();
                if !candidates.is_empty() {
                    let j = candidates[engine.pick(candidates.len())];
                    if engine.tear_heartbeat(shared.spec.jobs[j].heartbeat.as_deref().unwrap()) {
                        struck = Some(("tear-heartbeat", shared.spec.jobs[j].id));
                    }
                }
            }
        }
        drop(st);
        if let Some((action, job_id)) = struck {
            shared.span(
                SpanKind::ChaosStrike,
                SpanPhase::Instant,
                0,
                "chaos",
                vec![
                    ("action".to_string(), Json::Str(action.to_string())),
                    ("job".to_string(), Json::U64(job_id)),
                ],
            );
        }
    }
    for (pid, _) in frozen {
        send_signal(pid, "CONT");
    }
}

fn status_loop(shared: &Shared<'_>) {
    while !shared.over.load(Ordering::Relaxed) {
        // Never hold the sink lock while taking the state lock: workers
        // log (state -> sink), so nesting sink -> state would invert the
        // order and risk deadlock.
        if shared.sink.lock().unwrap().due() {
            let snapshot = {
                let st = shared.state.lock().unwrap();
                shared.board(&st)
            };
            shared.sink.lock().unwrap().refresh(&snapshot);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    shared.sink.lock().unwrap().clear();
}

// ---------------------------------------------------------------------
// Entry point and the deterministic merge
// ---------------------------------------------------------------------

/// Probe every `--workers` endpoint once for its advertised slot count
/// (capped at [`MAX_SLOTS_PER_ENDPOINT`]). An unreachable endpoint
/// still contributes one retrying slot — it may come back mid-campaign
/// — so the slot plan is stable whatever the network does. Returns
/// `(ep_idx, endpoint, sub)` per remote slot.
fn plan_remote_slots(
    remotes: &[String],
    campaign_seed: u64,
    quiet: bool,
) -> Vec<(usize, String, usize)> {
    let mut plan = Vec::new();
    for (ep_idx, endpoint) in remotes.iter().enumerate() {
        let slots = match coordinator_connect(endpoint, campaign_seed, CONNECT_DEADLINE) {
            Ok((mut conn, slots)) => {
                let _ = conn.send(&proto::bye(), WRITE_DEADLINE);
                conn.shutdown();
                let capped = (slots as usize).min(MAX_SLOTS_PER_ENDPOINT);
                if !quiet {
                    eprintln!("supervise: worker {endpoint}: {capped} slot(s)");
                }
                capped
            }
            Err(why) => {
                if !quiet {
                    eprintln!("supervise: {why} — keeping 1 retrying slot");
                }
                1
            }
        };
        for sub in 0..slots.max(1) {
            plan.push((ep_idx, endpoint.clone(), sub));
        }
    }
    plan
}

/// Run the whole campaign: fan the jobs across `opts.workers` local
/// slots plus any `--workers` remote slots, optionally under chaos, and
/// merge the results deterministically.
pub fn run_campaign(spec: &CampaignSpec, opts: &EngineOptions) -> CampaignResult {
    let workers = opts.workers.max(1);
    let remote_plan = plan_remote_slots(&opts.remotes, spec.seed, opts.quiet);
    let total_slots = workers + remote_plan.len();
    let spawn_window = opts.spawn_window.unwrap_or(total_slots).max(1);
    let tenants: Vec<Option<&str>> = spec.jobs.iter().map(|j| j.tenant.as_deref()).collect();
    // One span track per slot: local slots are `w<i>`, remote slots name
    // their endpoint so a merged trace reads across hosts.
    let slot_names: Vec<String> = (0..workers)
        .map(|w| format!("w{w}"))
        .chain(
            remote_plan
                .iter()
                .enumerate()
                .map(|(i, (_, endpoint, sub))| format!("r{}:{endpoint}#{sub}", workers + i)),
        )
        .collect();
    let shared = Shared {
        spec,
        opts,
        state: Mutex::new(EngineState {
            sched: Scheduler::new(&tenants, &spec.quotas, total_slots, spawn_window),
            runs: spec.jobs.iter().map(|_| JobRun::default()).collect(),
            running: Vec::new(),
            workers: vec![WorkerView::default(); total_slots],
            done: 0,
            failed: 0,
            finished_instructions: 0,
            leases: LeaseTable::new(spec.jobs.len()),
            endpoint_up: vec![true; opts.remotes.len()],
            degraded: false,
        }),
        cv: Condvar::new(),
        sink: Mutex::new(StatusSink::new(!opts.quiet, opts.status_width)),
        over: AtomicBool::new(false),
        started: Instant::now(),
        spans: Arc::new(Mutex::new(SpanLog::new())),
        span_seq: AtomicU64::new(0),
        slot_names,
    };
    let campaign_span = shared.next_span_id();
    shared.span(
        SpanKind::Campaign,
        SpanPhase::Begin,
        campaign_span,
        "campaign",
        vec![
            ("jobs".to_string(), Json::U64(spec.jobs.len() as u64)),
            ("workers".to_string(), Json::U64(total_slots as u64)),
            ("seed".to_string(), Json::U64(spec.seed)),
        ],
    );

    // The /metrics endpoint outlives the scoped worker threads (its
    // thread is 'static), so it folds the span log through its own Arc
    // on each scrape and is stopped and joined before the result merge.
    let metrics_stop = Arc::new(AtomicBool::new(false));
    let metrics_server = opts.metrics_addr.as_deref().and_then(|addr| {
        let log = Arc::clone(&shared.spans);
        let page: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(move || {
            let events = log.lock().unwrap().events().to_vec();
            campaign_page(&explain::view_of(&events), events.len())
        });
        match spawn_metrics_server(addr, page, Arc::clone(&metrics_stop)) {
            Ok((bound, handle)) => {
                if !opts.quiet {
                    eprintln!("supervise: metrics on http://{bound}/metrics");
                }
                Some(handle)
            }
            Err(e) => {
                eprintln!("supervise: cannot bind metrics endpoint {addr}: {e}");
                None
            }
        }
    });

    let shared_ref = &shared;
    let remote_plan_ref = &remote_plan;
    std::thread::scope(|scope| {
        let chaos_handle = opts
            .chaos_seed
            .map(|seed| scope.spawn(move || chaos_loop(shared_ref, seed)));
        let status_handle = scope.spawn(move || status_loop(shared_ref));
        let worker_handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || worker_loop(shared_ref, w)))
            .collect();
        let remote_handles: Vec<_> = remote_plan_ref
            .iter()
            .enumerate()
            .map(|(i, (ep_idx, endpoint, sub))| {
                let w = workers + i;
                let (ep_idx, sub) = (*ep_idx, *sub);
                scope.spawn(move || remote_slot_loop(shared_ref, w, ep_idx, endpoint, sub))
            })
            .collect();
        for h in worker_handles {
            h.join().expect("worker thread panicked");
        }
        for h in remote_handles {
            h.join().expect("remote slot thread panicked");
        }
        shared_ref.over.store(true, Ordering::Relaxed);
        status_handle.join().expect("status thread panicked");
        if let Some(h) = chaos_handle {
            h.join().expect("chaos thread panicked");
        }
    });

    {
        let st = shared.state.lock().unwrap();
        shared.span(
            SpanKind::Campaign,
            SpanPhase::End,
            campaign_span,
            "campaign",
            vec![
                (
                    "succeeded".to_string(),
                    Json::U64(st.done as u64 - st.failed as u64),
                ),
                ("failed".to_string(), Json::U64(st.failed as u64)),
            ],
        );
    }
    metrics_stop.store(true, Ordering::Relaxed);
    if let Some(handle) = metrics_server {
        let _ = handle.join();
    }

    // The merge: every figure below is read back out of the span log.
    let spans = std::mem::take(&mut *shared.spans.lock().unwrap()).into_events();
    let view = explain::view_of(&spans);
    let mut by_id: Vec<&JobSpec> = spec.jobs.iter().collect();
    by_id.sort_by_key(|j| j.id);
    let names: Vec<(u64, String)> = by_id.iter().map(|j| (j.id, j.name.clone())).collect();
    let mut jobs = job_results(&view, &names);
    for (result, job) in jobs.iter_mut().zip(by_id) {
        if let (Some(path), true) = (&job.result, result.succeeded) {
            result.result_digest = Some(
                std::fs::read_to_string(path)
                    .ok()
                    .as_deref()
                    .and_then(canonical_result_digest)
                    .unwrap_or_else(|| "missing".to_string()),
            );
        }
    }
    // A strike ledger: the total under `total`, then the strikes per
    // `(key, action)`, counted off the trace.
    let strikes = |total: &str, kinds: [(&str, &str); 4]| {
        let count = |action: &str| view.strikes.iter().filter(|(_, a, _)| a == action).count();
        let counts = kinds.map(|(key, action)| (key, Json::U64(count(action) as u64)));
        let sum = kinds.iter().map(|(_, action)| count(action) as u64).sum();
        Json::obj(std::iter::once((total, Json::U64(sum))).chain(counts))
    };
    let chaos = opts.chaos_seed.map(|_| {
        strikes(
            "actions",
            [
                ("kills", "kill"),
                ("freezes", "freeze"),
                ("snapshot_corruptions", "corrupt-snapshot"),
                ("heartbeat_tears", "tear-heartbeat"),
            ],
        )
    });
    let fences = |reason: &str| view.fences.iter().filter(|(_, r)| r == reason).count() as u64;
    let degraded = shared.state.lock().unwrap().degraded;
    let dist = (!opts.remotes.is_empty()).then(|| {
        Json::obj([
            (
                "endpoints",
                Json::Arr(opts.remotes.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
            ("remote_slots", Json::U64(remote_plan.len() as u64)),
            ("degraded", Json::Bool(degraded)),
            ("fenced_results", Json::U64(fences("late"))),
            ("duplicate_results", Json::U64(fences("duplicate"))),
            (
                "net_chaos",
                match opts.chaos_seed {
                    Some(_) => strikes(
                        "strikes",
                        [
                            ("resets", "net-reset"),
                            ("half_opens", "net-half-open"),
                            ("truncated_frames", "net-truncate"),
                            ("duplicated_results", "net-dup-result"),
                        ],
                    ),
                    None => Json::Null,
                },
            ),
        ])
    });
    let succeeded = jobs.iter().filter(|j| j.succeeded).count() as u64;
    let failed = jobs.len() as u64 - succeeded;
    CampaignResult {
        jobs,
        succeeded,
        failed,
        workers: total_slots,
        wall_ms: shared.started.elapsed().as_millis() as u64,
        chaos,
        dist,
        quarantines_evicted: view.quarantines_evicted,
        spans,
    }
}

/// Every job's merged state, projected from the campaign view: `jobs`
/// names the campaign's jobs as `(id, name)`, in id order. Result
/// digests are left unset; they come from the result files.
pub fn job_results(view: &CampaignView, jobs: &[(u64, String)]) -> Vec<JobResult> {
    jobs.iter()
        .map(|(id, name)| {
            let chain = explain::chain(view, *id);
            // Requeues carry no consumed-retry index and stay out of the
            // attempt history; unclosed attempts parse to no outcome.
            let attempts: Vec<AttemptRecord> = chain
                .iter()
                .filter(|a| a.n.is_some())
                .filter_map(|a| {
                    Some(AttemptRecord {
                        outcome: Outcome::from_label(&a.outcome, a.detail)?,
                        resumed: a.resumed,
                        forgiven: a.forgiven,
                        backoff_ms: a.backoff_ms,
                    })
                })
                .collect();
            JobResult {
                id: *id,
                name: name.clone(),
                succeeded: attempts.iter().any(|a| a.outcome == Outcome::Success),
                result_digest: None,
                consumed_retries: attempts
                    .iter()
                    .filter(|a| !a.forgiven && a.outcome != Outcome::Success)
                    .count() as u32,
                forgiven: attempts.iter().filter(|a| a.forgiven).count() as u64,
                requeues: chain.iter().filter(|a| a.outcome == "requeued").count() as u64,
                wall_ms: chain.iter().map(|a| a.wall_ms).sum(),
                fenced_results: view.fences.iter().filter(|(j, _)| j == id).count() as u64,
                tail_truncated: chain.iter().map(|a| a.tail_truncated).sum(),
                attempts,
            }
        })
        .collect()
}

/// The byte-reproducible campaign report: job identity, final status,
/// and the canonical result digest — nothing wall-clock shaped, nothing
/// order-dependent, nothing chaos can reach.
pub fn report_json(spec: &CampaignSpec, result: &CampaignResult) -> Json {
    let jobs = result
        .jobs
        .iter()
        .map(|j| {
            Json::obj([
                ("id", Json::U64(j.id)),
                ("name", Json::Str(j.name.clone())),
                (
                    "status",
                    Json::Str(if j.succeeded { "succeeded" } else { "failed" }.to_string()),
                ),
                (
                    "result",
                    match &j.result_digest {
                        Some(d) => Json::Str(d.clone()),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    Json::obj([
        ("format", Json::Str("dtsvliw-campaign-report".to_string())),
        ("schema", Json::U64(2)),
        ("seed", Json::U64(spec.seed)),
        ("backoff_ms", Json::U64(spec.backoff_ms)),
        ("jobs", Json::Arr(jobs)),
        ("succeeded", Json::U64(result.succeeded)),
        ("failed", Json::U64(result.failed)),
    ])
}

/// The attempt-history side-channel of the campaign seeded `seed`:
/// outcomes, resume flags, the seeded backoff schedule, forgiveness
/// accounting.
pub fn attempts_json(seed: u64, jobs: &[JobResult]) -> Json {
    let jobs = jobs
        .iter()
        .map(|j| {
            let attempts = j
                .attempts
                .iter()
                .enumerate()
                .map(|(n, a)| {
                    Json::obj([
                        ("attempt", Json::U64(n as u64)),
                        ("outcome", Json::Str(a.outcome.label().to_string())),
                        (
                            "detail",
                            match a.outcome.detail() {
                                Some(d) => Json::I64(d),
                                None => Json::Null,
                            },
                        ),
                        ("resumed", Json::Bool(a.resumed)),
                        ("forgiven", Json::Bool(a.forgiven)),
                        (
                            "backoff_ms",
                            match a.backoff_ms {
                                Some(ms) => Json::U64(ms),
                                None => Json::Null,
                            },
                        ),
                    ])
                })
                .collect();
            Json::obj([
                ("id", Json::U64(j.id)),
                ("name", Json::Str(j.name.clone())),
                (
                    "status",
                    Json::Str(if j.succeeded { "succeeded" } else { "failed" }.to_string()),
                ),
                ("attempts_used", Json::U64(j.attempts.len() as u64)),
                ("consumed_retries", Json::U64(j.consumed_retries as u64)),
                ("forgiven", Json::U64(j.forgiven)),
                ("fenced_results", Json::U64(j.fenced_results)),
                ("attempts", Json::Arr(attempts)),
            ])
        })
        .collect();
    Json::obj([
        ("format", Json::Str("dtsvliw-campaign-attempts".to_string())),
        ("seed", Json::U64(seed)),
        ("jobs", Json::Arr(jobs)),
    ])
}

/// The wall-clock side-channel: durations, requeues, worker count, the
/// chaos ledger. Nondeterministic by design, like `BENCH_wallclock`.
pub fn wallclock_json(result: &CampaignResult) -> Json {
    let jobs = result
        .jobs
        .iter()
        .map(|j| {
            Json::obj([
                ("id", Json::U64(j.id)),
                ("name", Json::Str(j.name.clone())),
                ("wall_ms", Json::U64(j.wall_ms)),
                ("requeues", Json::U64(j.requeues)),
                ("forgiven", Json::U64(j.forgiven)),
                ("tail_truncated", Json::U64(j.tail_truncated)),
            ])
        })
        .collect();
    Json::obj([
        (
            "format",
            Json::Str("dtsvliw-campaign-wallclock".to_string()),
        ),
        ("workers", Json::U64(result.workers as u64)),
        ("wall_ms", Json::U64(result.wall_ms)),
        ("chaos", result.chaos.clone().unwrap_or(Json::Null)),
        ("dist", result.dist.clone().unwrap_or(Json::Null)),
        (
            "quarantine_evictions",
            Json::U64(result.quarantines_evicted),
        ),
        (
            "tail_truncated",
            Json::U64(result.jobs.iter().map(|j| j.tail_truncated).sum()),
        ),
        ("jobs", Json::Arr(jobs)),
    ])
}

/// Merge every job's heartbeat stream into one deterministic JSONL
/// timeline: jobs in id order, records in file order, each line
/// augmented with its job name. Torn trailing records are skipped
/// (heartbeat.rs). Returns the rendered text and the record count.
pub fn merge_timeline(spec: &CampaignSpec) -> (String, u64) {
    let mut by_id: Vec<&super::spec::JobSpec> = spec.jobs.iter().collect();
    by_id.sort_by_key(|j| j.id);
    let mut merged = String::new();
    let mut records = 0u64;
    for job in by_id {
        let Some(hb) = &job.heartbeat else { continue };
        let Ok(text) = std::fs::read_to_string(hb) else {
            continue;
        };
        for rec in complete_records(&text) {
            let Json::Obj(mut pairs) = rec else { continue };
            pairs.insert(0, ("job".to_string(), Json::Str(job.name.clone())));
            merged.push_str(&Json::Obj(pairs).to_string());
            merged.push('\n');
            records += 1;
        }
    }
    (merged, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::spec::parse_campaign;

    fn fake_result(order: &[u64]) -> CampaignResult {
        let jobs = order
            .iter()
            .map(|&id| JobResult {
                id,
                name: format!("job{id}"),
                succeeded: true,
                result_digest: Some(format!("fnv64:{id:016x}")),
                attempts: vec![AttemptRecord {
                    outcome: Outcome::Success,
                    resumed: false,
                    forgiven: false,
                    backoff_ms: None,
                }],
                consumed_retries: 0,
                forgiven: 0,
                requeues: id, // wall-clock shaped: must not reach the report
                wall_ms: 1000 + id,
                fenced_results: 0,
                tail_truncated: 0,
            })
            .collect();
        CampaignResult {
            jobs,
            succeeded: order.len() as u64,
            failed: 0,
            workers: 8,
            wall_ms: 12345,
            chaos: None,
            dist: None,
            quarantines_evicted: 0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn report_is_free_of_wall_clock_and_order_effects() {
        let spec = parse_campaign(
            r#"{ "seed": 3, "jobs": [
                 { "name": "job0", "argv": ["x"], "id": 0 },
                 { "name": "job1", "argv": ["x"], "id": 1 } ] }"#,
        )
        .unwrap();
        let mut a = fake_result(&[0, 1]);
        let mut b = fake_result(&[0, 1]);
        // Different wall clocks, worker counts and requeue histories...
        a.wall_ms = 1;
        b.wall_ms = 999_999;
        a.workers = 1;
        b.workers = 64;
        a.jobs[0].wall_ms = 5;
        b.jobs[0].wall_ms = 50_000;
        a.jobs[1].requeues = 0;
        b.jobs[1].requeues = 7;
        // ...must render byte-identically.
        assert_eq!(
            report_json(&spec, &a).to_string_pretty(),
            report_json(&spec, &b).to_string_pretty()
        );
        let text = report_json(&spec, &a).to_string_pretty();
        assert!(text.contains("\"succeeded\": 2"), "{text}");
        assert!(!text.contains("wall"), "report must carry no wall data");
    }

    #[test]
    fn chaos_caused_matrix() {
        assert!(chaos_caused(Outcome::Signal(9), true, false, false));
        assert!(!chaos_caused(Outcome::Signal(9), false, true, true));
        assert!(chaos_caused(Outcome::Stalled, false, true, false));
        assert!(chaos_caused(Outcome::Timeout, false, true, false));
        assert!(chaos_caused(Outcome::Timeout, true, false, false));
        // A network strike starves the relay: stalls and timeouts it
        // caused are chaos's fault, a clean error never is.
        assert!(chaos_caused(Outcome::Stalled, false, false, true));
        assert!(chaos_caused(Outcome::Timeout, false, false, true));
        assert!(!chaos_caused(Outcome::Error(1), true, true, true));
        assert!(!chaos_caused(Outcome::Watchdog, true, true, true));
        // Corrupt snapshots are forgiven unconditionally, not via marks.
        assert!(!chaos_caused(Outcome::CorruptSnapshot, false, false, false));
        // Lost is forgiven unconditionally too (worker crash or
        // partition is never the job's fault), not via marks.
        assert!(!chaos_caused(Outcome::Lost, false, false, false));
    }

    #[test]
    fn attempts_log_carries_the_schedule_but_the_report_does_not() {
        let spec = parse_campaign(
            r#"{ "seed": 3, "jobs": [ { "name": "job0", "argv": ["x"], "id": 0 } ] }"#,
        )
        .unwrap();
        let mut r = fake_result(&[0]);
        r.jobs[0].attempts.insert(
            0,
            AttemptRecord {
                outcome: Outcome::Timeout,
                resumed: false,
                forgiven: false,
                backoff_ms: Some(150),
            },
        );
        let attempts = attempts_json(spec.seed, &r.jobs).to_string_pretty();
        assert!(attempts.contains("\"outcome\": \"timeout\""), "{attempts}");
        assert!(attempts.contains("\"backoff_ms\": 150"), "{attempts}");
        let report = report_json(&spec, &r).to_string_pretty();
        assert!(!report.contains("timeout"), "{report}");
        assert!(!report.contains("backoff_ms\": 150"), "{report}");
    }
}
