//! Worker threads, the attempt loop, and the deterministic merge.
//!
//! `run_campaign` fans the spec's jobs across worker threads through
//! the [`queue`](super::queue) scheduler. Each slot runs one attempt at
//! a time: `run_attempt` resumes from a durable snapshot whenever one
//! exists and spawns the child under a [`Babysitter`], `watch` judges it
//! by one [`KillPolicy`] (hard timeout, heartbeat stall, soft-deadline
//! checkpoint-and-requeue), and `finish_attempt` settles every ending in
//! one place. Every child is registered as a process-chaos target.
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
//! settled attempt, strike, steal and quarantine lands there
//! as a span; the documents, [`CampaignResult`] and the `/metrics` page
//! are all read back out of it through [`crate::explain`], the reader
//! `dtsvliw_explain` uses on the trace file.

use super::babysit::{Babysitter, KillPolicy};
use super::backoff;
use super::canonical_result_digest;
use super::chaos::{send_signal, ChaosAction, ChaosEngine, FORGIVENESS_CAP};
use super::heartbeat::{complete_records, TailRead};
use super::metrics::{campaign_page, spawn_metrics_server};
use super::outcome::Outcome;
use super::queue::{Claim, Scheduler};
use super::spec::CampaignSpec;
use super::status::{BoardSnapshot, StatusSink, WorkerView};
use crate::explain::{self, CampaignView};
use dtsvliw_json::Json;
use dtsvliw_trace::{SpanEvent, SpanKind, SpanLog, SpanPhase};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Quarantined snapshots kept per job; older ones are evicted and the
/// evictions counted in the wall-clock ledger.
pub const QUARANTINE_KEEP: usize = 8;

/// How the engine is driven (the bin's command line, in parsed form).
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker slots (`--jobs`).
    pub workers: usize,
    /// In-flight spawn window (back-pressure); defaults to every slot.
    pub spawn_window: Option<usize>,
    /// Arm the chaos harness with this seed.
    pub chaos_seed: Option<u64>,
    /// Silence child stdout and per-attempt log lines.
    pub quiet: bool,
    /// Must be empty: campaigns run on this host only, and
    /// [`run_campaign`] asserts it. The field outlived the cross-host
    /// tier because the benchmark package (`perfbench/`) builds
    /// `EngineOptions` by struct literal and changes only together with
    /// the benchmark; it goes when that literal drops it.
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
    /// Quarantined snapshots evicted by the retention cap.
    pub quarantines_evicted: u64,
    /// Every campaign span, stamped in milliseconds since the campaign
    /// started: the ledger everything above was projected from. Feed
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
    /// Track name per slot: `w<i>`.
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
    /// for begin marks anchored at spawn time).
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
/// timeout, depending on which detector fires first).
fn chaos_caused(outcome: Outcome, killed_mark: bool, frozen_mark: bool) -> bool {
    match outcome {
        Outcome::Signal(_) => killed_mark,
        Outcome::Timeout | Outcome::Stalled => killed_mark || frozen_mark,
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
        run_attempt(shared, w, job_idx);
        shared.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// The attempt lifecycle: run_attempt -> watch -> finish_attempt
// ---------------------------------------------------------------------

/// How often a slot looks at its child.
const POLL: Duration = Duration::from_millis(4);

/// Run one attempt of `job_idx` on slot `w`, from the resume decision
/// to its settle.
fn run_attempt(shared: &Shared<'_>, w: usize, job_idx: usize) {
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
    let ((outcome, tail), spawn_time) =
        match start_child(shared, job_idx, snapshot.filter(|_| resumed)) {
            Err(outcome) => ((outcome, TailRead::default()), Instant::now()),
            Ok(mut sitter) => {
                shared.state.lock().unwrap().workers[w] = WorkerView {
                    job: Some(job.name.clone()),
                    progress: None,
                };
                (watch(shared, w, &policy, &mut sitter), sitter.started)
            }
        };
    finish_attempt(shared, w, job_idx, outcome, &tail, resumed, spawn_time);
}

/// Watch a spawned child until it ends: credit heartbeat progress to
/// the stall clock and the status board, and kill it when `policy`
/// says so. Returns how it ended and the heartbeat tail's final flush.
fn watch(
    shared: &Shared<'_>,
    w: usize,
    policy: &KillPolicy,
    sitter: &mut Babysitter,
) -> (Outcome, TailRead) {
    let mut last_progress = None;
    let mut last_change = Instant::now();
    loop {
        std::thread::sleep(POLL);
        let progress = match sitter.poll(|line| shared.log(&format!("supervise: {line}"))) {
            ControlFlow::Continue(read) => read.progress,
            ControlFlow::Break(end) => return end,
        };
        if progress != last_progress {
            last_progress = progress;
            last_change = Instant::now();
            shared.state.lock().unwrap().workers[w].progress = progress;
        }
        if let Some(reason) = policy.decide(sitter.started.elapsed(), last_change.elapsed()) {
            sitter.kill(reason);
        }
    }
}

/// Spawn the attempt's child, resuming from `resume_from` when set, and
/// register it as a chaos target.
fn start_child(
    shared: &Shared<'_>,
    job_idx: usize,
    resume_from: Option<PathBuf>,
) -> Result<Babysitter, Outcome> {
    let job = &shared.spec.jobs[job_idx];
    let mute = shared.opts.quiet || shared.opts.workers > 1;
    let hb = job.heartbeat.clone();
    let sitter = Babysitter::spawn(&job.argv, resume_from.as_deref(), mute, hb, |line| {
        shared.log(&format!("supervise: {line}"))
    })?;
    shared.state.lock().unwrap().running.push(RunningChild {
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
    outcome: Outcome,
    tail: &TailRead,
    resumed: bool,
    spawn_time: Instant,
) {
    let job = &shared.spec.jobs[job_idx];
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
        ("tail_truncated".to_string(), Json::U64(tail.truncated)),
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
    if let (Outcome::Success, Some(p)) = (outcome, tail.progress) {
        st.finished_instructions += p.instructions;
    }
    st.running.retain(|r| r.job != job_idx);
    st.workers[w] = WorkerView::default();
    let run = &mut st.runs[job_idx];
    let (chaos_killed, chaos_frozen) = (run.chaos_killed, run.chaos_frozen);
    run.chaos_killed = false;
    run.chaos_frozen = false;

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
        let bursts = tail.progress.map_or(0, |p| p.bursts);
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

    let forgivable =
        outcome == Outcome::CorruptSnapshot || chaos_caused(outcome, chaos_killed, chaos_frozen);
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

/// Run the whole campaign: fan the jobs across `opts.workers` slots,
/// optionally under chaos, and merge the results deterministically.
pub fn run_campaign(spec: &CampaignSpec, opts: &EngineOptions) -> CampaignResult {
    assert!(
        opts.remotes.is_empty(),
        "EngineOptions.remotes must be empty: the cross-host worker tier was removed, \
         and every campaign runs on local slots"
    );
    let workers = opts.workers.max(1);
    let spawn_window = opts.spawn_window.unwrap_or(workers).max(1);
    let tenants: Vec<Option<&str>> = spec.jobs.iter().map(|j| j.tenant.as_deref()).collect();
    // One span track per slot.
    let slot_names: Vec<String> = (0..workers).map(|w| format!("w{w}")).collect();
    let shared = Shared {
        spec,
        opts,
        state: Mutex::new(EngineState {
            sched: Scheduler::new(&tenants, &spec.quotas, workers, spawn_window),
            runs: spec.jobs.iter().map(|_| JobRun::default()).collect(),
            running: Vec::new(),
            workers: vec![WorkerView::default(); workers],
            done: 0,
            failed: 0,
            finished_instructions: 0,
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
            ("workers".to_string(), Json::U64(workers as u64)),
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
    std::thread::scope(|scope| {
        let chaos_handle = opts
            .chaos_seed
            .map(|seed| scope.spawn(move || chaos_loop(shared_ref, seed)));
        let status_handle = scope.spawn(move || status_loop(shared_ref));
        let worker_handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || worker_loop(shared_ref, w)))
            .collect();
        for h in worker_handles {
            h.join().expect("worker thread panicked");
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
    let mut by_id: Vec<_> = spec.jobs.iter().collect();
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
    // The chaos ledger: the strike total, then the strikes per action,
    // counted off the trace.
    let chaos = opts.chaos_seed.map(|_| {
        let kinds = [
            ("kills", "kill"),
            ("freezes", "freeze"),
            ("snapshot_corruptions", "corrupt-snapshot"),
            ("heartbeat_tears", "tear-heartbeat"),
        ];
        let count = |action: &str| view.strikes.iter().filter(|(_, a, _)| a == action).count();
        let counts = kinds.map(|(key, action)| (key, Json::U64(count(action) as u64)));
        let sum = kinds.iter().map(|(_, action)| count(action) as u64).sum();
        Json::obj(std::iter::once(("actions", Json::U64(sum))).chain(counts))
    });
    let succeeded = jobs.iter().filter(|j| j.succeeded).count() as u64;
    let failed = jobs.len() as u64 - succeeded;
    CampaignResult {
        jobs,
        succeeded,
        failed,
        workers,
        wall_ms: shared.started.elapsed().as_millis() as u64,
        chaos,
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
/// chaos ledger. Nondeterministic by design, unlike the campaign report.
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
    let mut by_id: Vec<_> = spec.jobs.iter().collect();
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
        assert!(chaos_caused(Outcome::Signal(9), true, false));
        assert!(!chaos_caused(Outcome::Signal(9), false, true));
        assert!(chaos_caused(Outcome::Stalled, false, true));
        assert!(chaos_caused(Outcome::Timeout, false, true));
        assert!(chaos_caused(Outcome::Timeout, true, false));
        assert!(!chaos_caused(Outcome::Stalled, false, false));
        assert!(!chaos_caused(Outcome::Error(1), true, true));
        assert!(!chaos_caused(Outcome::Watchdog, true, true));
        // Corrupt snapshots are forgiven unconditionally, not via marks.
        assert!(!chaos_caused(Outcome::CorruptSnapshot, false, false));
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
