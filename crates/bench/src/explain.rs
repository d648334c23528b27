//! The campaign's one reader (DESIGN.md §14).
//!
//! `dtsvliw_supervise --spans-out` merges every scheduling decision into
//! one Perfetto trace. This module reads that document *back* into a
//! [`CampaignView`]: per-job attempt chains (what ran where, what killed
//! it, what was forgiven and why, how long it took), the chaos strikes,
//! quarantines and steals that shaped the schedule. The supervise engine reads its
//! own span log through the same view to build the report, attempts and
//! wall-clock documents and the `/metrics` page, so the trace and every
//! document tell one story. From the view come the summary table, the
//! per-job narrative, and the canonical timestamp-stripped span set CI
//! `cmp`s between a chaos storm and a calm run.
//!
//! Everything here is pure text-in/text-out and unit-testable; the
//! `dtsvliw_explain` binary is a thin shell over it.

use dtsvliw_json::Json;
use dtsvliw_trace::{merge_perfetto, SpanEvent};

/// One attempt (or soft-deadline requeue) reconstructed from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptView {
    pub job: u64,
    pub name: String,
    /// Consumed-retry index; `None` for soft-deadline requeues (they
    /// consume nothing) and unclosed attempts.
    pub n: Option<u64>,
    pub outcome: String,
    /// The signal number or exit code the outcome carries.
    pub detail: Option<i64>,
    pub forgiven: bool,
    pub resumed: bool,
    /// Backoff scheduled after the attempt (`None` on success, on
    /// requeues and when the attempt was the job's last).
    pub backoff_ms: Option<u64>,
    /// The attempt used up the job's retries: the job failed.
    pub job_failed: bool,
    /// Spawn to settle as the engine measured it, milliseconds. Not the
    /// trace duration: millisecond stamps round each end down.
    pub wall_ms: u64,
    /// Torn final heartbeat records.
    pub tail_truncated: u64,
    /// VLIW bursts in the successful attempt's freshest heartbeat.
    pub bursts: u64,
    /// Campaign-clock start and duration, milliseconds.
    pub t_ms: u64,
    pub dur_ms: u64,
    /// Slot track the attempt ran on (`w0`, `w1`, ...).
    pub track: String,
}

/// The whole campaign as reconstructed from a merged Perfetto trace.
#[derive(Debug, Clone, Default)]
pub struct CampaignView {
    pub jobs: u64,
    pub workers: u64,
    pub seed: u64,
    pub succeeded: Option<u64>,
    pub failed: Option<u64>,
    /// Attempts in document order (nondecreasing start time).
    pub attempts: Vec<AttemptView>,
    /// `(t_ms, action, track)` per executed chaos strike.
    pub strikes: Vec<(u64, String, String)>,
    /// `(t_ms, job, track)` per work-stealing claim.
    pub steals: Vec<(u64, u64, String)>,
    /// Older quarantined snapshots the retention cap evicted, summed
    /// over the quarantine spans.
    pub quarantines_evicted: u64,
}

fn astr(args: &Json, key: &str) -> Option<String> {
    args.get(key).and_then(Json::as_str).map(str::to_string)
}

fn au64(args: &Json, key: &str) -> Option<u64> {
    args.get(key).and_then(Json::as_u64)
}

fn abool(args: &Json, key: &str) -> bool {
    args.get(key).and_then(Json::as_bool).unwrap_or(false)
}

/// Reconstruct the campaign from a merged Perfetto document (the array
/// form `merge_perfetto` emits). Unknown records are skipped — the
/// explainer must keep working as the span taxonomy grows.
pub fn parse_trace(doc: &Json) -> Result<CampaignView, String> {
    let arr = doc
        .as_arr()
        .ok_or_else(|| "not a trace-event array".to_string())?;
    // Resolve tid -> track name from the thread_name metadata.
    let mut tracks: Vec<(u64, String)> = Vec::new();
    for rec in arr {
        if rec.get("ph").and_then(Json::as_str) == Some("M")
            && rec.get("name").and_then(Json::as_str) == Some("thread_name")
        {
            if let (Some(tid), Some(name)) = (
                rec.get("tid").and_then(Json::as_u64),
                rec.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str),
            ) {
                tracks.push((tid, name.to_string()));
            }
        }
    }
    let track_of = |rec: &Json| -> String {
        let tid = rec.get("tid").and_then(Json::as_u64).unwrap_or(0);
        tracks
            .iter()
            .find(|(t, _)| *t == tid)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("tid{tid}"))
    };

    let mut view = CampaignView::default();
    for rec in arr {
        let ph = rec.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "X" && ph != "i" {
            continue;
        }
        let Some(args) = rec.get("args") else {
            continue;
        };
        let t_ms = rec.get("ts").and_then(Json::as_u64).unwrap_or(0) / 1000;
        let dur_ms = rec.get("dur").and_then(Json::as_u64).unwrap_or(0) / 1000;
        match astr(args, "kind").as_deref() {
            Some("campaign") => {
                view.jobs = au64(args, "jobs").unwrap_or(0);
                view.workers = au64(args, "workers").unwrap_or(0);
                view.seed = au64(args, "seed").unwrap_or(0);
                view.succeeded = au64(args, "succeeded");
                view.failed = au64(args, "failed");
            }
            Some("job_attempt") => {
                let Some(job) = au64(args, "job") else {
                    continue;
                };
                view.attempts.push(AttemptView {
                    job,
                    name: astr(args, "name").unwrap_or_default(),
                    n: au64(args, "n"),
                    outcome: astr(args, "outcome").unwrap_or_else(|| {
                        if abool(args, "unclosed") {
                            "unclosed".to_string()
                        } else {
                            "?".to_string()
                        }
                    }),
                    detail: args.get("detail").and_then(Json::as_i64),
                    forgiven: abool(args, "forgiven"),
                    resumed: abool(args, "resumed"),
                    backoff_ms: au64(args, "backoff_ms"),
                    job_failed: abool(args, "job_failed"),
                    wall_ms: au64(args, "wall_ms").unwrap_or(0),
                    tail_truncated: au64(args, "tail_truncated").unwrap_or(0),
                    bursts: au64(args, "bursts").unwrap_or(0),
                    t_ms,
                    dur_ms,
                    track: track_of(rec),
                });
            }
            Some("chaos_strike") => {
                view.strikes.push((
                    t_ms,
                    astr(args, "action").unwrap_or_else(|| "?".to_string()),
                    track_of(rec),
                ));
            }
            Some("steal") => {
                view.steals
                    .push((t_ms, au64(args, "job").unwrap_or(0), track_of(rec)));
            }
            Some("quarantine") => view.quarantines_evicted += au64(args, "evicted").unwrap_or(0),
            _ => {}
        }
    }
    Ok(view)
}

/// Read a campaign's span log through its merged trace: the view the
/// engine builds its documents and `/metrics` page from.
pub fn view_of(events: &[SpanEvent]) -> CampaignView {
    parse_trace(&merge_perfetto(events)).expect("a merged trace is an event array")
}

/// The timestamp-stripped deterministic span set: the campaign's job
/// count plus every non-forgiven attempt, reduced to `(job, n, outcome)`
/// where `n` is the attempt's consumed-retry index. Chaos-shaped fields
/// (timestamps, tracks, the `resumed` flag, forgiven attempts, requeues,
/// steals, strikes) are all projected away, so a chaos storm
/// and an undisturbed run of the same campaign render byte-identical
/// text — the cmp gate CI holds them to.
pub fn canonical(view: &CampaignView) -> String {
    let mut lines: Vec<(u64, u64, String)> = Vec::new();
    for a in &view.attempts {
        let Some(n) = a.n else { continue };
        if a.forgiven || a.outcome == "unclosed" {
            continue;
        }
        lines.push((
            a.job,
            n,
            format!(
                "{{\"kind\":\"job_attempt\",\"job\":{},\"n\":{n},\"outcome\":\"{}\"}}",
                a.job, a.outcome
            ),
        ));
    }
    lines.sort();
    lines.dedup();
    let mut out = format!("{{\"kind\":\"campaign\",\"jobs\":{}}}\n", view.jobs);
    for (_, _, line) in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// One job's attempts in execution order (start time, then consumed
/// index), soft-deadline requeues and unclosed attempts included.
pub fn chain(view: &CampaignView, job: u64) -> Vec<&AttemptView> {
    let mut chain: Vec<&AttemptView> = view.attempts.iter().filter(|a| a.job == job).collect();
    chain.sort_by_key(|a| (a.t_ms, a.n));
    chain
}

/// Every job the trace saw, as `(id, name)` in id order.
pub fn jobs(view: &CampaignView) -> Vec<(u64, String)> {
    let mut jobs: Vec<(u64, String)> = view
        .attempts
        .iter()
        .map(|a| (a.job, a.name.clone()))
        .collect();
    // A job's first entry after the sort carries its name if any does.
    jobs.sort_by_key(|(id, name)| (*id, name.is_empty()));
    jobs.dedup_by_key(|(id, _)| *id);
    jobs
}

/// Per-job attempt chains in execution order: `(job, attempts)` sorted
/// by job id, each job's attempts by start time. Soft-deadline requeues
/// (no consumed index) ride along in their time-order position — they
/// are part of the causal story even though the attempts log omits
/// them.
pub fn attempt_chains(view: &CampaignView) -> Vec<(u64, Vec<&AttemptView>)> {
    jobs(view)
        .into_iter()
        .map(|(job, _)| (job, chain(view, job)))
        .collect()
}

fn fmt_ms(ms: u64) -> String {
    if ms >= 10_000 {
        format!("{:.1}s", ms as f64 / 1000.0)
    } else {
        format!("{ms}ms")
    }
}

/// The campaign summary table: identity, outcomes, and the disturbance
/// ledger, rendered as aligned text.
pub fn summary_table(view: &CampaignView) -> String {
    let mut outcome_counts: Vec<(String, u64)> = Vec::new();
    for a in &view.attempts {
        match outcome_counts.iter_mut().find(|(o, _)| *o == a.outcome) {
            Some((_, c)) => *c += 1,
            None => outcome_counts.push((a.outcome.clone(), 1)),
        }
    }
    outcome_counts.sort();
    let outcomes = outcome_counts
        .iter()
        .map(|(o, c)| format!("{o} x{c}"))
        .collect::<Vec<_>>()
        .join(", ");
    let mut s = String::new();
    s.push_str("campaign summary\n");
    s.push_str(&format!(
        "  jobs            : {} ({} succeeded, {} failed)\n",
        view.jobs,
        view.succeeded.map_or("?".to_string(), |v| v.to_string()),
        view.failed.map_or("?".to_string(), |v| v.to_string()),
    ));
    s.push_str(&format!("  worker slots    : {}\n", view.workers));
    s.push_str(&format!(
        "  attempts        : {} ({outcomes})\n",
        view.attempts.len()
    ));
    s.push_str(&format!("  steals          : {}\n", view.steals.len()));
    s.push_str(&format!("  chaos strikes   : {}\n", view.strikes.len()));
    s
}

/// The per-job causal narrative: every attempt in time order with where
/// it ran, how long, how it ended, and why that was (or was not) held
/// against the job, under a header with the job's wall time and torn
/// heartbeat tails.
pub fn narrate(view: &CampaignView, only_job: Option<u64>) -> String {
    let mut s = String::new();
    for (job, chain) in attempt_chains(view) {
        if only_job.is_some_and(|j| j != job) {
            continue;
        }
        let name = chain
            .iter()
            .map(|a| a.name.as_str())
            .find(|n| !n.is_empty())
            .unwrap_or("?");
        let last = chain.last();
        let fate = match last.map(|a| a.outcome.as_str()) {
            Some("success") => "succeeded",
            Some("unclosed") => "never settled",
            Some(_) => "failed",
            None => "never ran",
        };
        let consumed = chain.iter().filter_map(|a| a.n).max().map_or(0, |n| n + 1);
        let forgiven = chain.iter().filter(|a| a.forgiven).count();
        let requeues = chain
            .iter()
            .filter(|a| a.n.is_none() && a.outcome == "requeued")
            .count();
        s.push_str(&format!(
            "job {job} `{name}` — {fate} ({} attempt(s) consumed, {forgiven} forgiven, \
             {requeues} requeue(s)), {} wall",
            consumed,
            fmt_ms(chain.iter().map(|a| a.wall_ms).sum())
        ));
        let torn: u64 = chain.iter().map(|a| a.tail_truncated).sum();
        if torn > 0 {
            s.push_str(&format!(", {torn} torn heartbeat tail(s)"));
        }
        s.push('\n');
        for a in chain {
            let what = match (a.n, a.outcome.as_str()) {
                (None, "requeued") => {
                    "hit its soft deadline: checkpointed and requeued (no retry consumed)"
                        .to_string()
                }
                (_, "success") if a.resumed => "succeeded, resumed from a snapshot".to_string(),
                (_, "success") => "succeeded".to_string(),
                (_, out) if a.forgiven => format!(
                    "ended `{out}` but was forgiven (chaos or a corrupt snapshot, not the job's fault)"
                ),
                (_, out) => format!("ended `{out}` (retry consumed)"),
            };
            let idx =
                a.n.map(|n| format!("n={n}"))
                    .unwrap_or_else(|| "requeue".to_string());
            s.push_str(&format!(
                "  [{:>8} +{:<8}] {:<12} {idx}: {what}\n",
                fmt_ms(a.t_ms),
                fmt_ms(a.dur_ms),
                a.track,
            ));
        }
        // Strikes that landed during this job's attempts are part of
        // its story even though they live on the chaos track.
        for (t, action, _) in &view.strikes {
            let during = view
                .attempts
                .iter()
                .filter(|a| a.job == job)
                .any(|a| *t >= a.t_ms && *t <= a.t_ms + a.dur_ms);
            if during {
                s.push_str(&format!(
                    "  [{:>8}          ] chaos        strike: {action}\n",
                    fmt_ms(*t)
                ));
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::engine::{attempts_json, job_results};
    use dtsvliw_trace::{SpanKind, SpanPhase};

    fn sev(
        t: u64,
        kind: SpanKind,
        phase: SpanPhase,
        id: u64,
        track: &str,
        args: Vec<(String, Json)>,
    ) -> SpanEvent {
        SpanEvent {
            t_ms: t,
            kind,
            phase,
            id,
            track: track.to_string(),
            args,
        }
    }

    /// A settled attempt's begin/end pair; `settled` rides on the end
    /// the way the engine records it.
    #[allow(clippy::too_many_arguments)]
    fn attempt_pair(
        t0: u64,
        t1: u64,
        id: u64,
        job: u64,
        n: Option<u64>,
        outcome: &str,
        forgiven: bool,
        track: &str,
        settled: &[(&str, Json)],
    ) -> Vec<SpanEvent> {
        let mut bargs = vec![
            ("job".to_string(), Json::U64(job)),
            ("name".to_string(), Json::Str(format!("job{job}"))),
        ];
        let mut eargs = vec![
            ("job".to_string(), Json::U64(job)),
            ("outcome".to_string(), Json::Str(outcome.to_string())),
            ("forgiven".to_string(), Json::Bool(forgiven)),
            ("resumed".to_string(), Json::Bool(false)),
        ];
        eargs.extend(settled.iter().map(|(k, v)| (k.to_string(), v.clone())));
        if let Some(n) = n {
            bargs.push(("n".to_string(), Json::U64(n)));
            eargs.push(("n".to_string(), Json::U64(n)));
        }
        vec![
            sev(t0, SpanKind::JobAttempt, SpanPhase::Begin, id, track, bargs),
            sev(t1, SpanKind::JobAttempt, SpanPhase::End, id, track, eargs),
        ]
    }

    fn fixture_events() -> Vec<SpanEvent> {
        let mut events = vec![sev(
            0,
            SpanKind::Campaign,
            SpanPhase::Begin,
            1,
            "campaign",
            vec![
                ("jobs".to_string(), Json::U64(2)),
                ("workers".to_string(), Json::U64(2)),
                ("seed".to_string(), Json::U64(9)),
            ],
        )];
        events.extend(attempt_pair(
            5,
            20,
            2,
            0,
            Some(0),
            "success",
            false,
            "w0",
            &[
                ("wall_ms", Json::U64(15_000)),
                ("tail_truncated", Json::U64(1)),
            ],
        ));
        // Job 1: a forgiven chaos kill, then a consumed timeout, then
        // success.
        events.extend(attempt_pair(
            5,
            12,
            3,
            1,
            Some(0),
            "signal",
            true,
            "w1",
            &[("detail", Json::I64(9)), ("backoff_ms", Json::U64(4))],
        ));
        events.push(sev(
            8,
            SpanKind::ChaosStrike,
            SpanPhase::Instant,
            0,
            "chaos",
            vec![("action".to_string(), Json::Str("kill".to_string()))],
        ));
        events.extend(attempt_pair(
            13,
            30,
            4,
            1,
            Some(0),
            "timeout",
            false,
            "w1",
            &[("backoff_ms", Json::U64(4))],
        ));
        events.extend(attempt_pair(
            31,
            44,
            5,
            1,
            Some(1),
            "success",
            false,
            "w0",
            &[],
        ));
        events.push(sev(
            31,
            SpanKind::Steal,
            SpanPhase::Instant,
            0,
            "w0",
            vec![("job".to_string(), Json::U64(1))],
        ));
        events.push(sev(
            44,
            SpanKind::Campaign,
            SpanPhase::End,
            1,
            "campaign",
            vec![
                ("succeeded".to_string(), Json::U64(2)),
                ("failed".to_string(), Json::U64(0)),
            ],
        ));
        events
    }

    #[test]
    fn trace_round_trips_into_a_campaign_view() {
        let view = view_of(&fixture_events());
        assert_eq!(view.jobs, 2);
        assert_eq!(view.seed, 9);
        assert_eq!(view.succeeded, Some(2));
        assert_eq!(view.attempts.len(), 4);
        assert_eq!(view.strikes.len(), 1);
        assert_eq!(view.steals.len(), 1);
        let chains = attempt_chains(&view);
        assert_eq!(chains.len(), 2);
        let (job1, chain1) = &chains[1];
        assert_eq!(*job1, 1);
        let outcomes: Vec<&str> = chain1.iter().map(|a| a.outcome.as_str()).collect();
        assert_eq!(outcomes, vec!["signal", "timeout", "success"]);
        assert!(chain1[0].forgiven && !chain1[1].forgiven);
        assert_eq!((chain1[0].detail, chain1[0].backoff_ms), (Some(9), Some(4)));
    }

    #[test]
    fn canonical_projection_strips_chaos_shape() {
        let attempt = |t: u64, job: u64, n: Option<u64>, outcome: &str, forgiven: bool| {
            attempt_pair(
                t,
                t + 1,
                job * 100 + t,
                job,
                n,
                outcome,
                forgiven,
                "w0",
                &[],
            )
        };
        let mut calm = vec![sev(
            0,
            SpanKind::Campaign,
            SpanPhase::Begin,
            1,
            "campaign",
            vec![("jobs".to_string(), Json::U64(2))],
        )];
        calm.extend(attempt(10, 0, Some(0), "success", false));
        calm.extend(attempt(20, 1, Some(0), "timeout", false));
        calm.extend(attempt(30, 1, Some(1), "success", false));
        let mut storm = calm.clone();
        // Chaos inserts forgiven attempts, steals, strikes, different
        // timestamps and an index-less requeue — all of which the
        // projection must erase.
        storm.extend(attempt(5, 0, Some(0), "signal", true));
        storm.extend(attempt(6, 1, None, "requeued", false));
        storm.push(sev(7, SpanKind::Steal, SpanPhase::Instant, 0, "w1", vec![]));
        storm.push(sev(
            8,
            SpanKind::ChaosStrike,
            SpanPhase::Instant,
            0,
            "chaos",
            vec![],
        ));
        for e in &mut storm {
            e.t_ms += 1000;
        }
        let canon = canonical(&view_of(&calm));
        assert_eq!(canon, canonical(&view_of(&storm)));
        assert!(canon.contains("\"jobs\":2"), "{canon}");
        assert!(
            canon.contains("\"job\":1,\"n\":1,\"outcome\":\"success\""),
            "{canon}"
        );
        assert!(
            !canon.contains("resumed"),
            "resumed is chaos-shaped: {canon}"
        );
    }

    #[test]
    fn crosscheck_agrees_with_a_faithful_attempts_doc() {
        let view = view_of(&fixture_events());
        let traced = attempts_json(view.seed, &job_results(&view, &jobs(&view)));
        let traced = Json::parse(&traced.to_string()).unwrap();
        let faithful = Json::parse(
            r#"{ "format": "dtsvliw-campaign-attempts", "seed": 9, "jobs": [
              { "id": 0, "name": "job0", "status": "succeeded", "attempts_used": 1,
                "consumed_retries": 0, "forgiven": 0, "attempts": [
                { "attempt": 0, "outcome": "success", "detail": null, "resumed": false,
                  "forgiven": false, "backoff_ms": null } ] },
              { "id": 1, "name": "job1", "status": "succeeded", "attempts_used": 3,
                "consumed_retries": 1, "forgiven": 1, "attempts": [
                { "attempt": 0, "outcome": "signal", "detail": 9, "resumed": false,
                  "forgiven": true, "backoff_ms": 4 },
                { "attempt": 1, "outcome": "timeout", "detail": null, "resumed": false,
                  "forgiven": false, "backoff_ms": 4 },
                { "attempt": 2, "outcome": "success", "detail": null, "resumed": false,
                  "forgiven": false, "backoff_ms": null } ] } ] }"#,
        )
        .unwrap();
        assert_eq!(traced, faithful);
        // A doc that disagrees must be called out, not glossed over.
        let wrong = faithful.to_string().replace("\"timeout\"", "\"stalled\"");
        assert_ne!(traced, Json::parse(&wrong).unwrap());
    }

    #[test]
    fn narrative_tells_the_forgiveness_story() {
        let view = view_of(&fixture_events());
        let text = narrate(&view, None);
        assert!(text.contains("job 1 `job1` — succeeded"), "{text}");
        assert!(text.contains("forgiven"), "{text}");
        assert!(text.contains("retry consumed"), "{text}");
        assert!(text.contains("strike: kill"), "{text}");
        let table = summary_table(&view);
        assert!(
            table.contains("jobs            : 2 (2 succeeded, 0 failed)"),
            "{table}"
        );
        assert!(table.contains("chaos strikes   : 1"), "{table}");
        // Single-job narration filters.
        let only0 = narrate(&view, Some(0));
        assert!(
            only0.contains("job 0") && !only0.contains("job 1 "),
            "{only0}"
        );
    }

    #[test]
    fn narrative_reads_wall_time_and_torn_tails_from_the_trace() {
        let view = view_of(&fixture_events());
        let text = narrate(&view, Some(0));
        assert!(text.contains("15.0s wall"), "{text}");
        assert!(text.contains("1 torn heartbeat tail(s)"), "{text}");
    }
}
