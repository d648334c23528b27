//! Campaign spans: typed begin/end intervals with stable ids, recorded
//! by the campaign supervisor and merged into one Perfetto-compatible
//! trace (DESIGN.md §14).
//!
//! The simulator's own trace events ([`crate::TraceEvent`]) live on the
//! *cycle* timeline of one machine; campaign spans live on the
//! *wall-clock millisecond* timeline of a whole campaign, stamped in
//! milliseconds since it started.
//!
//! [`merge_perfetto`] turns a span log into the full wall-clock trace
//! (one track per slot, a counter track derived from chaos-strike
//! instants), loadable at
//! <https://ui.perfetto.dev>. The campaign tier reads every document it
//! writes back out of that trace (`dtsvliw_bench::explain`).

use dtsvliw_json::Json;

/// What a span describes. Every kind has a stable lower-case label used
/// as the Perfetto event name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole campaign, begin to drain.
    Campaign,
    /// One attempt of one job, spawn to settle.
    JobAttempt,
    /// A chaos-harness strike.
    ChaosStrike,
    /// A corrupt snapshot was quarantined.
    Quarantine,
}

impl SpanKind {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Campaign => "campaign",
            SpanKind::JobAttempt => "job_attempt",
            SpanKind::ChaosStrike => "chaos_strike",
            SpanKind::Quarantine => "quarantine",
        }
    }
}

/// Begin/end discipline of one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Interval opens (pairs with an [`SpanPhase::End`] of the same id).
    Begin,
    /// Interval closes.
    End,
    /// A point event.
    Instant,
}

/// One span record: a begin, end or instant, stamped in campaign
/// milliseconds on a named track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Milliseconds since the campaign started.
    pub t_ms: u64,
    pub kind: SpanKind,
    pub phase: SpanPhase,
    /// Stable id pairing a [`SpanPhase::Begin`] with its
    /// [`SpanPhase::End`]; 0 for instants, which pair nothing.
    pub id: u64,
    /// Track (slot, `campaign` or `chaos`) the span belongs to.
    pub track: String,
    /// Free-form payload (job id, outcome, ...).
    pub args: Vec<(String, Json)>,
}

/// An in-memory span recorder. Plain data — callers that share one
/// across threads wrap it in their own lock.
#[derive(Debug, Default)]
pub struct SpanLog {
    events: Vec<SpanEvent>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    pub fn push(&mut self, ev: SpanEvent) {
        self.events.push(ev);
    }

    /// Convenience: record one event from its parts.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        t_ms: u64,
        kind: SpanKind,
        phase: SpanPhase,
        id: u64,
        track: &str,
        args: Vec<(String, Json)>,
    ) {
        self.push(SpanEvent {
            t_ms,
            kind,
            phase,
            id,
            track: track.to_string(),
            args,
        });
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Take ownership of the recorded events.
    pub fn into_events(self) -> Vec<SpanEvent> {
        self.events
    }
}

// ---------------------------------------------------------------------
// The Perfetto merge
// ---------------------------------------------------------------------

fn meta_record(name: &str, tid: Option<u64>, value: &str) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), Json::U64(1)),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid".to_string(), Json::U64(tid)));
    }
    pairs.push((
        "args".to_string(),
        Json::obj([("name", Json::Str(value.to_string()))]),
    ));
    Json::Obj(pairs)
}

/// Merge a span log into one Chrome trace-event document (array form,
/// the same shape [`crate::PerfettoSink`] writes): `ph:"X"` complete
/// events for begin/end pairs, `ph:"i"` instants, and a `ph:"C"`
/// counter track of cumulative chaos strikes derived from the strike
/// instants. One thread per distinct track (first-appearance order).
/// Events are emitted in nondecreasing timestamp order, so per-track
/// monotonicity holds by construction.
pub fn merge_perfetto(events: &[SpanEvent]) -> Json {
    // Track table in first-appearance order.
    let mut tracks: Vec<&str> = Vec::new();
    for ev in events {
        if !tracks.contains(&ev.track.as_str()) {
            tracks.push(ev.track.as_str());
        }
    }
    let tid = |name: &str| -> u64 { tracks.iter().position(|t| *t == name).unwrap_or(0) as u64 };

    // Pair begins with their ends by (kind, id).
    let mut out: Vec<(u64, Json)> = Vec::new();
    let mut open: Vec<(SpanKind, u64, &SpanEvent)> = Vec::new();
    let mut strikes: u64 = 0;
    for ev in events {
        match ev.phase {
            SpanPhase::Begin => open.push((ev.kind, ev.id, ev)),
            SpanPhase::End => {
                let begun = open
                    .iter()
                    .rposition(|(k, id, _)| *k == ev.kind && *id == ev.id)
                    .map(|i| open.remove(i).2);
                let (start, mut args) = match begun {
                    Some(b) => (b.t_ms.min(ev.t_ms), b.args.clone()),
                    None => (ev.t_ms, Vec::new()),
                };
                // End args win over begin args on key collision.
                for (k, v) in &ev.args {
                    if let Some(slot) = args.iter_mut().find(|(ak, _)| ak == k) {
                        slot.1 = v.clone();
                    } else {
                        args.push((k.clone(), v.clone()));
                    }
                }
                args.push(("kind".to_string(), Json::Str(ev.kind.label().to_string())));
                let name = args
                    .iter()
                    .find(|(k, _)| k == "name")
                    .and_then(|(_, v)| v.as_str())
                    .map(|s| format!("{} {s}", ev.kind.label()))
                    .unwrap_or_else(|| ev.kind.label().to_string());
                out.push((
                    start,
                    Json::obj([
                        ("name", Json::Str(name)),
                        ("ph", Json::Str("X".to_string())),
                        ("ts", Json::U64(start * 1000)),
                        ("dur", Json::U64(ev.t_ms.saturating_sub(start) * 1000)),
                        ("pid", Json::U64(1)),
                        ("tid", Json::U64(tid(&ev.track))),
                        ("args", Json::Obj(args)),
                    ]),
                ));
            }
            SpanPhase::Instant => {
                if ev.kind == SpanKind::ChaosStrike {
                    strikes += 1;
                    out.push((ev.t_ms, counter_sample("chaos strikes", ev.t_ms, strikes)));
                }
                let mut args = ev.args.clone();
                args.push(("kind".to_string(), Json::Str(ev.kind.label().to_string())));
                out.push((
                    ev.t_ms,
                    Json::obj([
                        ("name", Json::Str(ev.kind.label().to_string())),
                        ("ph", Json::Str("i".to_string())),
                        ("ts", Json::U64(ev.t_ms * 1000)),
                        ("pid", Json::U64(1)),
                        ("tid", Json::U64(tid(&ev.track))),
                        ("s", Json::Str("t".to_string())),
                        ("args", Json::Obj(args)),
                    ]),
                ));
            }
        }
    }
    // A begin that never ended still deserves a mark (campaign killed
    // mid-flight): render it as an instant so nothing is silently lost.
    for (_, _, b) in open {
        let mut args = b.args.clone();
        args.push(("kind".to_string(), Json::Str(b.kind.label().to_string())));
        args.push(("unclosed".to_string(), Json::Bool(true)));
        out.push((
            b.t_ms,
            Json::obj([
                ("name", Json::Str(b.kind.label().to_string())),
                ("ph", Json::Str("i".to_string())),
                ("ts", Json::U64(b.t_ms * 1000)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(tid(&b.track))),
                ("s", Json::Str("t".to_string())),
                ("args", Json::Obj(args)),
            ]),
        ));
    }
    // Stable sort by start time preserves the log's causal order among
    // same-millisecond events and guarantees per-track monotonic ts.
    out.sort_by_key(|(t, _)| *t);

    let mut doc = vec![meta_record("process_name", None, "dtsvliw-campaign")];
    for (i, t) in tracks.iter().enumerate() {
        doc.push(meta_record("thread_name", Some(i as u64), t));
    }
    doc.extend(out.into_iter().map(|(_, j)| j));
    Json::Arr(doc)
}

fn counter_sample(name: &str, t_ms: u64, value: u64) -> Json {
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("ph", Json::Str("C".to_string())),
        ("ts", Json::U64(t_ms * 1000)),
        ("pid", Json::U64(1)),
        // Derived counters live on their own implicit track 0; Perfetto
        // keys counter tracks by (pid, name), so tid is cosmetic here.
        ("tid", Json::U64(0)),
        ("args", Json::obj([("value", Json::U64(value))])),
    ])
}

// ---------------------------------------------------------------------
// Perfetto document validation
// ---------------------------------------------------------------------

/// Schema-check a Chrome trace-event document (the array form both
/// [`crate::PerfettoSink`] and [`merge_perfetto`] emit): every record
/// an object with a `name` and a known `ph`; every non-metadata record
/// carrying `ts`/`pid`/`tid`; `X` records carrying `dur`; per-track
/// timestamps nondecreasing in document order; `B`/`E` records (legacy
/// duration events) balanced per track. Returns the event count.
pub fn validate_perfetto(doc: &Json) -> Result<u64, String> {
    let Some(arr) = doc.as_arr() else {
        return Err("not a trace-event array".to_string());
    };
    let mut last_ts: Vec<((u64, u64), u64)> = Vec::new();
    let mut be_depth: Vec<((u64, u64), i64)> = Vec::new();
    let mut count = 0u64;
    for (i, rec) in arr.iter().enumerate() {
        if !matches!(rec, Json::Obj(_)) {
            return Err(format!("record {i}: not an object"));
        }
        if rec.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("record {i}: no name"));
        }
        let ph = rec
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {i}: no ph"))?;
        if !matches!(ph, "M" | "X" | "i" | "C" | "B" | "E") {
            return Err(format!("record {i}: unknown ph `{ph}`"));
        }
        if ph == "M" {
            continue;
        }
        count += 1;
        let ts = rec
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("record {i}: no ts"))?;
        let pid = rec
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("record {i}: no pid"))?;
        let tid = rec
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("record {i}: no tid"))?;
        if ph == "X" && rec.get("dur").and_then(Json::as_u64).is_none() {
            return Err(format!("record {i}: X without dur"));
        }
        let key = (pid, tid);
        match last_ts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(format!(
                        "record {i}: ts {ts} goes backwards on track {key:?} (last {last})"
                    ));
                }
                *last = ts;
            }
            None => last_ts.push((key, ts)),
        }
        if ph == "B" || ph == "E" {
            let slot = match be_depth.iter_mut().find(|(k, _)| *k == key) {
                Some((_, d)) => d,
                None => {
                    be_depth.push((key, 0));
                    &mut be_depth.last_mut().unwrap().1
                }
            };
            *slot += if ph == "B" { 1 } else { -1 };
            if *slot < 0 {
                return Err(format!("record {i}: E without B on track {key:?}"));
            }
        }
    }
    for (key, depth) in be_depth {
        if depth != 0 {
            return Err(format!("track {key:?}: {depth} unclosed B records"));
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
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

    #[test]
    fn merge_pairs_begin_end_into_complete_events() {
        let events = vec![
            ev(
                0,
                SpanKind::Campaign,
                SpanPhase::Begin,
                0,
                "campaign",
                vec![("jobs".to_string(), Json::U64(2))],
            ),
            ev(
                2,
                SpanKind::JobAttempt,
                SpanPhase::Begin,
                1,
                "w1",
                vec![("job".to_string(), Json::U64(0))],
            ),
            ev(
                3,
                SpanKind::Quarantine,
                SpanPhase::Instant,
                0,
                "w0",
                vec![("job".to_string(), Json::U64(1))],
            ),
            ev(8, SpanKind::JobAttempt, SpanPhase::End, 1, "w1", vec![]),
            ev(
                10,
                SpanKind::Campaign,
                SpanPhase::End,
                0,
                "campaign",
                vec![("succeeded".to_string(), Json::U64(2))],
            ),
        ];
        let doc = merge_perfetto(&events);
        let n = validate_perfetto(&doc).expect("valid merged doc");
        assert_eq!(
            n, 3,
            "campaign and attempt spans plus the quarantine instant"
        );
        let arr = doc.as_arr().unwrap();
        let xs: Vec<&Json> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2); // campaign + attempt
        let attempt = xs
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("kind"))
                    .and_then(Json::as_str)
                    == Some("job_attempt")
            })
            .expect("attempt X event");
        assert_eq!(attempt.get("ts").and_then(Json::as_u64), Some(2000));
        assert_eq!(attempt.get("dur").and_then(Json::as_u64), Some(6000));
        // Thread-name metadata for every distinct track.
        let names: Vec<&str> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert!(names.contains(&"campaign") && names.contains(&"w0") && names.contains(&"w1"));
    }

    #[test]
    fn merge_survives_unclosed_begins() {
        let events = vec![ev(
            4,
            SpanKind::JobAttempt,
            SpanPhase::Begin,
            9,
            "w0",
            vec![],
        )];
        let doc = merge_perfetto(&events);
        validate_perfetto(&doc).expect("unclosed begin renders as instant");
        let arr = doc.as_arr().unwrap();
        assert!(arr.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("unclosed"))
                .and_then(Json::as_bool)
                == Some(true)
        }));
    }

    #[test]
    fn validation_catches_malformed_documents() {
        assert!(validate_perfetto(&Json::U64(3)).is_err());
        let no_ph = Json::Arr(vec![Json::obj([("name", Json::Str("x".into()))])]);
        assert!(validate_perfetto(&no_ph).unwrap_err().contains("no ph"));
        let backwards = Json::Arr(vec![
            Json::obj([
                ("name", Json::Str("a".into())),
                ("ph", Json::Str("i".into())),
                ("ts", Json::U64(10)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(0)),
            ]),
            Json::obj([
                ("name", Json::Str("b".into())),
                ("ph", Json::Str("i".into())),
                ("ts", Json::U64(5)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(0)),
            ]),
        ]);
        assert!(validate_perfetto(&backwards)
            .unwrap_err()
            .contains("backwards"));
        let unbalanced = Json::Arr(vec![Json::obj([
            ("name", Json::Str("a".into())),
            ("ph", Json::Str("E".into())),
            ("ts", Json::U64(1)),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(0)),
        ])]);
        assert!(validate_perfetto(&unbalanced)
            .unwrap_err()
            .contains("E without B"));
    }
}
