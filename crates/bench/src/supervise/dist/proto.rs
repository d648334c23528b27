//! Frame vocabulary of the coordinator/worker wire protocol.
//!
//! Every frame is a JSON object with a `"t"` kind tag. The handshake is
//! versioned (`hello` / `hello-ack`, [`PROTO_VERSION`]); after it, the
//! coordinator drives one lease at a time per connection and the worker
//! streams `hb` (heartbeat relay / keepalive), `snap` (checksummed
//! snapshot shipment) and finally `result` frames back. Every
//! job-scoped frame carries the lease `epoch`, which is what makes
//! at-most-once accounting possible: a result from a fenced-off epoch
//! is recognisable no matter how late it arrives. See DESIGN.md §14
//! for the grammar and the failure matrix.

use crate::supervise::outcome::Outcome;
use dtsvliw_json::Json;

/// Wire protocol version. A worker refuses a hello from a different
/// version instead of guessing at frame shapes.
pub const PROTO_VERSION: u64 = 1;

/// The kind tag of a frame, or `None` when it is not even an object
/// with a `"t"` string.
pub fn kind(frame: &Json) -> Option<&str> {
    frame.get("t").and_then(Json::as_str)
}

fn u(frame: &Json, key: &str) -> Option<u64> {
    frame.get(key).and_then(Json::as_u64)
}

/// `(job, epoch)` of a job-scoped frame.
pub fn job_epoch(frame: &Json) -> Option<(u64, u64)> {
    Some((u(frame, "job")?, u(frame, "epoch")?))
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

pub fn hello(campaign_seed: u64) -> Json {
    Json::obj([
        ("t", Json::Str("hello".to_string())),
        ("proto", Json::U64(PROTO_VERSION)),
        ("role", Json::Str("coordinator".to_string())),
        ("seed", Json::U64(campaign_seed)),
        // Capability, not a version bump: a worker that predates spans
        // ignores the key, and `wants_spans` reads absent as false.
        ("spans", Json::Bool(true)),
    ])
}

pub fn hello_ack(slots: u64, worker: &str, spans: bool) -> Json {
    Json::obj([
        ("t", Json::Str("hello-ack".to_string())),
        ("proto", Json::U64(PROTO_VERSION)),
        ("slots", Json::U64(slots)),
        ("worker", Json::Str(worker.to_string())),
        ("spans", Json::Bool(spans)),
    ])
}

/// Whether the peer negotiated span relay in its hello/hello-ack. Absent
/// means no — the key arrived with the observability tier and older
/// builds never send it.
pub fn wants_spans(frame: &Json) -> bool {
    frame.get("spans").and_then(Json::as_bool).unwrap_or(false)
}

/// Validate an incoming hello; `Err` carries the refusal reason.
pub fn check_hello(frame: &Json) -> Result<(), String> {
    if kind(frame) != Some("hello") {
        return Err(format!("expected hello, got {:?}", kind(frame)));
    }
    match u(frame, "proto") {
        Some(PROTO_VERSION) => Ok(()),
        Some(v) => Err(format!(
            "protocol version {v} (this build speaks {PROTO_VERSION})"
        )),
        None => Err("hello carries no protocol version".to_string()),
    }
}

// ---------------------------------------------------------------------
// Coordinator -> worker
// ---------------------------------------------------------------------

/// Lease one job to the worker. Paths are relative — the worker roots
/// them in a per-lease scratch directory. When the coordinator holds a
/// durable snapshot for the job, it ships it inline (checksummed) so
/// the attempt resumes mid-flight on the new host.
#[allow(clippy::too_many_arguments)]
pub fn lease(
    job: u64,
    epoch: u64,
    name: &str,
    argv: &[String],
    timeout_ms: u64,
    heartbeat: Option<&str>,
    snapshot_dir: Option<&str>,
    result: Option<&str>,
    snapshot: Option<&str>,
) -> Json {
    let opt = |v: Option<&str>| match v {
        Some(s) => Json::Str(s.to_string()),
        None => Json::Null,
    };
    Json::obj([
        ("t", Json::Str("lease".to_string())),
        ("job", Json::U64(job)),
        ("epoch", Json::U64(epoch)),
        ("name", Json::Str(name.to_string())),
        (
            "argv",
            Json::Arr(argv.iter().map(|a| Json::Str(a.clone())).collect()),
        ),
        ("timeout_ms", Json::U64(timeout_ms)),
        ("heartbeat", opt(heartbeat)),
        ("snapshot_dir", opt(snapshot_dir)),
        ("result", opt(result)),
        (
            "snapshot",
            match snapshot {
                Some(text) => Json::obj([
                    ("data", Json::Str(text.to_string())),
                    ("fnv", Json::U64(crate::supervise::fnv1a(text.as_bytes()))),
                ]),
                None => Json::Null,
            },
        ),
    ])
}

/// Revoke the lease: the worker must kill the child and acknowledge.
/// Sent at coordinator-side timeout/stall/requeue decisions; the lease
/// is fenced the moment this is *decided*, so a result racing the
/// revocation is rejected either way.
pub fn revoke(job: u64, epoch: u64) -> Json {
    Json::obj([
        ("t", Json::Str("revoke".to_string())),
        ("job", Json::U64(job)),
        ("epoch", Json::U64(epoch)),
    ])
}

pub fn bye() -> Json {
    Json::obj([("t", Json::Str("bye".to_string()))])
}

// ---------------------------------------------------------------------
// Worker -> coordinator
// ---------------------------------------------------------------------

/// Heartbeat relay: complete records tailed from the child's heartbeat
/// file. An empty `records` array is a keepalive — it proves the
/// connection is not half-open even while the child is quiet.
pub fn hb(job: u64, epoch: u64, records: Vec<Json>) -> Json {
    Json::obj([
        ("t", Json::Str("hb".to_string())),
        ("job", Json::U64(job)),
        ("epoch", Json::U64(epoch)),
        ("records", Json::Arr(records)),
    ])
}

/// Ship the child's current `latest.json`, checksummed so a truncated
/// or bit-flipped transfer is detectable before it ever becomes a
/// resume source.
pub fn snap(job: u64, epoch: u64, data: &str) -> Json {
    Json::obj([
        ("t", Json::Str("snap".to_string())),
        ("job", Json::U64(job)),
        ("epoch", Json::U64(epoch)),
        ("fnv", Json::U64(crate::supervise::fnv1a(data.as_bytes()))),
        ("data", Json::Str(data.to_string())),
    ])
}

/// The attempt's ending: the outcome's label and detail (exit code or
/// signal, when there is one); `result` the declared result file's
/// text (successes only, `missing` when the file never appeared).
pub fn result(
    job: u64,
    epoch: u64,
    outcome: Outcome,
    resumed: bool,
    result_text: Option<&str>,
    missing: bool,
) -> Json {
    Json::obj([
        ("t", Json::Str("result".to_string())),
        ("job", Json::U64(job)),
        ("epoch", Json::U64(epoch)),
        ("outcome", Json::Str(outcome.label().to_string())),
        (
            "detail",
            match outcome.detail() {
                Some(d) => Json::I64(d),
                None => Json::Null,
            },
        ),
        ("resumed", Json::Bool(resumed)),
        (
            "result",
            match result_text {
                Some(text) => Json::Str(text.to_string()),
                None => Json::Null,
            },
        ),
        ("missing", Json::Bool(missing)),
    ])
}

/// Attach a batch of worker-local span records to an outgoing `hb` or
/// `result` frame. Only called when the handshake negotiated spans; an
/// old coordinator simply never sees the key.
pub fn attach_spans(frame: &mut Json, spans: Vec<Json>) {
    if spans.is_empty() {
        return;
    }
    if let Json::Obj(pairs) = frame {
        pairs.push(("spans".to_string(), Json::Arr(spans)));
    }
}

/// Attach the worker-side torn-heartbeat-tail count to a `result` frame
/// (omitted when zero — the common case stays byte-identical to the
/// pre-observability wire shape).
pub fn attach_tail_truncated(frame: &mut Json, truncated: u64) {
    if truncated == 0 {
        return;
    }
    if let Json::Obj(pairs) = frame {
        pairs.push(("tail_truncated".to_string(), Json::U64(truncated)));
    }
}

/// Revocation acknowledged: the child is dead, no result will follow
/// for this epoch.
pub fn revoked(job: u64, epoch: u64) -> Json {
    Json::obj([
        ("t", Json::Str("revoked".to_string())),
        ("job", Json::U64(job)),
        ("epoch", Json::U64(epoch)),
    ])
}

/// Verify a shipped payload (`snap` frame or a lease's inline
/// snapshot): the `data` string must hash to the recorded `fnv`.
pub fn verified_data(obj: &Json) -> Option<String> {
    let data = obj.get("data").and_then(Json::as_str)?;
    let fnv = obj.get("fnv").and_then(Json::as_u64)?;
    if crate::supervise::fnv1a(data.as_bytes()) == fnv {
        Some(data.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip_and_version_gate() {
        assert!(check_hello(&hello(7)).is_ok());
        let mut wrong = hello(7);
        if let Json::Obj(pairs) = &mut wrong {
            for (k, v) in pairs.iter_mut() {
                if k == "proto" {
                    *v = Json::U64(99);
                }
            }
        }
        let err = check_hello(&wrong).unwrap_err();
        assert!(err.contains("99"), "{err}");
        assert!(check_hello(&bye()).is_err());
    }

    #[test]
    fn lease_carries_checksummed_snapshot() {
        let argv = vec!["sh".to_string(), "-c".to_string(), "true".to_string()];
        let l = lease(
            3,
            2,
            "job",
            &argv,
            1000,
            None,
            Some("snaps"),
            None,
            Some("{\"x\": 1}"),
        );
        assert_eq!(kind(&l), Some("lease"));
        assert_eq!(job_epoch(&l), Some((3, 2)));
        let snap = l.get("snapshot").unwrap();
        assert_eq!(verified_data(snap).as_deref(), Some("{\"x\": 1}"));
    }

    #[test]
    fn corrupted_shipment_fails_verification() {
        let s = snap(1, 0, "payload bytes");
        assert_eq!(verified_data(&s).as_deref(), Some("payload bytes"));
        // Tamper with the data after checksumming.
        let mut torn = s.clone();
        if let Json::Obj(pairs) = &mut torn {
            for (k, v) in pairs.iter_mut() {
                if k == "data" {
                    *v = Json::Str("payload byteX".to_string());
                }
            }
        }
        assert_eq!(verified_data(&torn), None);
    }

    #[test]
    fn empty_hb_is_a_keepalive_shape() {
        let k = hb(4, 1, vec![]);
        assert_eq!(kind(&k), Some("hb"));
        assert_eq!(job_epoch(&k), Some((4, 1)));
        assert_eq!(k.get("records").and_then(Json::as_arr).unwrap().len(), 0);
    }

    #[test]
    fn result_frame_shapes() {
        let r = result(2, 5, Outcome::Error(7), true, None, false);
        assert_eq!(kind(&r), Some("result"));
        assert_eq!(r.get("outcome").and_then(Json::as_str), Some("error"));
        assert_eq!(r.get("detail").and_then(Json::as_i64), Some(7));
        assert_eq!(r.get("resumed").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn spans_are_negotiated_not_assumed() {
        assert!(wants_spans(&hello(1)));
        assert!(wants_spans(&hello_ack(2, "w", true)));
        assert!(!wants_spans(&hello_ack(2, "w", false)));
        // A frame from a build that predates the key reads as false.
        assert!(!wants_spans(&bye()));
    }

    #[test]
    fn optional_fields_attach_only_when_nonempty() {
        let mut r = result(2, 5, Outcome::Success, false, Some("{}"), false);
        let bare = r.to_string();
        attach_spans(&mut r, vec![]);
        attach_tail_truncated(&mut r, 0);
        assert_eq!(r.to_string(), bare, "empty attachments must be no-ops");
        attach_spans(
            &mut r,
            vec![Json::obj([("kind", Json::Str("lease".into()))])],
        );
        attach_tail_truncated(&mut r, 3);
        assert_eq!(r.get("spans").and_then(Json::as_arr).unwrap().len(), 1);
        assert_eq!(r.get("tail_truncated").and_then(Json::as_u64), Some(3));
    }
}
