//! The campaign engine behind `dtsvliw_supervise` (DESIGN.md §13).
//!
//! A campaign is a set of simulator jobs (seeds × configs × workloads)
//! fanned across `--jobs N` worker slots by a sharded work-stealing
//! scheduler. Each worker babysits one child process at a time with the
//! durability machinery from DESIGN.md §10 — wall-clock timeouts,
//! heartbeat-staleness stall detection, soft-deadline
//! checkpoint-and-requeue, snapshot-resumed retries with seeded
//! backoff — and a deterministic merge stage keeps the final report
//! byte-reproducible regardless of worker count, completion order, or
//! injected chaos.
//!
//! Module map:
//!
//! * [`spec`] — campaign spec parsing and validation (malformed specs
//!   are rejected with the offending field named);
//! * [`outcome`] — attempt classification (`success`, `timeout`,
//!   `stalled`, `requeued`, `watchdog`, `corrupt-snapshot`, `signal`,
//!   `error`);
//! * [`babysit`] — the one child babysitter (spawn, `try_wait`,
//!   heartbeat tail, kill-precedence classification) every slot runs
//!   its child through, and the one kill policy every attempt runs
//!   under;
//! * [`backoff`] — interleaving-independent retry jitter, keyed by
//!   (campaign seed, job id, attempt);
//! * [`heartbeat`] — torn-line-safe incremental JSONL tailing;
//! * [`queue`] — the sharded work-stealing scheduler with per-tenant
//!   quotas and a bounded spawn window;
//! * [`chaos`] — the self-attack harness (`--chaos SEED`);
//! * [`status`] — the multi-worker live status line;
//! * [`engine`] — worker threads, the attempt loop, the campaign span
//!   log, and the deterministic merge: report / attempts-log /
//!   wall-clock side-channel documents projected from that log;
//! * [`metrics`] — the `/metrics` page, folded from the span log, and
//!   the hand-rolled Prometheus text-exposition endpoint (DESIGN.md
//!   §14).

pub mod babysit;
pub mod backoff;
pub mod chaos;
pub mod engine;
pub mod heartbeat;
pub mod metrics;
pub mod outcome;
pub mod queue;
pub mod spec;
pub mod status;

pub use engine::{run_campaign, CampaignResult, EngineOptions, JobResult};
pub use metrics::{campaign_page, spawn_metrics_server, OUTCOME_CLASSES};
pub use outcome::Outcome;
pub use spec::{parse_campaign, CampaignSpec, JobSpec, SpecError};

use std::path::{Path, PathBuf};

/// Resolve a bare command name to a sibling of the current executable
/// (the usual cargo target directory layout), so campaign specs do not
/// hard-code target paths. Anything with a path separator, and bare
/// names without a sibling match, pass through untouched (the latter
/// resolve via `PATH` at spawn time).
pub fn resolve_program(name: &str) -> PathBuf {
    let p = Path::new(name);
    if p.components().count() > 1 || p.is_absolute() {
        return p.to_path_buf();
    }
    if let Ok(me) = std::env::current_exe() {
        if let Some(dir) = me.parent() {
            let sibling = dir.join(name);
            if sibling.exists() {
                return sibling;
            }
        }
    }
    p.to_path_buf()
}

/// FNV-1a over a byte string — the same digest the snapshot layer and
/// the bench hot-block digests use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Canonical digest of a job's declared result file. The text must be
/// JSON; the top-level `"telemetry"` key is dropped before digesting
/// because it is host-side burst accounting that legitimately differs
/// across a resume boundary (DESIGN.md §12) — everything simulated must
/// digest identically whether the job ran straight through or was
/// killed and resumed. Returns `None` when the text is not JSON.
pub fn canonical_result_digest(text: &str) -> Option<String> {
    use dtsvliw_json::Json;
    let doc = Json::parse(text).ok()?;
    let doc = match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "telemetry")
                .collect(),
        ),
        other => other,
    };
    Some(format!("fnv64:{:016x}", fnv1a(doc.to_string().as_bytes())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_telemetry_but_nothing_else() {
        let a = canonical_result_digest(r#"{"cycles": 7, "telemetry": {"bursts": 3}}"#).unwrap();
        let b = canonical_result_digest(r#"{"cycles": 7, "telemetry": {"bursts": 99}}"#).unwrap();
        let c = canonical_result_digest(r#"{"cycles": 8, "telemetry": {"bursts": 3}}"#).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with("fnv64:"));
    }

    #[test]
    fn digest_rejects_non_json() {
        assert_eq!(canonical_result_digest("not json"), None);
    }

    #[test]
    fn bare_names_resolve_to_sibling_or_pass_through() {
        // `dtsvliw_supervise`'s own test binary directory will not
        // contain `definitely-not-a-binary`, so the name passes through.
        assert_eq!(
            resolve_program("definitely-not-a-binary"),
            PathBuf::from("definitely-not-a-binary")
        );
        // Paths with separators are never rewritten.
        assert_eq!(resolve_program("./x/y"), PathBuf::from("./x/y"));
    }
}
