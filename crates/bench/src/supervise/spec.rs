//! Campaign spec parsing and validation.
//!
//! The spec is JSON (see the `dtsvliw_supervise` module docs for a
//! worked example). Parsing is strict where silence would corrupt a
//! campaign: a malformed spec, or one carrying a key outside the
//! documented fields, is rejected with a [`SpecError`] naming the
//! offending job and field, mirroring `dtsvliw_run`'s `parse_args`
//! treatment — `dtsvliw_supervise` turns these into exit code 2.

use dtsvliw_json::Json;
use std::fmt;
use std::path::PathBuf;

/// Default per-job wall-clock timeout when the spec omits `timeout_ms`.
pub const DEFAULT_TIMEOUT_MS: u64 = 60_000;
/// Default retry budget when the spec omits `retries`.
pub const DEFAULT_RETRIES: u32 = 2;
/// Default base backoff when the spec omits `backoff_ms`.
pub const DEFAULT_BACKOFF_MS: u64 = 100;
/// Default cap on soft-deadline requeues per job.
pub const DEFAULT_MAX_REQUEUES: u64 = 8;

/// A rejected campaign spec: which job (if any), which field, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending job's `name` (or its index when the name itself is
    /// missing or malformed); `None` for campaign-level fields.
    pub job: Option<String>,
    /// The offending field (for an unknown key, the key itself).
    pub field: String,
    /// What is wrong with it.
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.job {
            Some(j) => write!(f, "job `{j}`: field `{}`: {}", self.field, self.msg),
            None => write!(f, "campaign field `{}`: {}", self.field, self.msg),
        }
    }
}

impl std::error::Error for SpecError {}

/// One job from the campaign spec.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Stable identity the merge stage keys and sorts by. Defaults to
    /// the job's index in the spec; explicit ids must be unique.
    pub id: u64,
    pub name: String,
    pub argv: Vec<String>,
    pub timeout_ms: u64,
    pub retries: u32,
    /// The directory the job's own `--snapshot-dir` writes to; the
    /// supervisor injects `--resume <dir>/latest.json` whenever a
    /// snapshot exists there, and quarantines it on corruption.
    pub snapshot_dir: Option<PathBuf>,
    /// The heartbeat file the job's own `--heartbeat-out` writes; the
    /// supervisor tails it for live status, stall detection and the
    /// burst count on the attempt's span.
    pub heartbeat: Option<PathBuf>,
    /// Soft deadline: past this wall-clock age, an attempt with a
    /// durable snapshot is checkpoint-and-requeued so a straggler
    /// cannot serialize the campaign tail. Requires `snapshot_dir`.
    pub soft_deadline_ms: Option<u64>,
    /// Per-job override of the campaign `stall_ms`. Requires
    /// `heartbeat`.
    pub stall_ms: Option<u64>,
    /// A result file the job writes (typically its `--metrics-json`
    /// path); the merge stage digests it into the report.
    pub result: Option<PathBuf>,
}

impl JobSpec {
    /// Effective stall threshold: the job override, else the campaign
    /// default — and only for jobs that actually heartbeat.
    pub fn effective_stall_ms(&self, campaign_default: Option<u64>) -> Option<u64> {
        self.heartbeat.as_ref()?;
        self.stall_ms.or(campaign_default)
    }
}

/// The whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    pub seed: u64,
    pub backoff_ms: u64,
    /// Campaign-wide stall threshold (heartbeat staleness, wall
    /// milliseconds) for jobs that declare a heartbeat.
    pub stall_ms: Option<u64>,
    /// Cap on soft-deadline requeues per job.
    pub max_requeues: u64,
    pub jobs: Vec<JobSpec>,
}

/// Every key a campaign object may carry.
const CAMPAIGN_FIELDS: [&str; 5] = ["seed", "backoff_ms", "stall_ms", "max_requeues", "jobs"];
/// Every key a job object may carry.
const JOB_FIELDS: [&str; 10] = [
    "id",
    "name",
    "argv",
    "timeout_ms",
    "retries",
    "snapshot_dir",
    "heartbeat",
    "soft_deadline_ms",
    "stall_ms",
    "result",
];

fn err(job: Option<&str>, field: &str, msg: impl Into<String>) -> SpecError {
    SpecError {
        job: job.map(str::to_string),
        field: field.to_string(),
        msg: msg.into(),
    }
}

/// Reject the first key of `obj` outside `fields`: a misspelt field
/// must not silently fall back to its default.
fn known_fields(obj: &Json, job: Option<&str>, fields: &[&str]) -> Result<(), SpecError> {
    let Json::Obj(pairs) = obj else {
        return Ok(());
    };
    match pairs.iter().find(|(k, _)| !fields.contains(&k.as_str())) {
        Some((key, _)) => Err(err(
            job,
            key,
            format!("unknown field (expected one of {})", fields.join(", ")),
        )),
        None => Ok(()),
    }
}

/// A non-negative integer field with a default; negatives and
/// non-integers are rejected naming the field.
fn uint_field(
    obj: &Json,
    job: Option<&str>,
    field: &'static str,
    default: u64,
) -> Result<u64, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| match v.as_i64() {
            Some(n) => err(job, field, format!("must be non-negative, got {n}")),
            None => err(job, field, "must be an integer"),
        }),
    }
}

/// Like [`uint_field`], but zero is rejected too.
fn positive_field(
    obj: &Json,
    job: Option<&str>,
    field: &'static str,
    default: u64,
) -> Result<u64, SpecError> {
    let v = uint_field(obj, job, field, default)?;
    if v == 0 {
        return Err(err(job, field, "must be a positive integer, got 0"));
    }
    Ok(v)
}

/// An optional strictly-positive integer field.
fn optional_positive(
    obj: &Json,
    job: Option<&str>,
    field: &'static str,
) -> Result<Option<u64>, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => positive_field(obj, job, field, 1).map(Some),
    }
}

fn optional_path(
    obj: &Json,
    job: Option<&str>,
    field: &'static str,
) -> Result<Option<PathBuf>, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) if !s.is_empty() => Ok(Some(PathBuf::from(s))),
        Some(_) => Err(err(job, field, "must be a non-empty path string")),
    }
}

fn parse_job(j: &Json, index: usize) -> Result<JobSpec, SpecError> {
    let fallback = format!("#{index}");
    let name = match j.get("name") {
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        Some(_) => return Err(err(Some(&fallback), "name", "must be a non-empty string")),
        None => return Err(err(Some(&fallback), "name", "is required")),
    };
    let job = Some(name.as_str());
    known_fields(j, job, &JOB_FIELDS)?;
    let argv = match j.get("argv") {
        Some(Json::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(|a| match a {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(err(job, "argv", "every element must be a string")),
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err(err(job, "argv", "must be a non-empty array of strings")),
        None => return Err(err(job, "argv", "is required")),
    };
    let spec = JobSpec {
        id: uint_field(j, job, "id", index as u64)?,
        timeout_ms: positive_field(j, job, "timeout_ms", DEFAULT_TIMEOUT_MS)?,
        retries: {
            let r = uint_field(j, job, "retries", DEFAULT_RETRIES as u64)?;
            u32::try_from(r).map_err(|_| err(job, "retries", format!("{r} is out of range")))?
        },
        snapshot_dir: optional_path(j, job, "snapshot_dir")?,
        heartbeat: optional_path(j, job, "heartbeat")?,
        soft_deadline_ms: optional_positive(j, job, "soft_deadline_ms")?,
        stall_ms: optional_positive(j, job, "stall_ms")?,
        result: optional_path(j, job, "result")?,
        name: name.clone(),
        argv,
    };
    if spec.soft_deadline_ms.is_some() && spec.snapshot_dir.is_none() {
        return Err(err(
            job,
            "soft_deadline_ms",
            "requires `snapshot_dir` (checkpoint-and-requeue resumes from the latest snapshot)",
        ));
    }
    if spec.stall_ms.is_some() && spec.heartbeat.is_none() {
        return Err(err(
            job,
            "stall_ms",
            "requires `heartbeat` (staleness is measured on the heartbeat stream)",
        ));
    }
    Ok(spec)
}

/// Parse and validate a campaign spec document.
pub fn parse_campaign(text: &str) -> Result<CampaignSpec, SpecError> {
    let doc = Json::parse(text).map_err(|e| err(None, "(document)", format!("not JSON: {e}")))?;
    known_fields(&doc, None, &CAMPAIGN_FIELDS)?;
    let jobs = match doc.get("jobs") {
        Some(Json::Arr(items)) if !items.is_empty() => items
            .iter()
            .enumerate()
            .map(|(i, j)| parse_job(j, i))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(err(None, "jobs", "must be a non-empty array")),
    };
    // Identity must be unambiguous: the merge stage keys on id, the
    // snapshot/heartbeat paths key on name in practice.
    for (i, a) in jobs.iter().enumerate() {
        for b in &jobs[i + 1..] {
            if a.id == b.id {
                return Err(err(
                    Some(&b.name),
                    "id",
                    format!("duplicate job id {} (also used by `{}`)", b.id, a.name),
                ));
            }
            if a.name == b.name {
                return Err(err(Some(&b.name), "name", "duplicate job name"));
            }
        }
    }
    Ok(CampaignSpec {
        seed: uint_field(&doc, None, "seed", 1)?,
        backoff_ms: uint_field(&doc, None, "backoff_ms", DEFAULT_BACKOFF_MS)?,
        stall_ms: optional_positive(&doc, None, "stall_ms")?,
        max_requeues: uint_field(&doc, None, "max_requeues", DEFAULT_MAX_REQUEUES)?,
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(extra_job_fields: &str, extra_campaign_fields: &str) -> String {
        format!(
            r#"{{ "seed": 1{extra_campaign_fields},
                 "jobs": [ {{ "name": "a", "argv": ["true"]{extra_job_fields} }} ] }}"#
        )
    }

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let c = parse_campaign(&minimal("", "")).unwrap();
        assert_eq!(c.seed, 1);
        assert_eq!(c.backoff_ms, DEFAULT_BACKOFF_MS);
        assert_eq!(c.max_requeues, DEFAULT_MAX_REQUEUES);
        assert_eq!(c.jobs.len(), 1);
        let j = &c.jobs[0];
        assert_eq!(j.id, 0);
        assert_eq!(j.timeout_ms, DEFAULT_TIMEOUT_MS);
        assert_eq!(j.retries, DEFAULT_RETRIES);
        assert!(j.snapshot_dir.is_none() && j.heartbeat.is_none());
    }

    #[test]
    fn zero_timeout_is_rejected_naming_the_field() {
        let e = parse_campaign(&minimal(r#", "timeout_ms": 0"#, "")).unwrap_err();
        assert_eq!(e.field, "timeout_ms");
        assert_eq!(e.job.as_deref(), Some("a"));
        assert!(e.to_string().contains("timeout_ms"), "{e}");
        assert!(e.to_string().contains("positive"), "{e}");
    }

    #[test]
    fn negative_retries_are_rejected_not_wrapped() {
        let e = parse_campaign(&minimal(r#", "retries": -1"#, "")).unwrap_err();
        assert_eq!(e.field, "retries");
        assert!(e.msg.contains("non-negative"), "{}", e.msg);
    }

    #[test]
    fn duplicate_job_ids_and_names_are_rejected() {
        let e = parse_campaign(
            r#"{ "jobs": [
                { "name": "a", "argv": ["x"], "id": 7 },
                { "name": "b", "argv": ["x"], "id": 7 } ] }"#,
        )
        .unwrap_err();
        assert_eq!(e.field, "id");
        assert_eq!(e.job.as_deref(), Some("b"));
        assert!(e.msg.contains('7') && e.msg.contains("`a`"), "{}", e.msg);

        let e = parse_campaign(
            r#"{ "jobs": [
                { "name": "a", "argv": ["x"] },
                { "name": "a", "argv": ["y"] } ] }"#,
        )
        .unwrap_err();
        assert_eq!(e.field, "name");
    }

    #[test]
    fn missing_or_empty_argv_is_rejected() {
        let e = parse_campaign(r#"{ "jobs": [ { "name": "a" } ] }"#).unwrap_err();
        assert_eq!(e.field, "argv");
        let e = parse_campaign(r#"{ "jobs": [ { "name": "a", "argv": [] } ] }"#).unwrap_err();
        assert_eq!(e.field, "argv");
        let e = parse_campaign(r#"{ "jobs": [ { "name": "a", "argv": [1] } ] }"#).unwrap_err();
        assert_eq!(e.field, "argv");
    }

    #[test]
    fn unknown_keys_are_rejected_naming_the_key() {
        let e = parse_campaign(&minimal(r#", "timeout": 5"#, "")).unwrap_err();
        assert_eq!((e.job.as_deref(), e.field.as_str()), (Some("a"), "timeout"));
        assert!(e.msg.contains("timeout_ms"), "lists the known fields: {e}");
        let e = parse_campaign(&minimal("", r#", "quota": { "x": 1 }"#)).unwrap_err();
        assert_eq!((e.job.as_deref(), e.field.as_str()), (None, "quota"));
        assert!(e.to_string().contains("campaign field `quota`"), "{e}");
    }

    #[test]
    fn cross_field_requirements() {
        let e = parse_campaign(&minimal(r#", "soft_deadline_ms": 500"#, "")).unwrap_err();
        assert_eq!(e.field, "soft_deadline_ms");
        assert!(e.msg.contains("snapshot_dir"), "{}", e.msg);

        let e = parse_campaign(&minimal(r#", "stall_ms": 500"#, "")).unwrap_err();
        assert_eq!(e.field, "stall_ms");
        assert!(e.msg.contains("heartbeat"), "{}", e.msg);
    }

    #[test]
    fn full_spec_round_trips() {
        let c = parse_campaign(
            r#"{ "seed": 9, "backoff_ms": 25, "stall_ms": 4000, "max_requeues": 3,
                 "jobs": [
                   { "name": "a", "id": 10, "argv": ["dtsvliw_run", "--workload", "gcc"],
                     "timeout_ms": 5000, "retries": 4,
                     "snapshot_dir": "snaps/a", "heartbeat": "hb/a.jsonl",
                     "soft_deadline_ms": 2000, "result": "out/a.json" },
                   { "name": "b", "id": 11, "argv": ["dtsvliw_run", "--workload", "go"],
                     "heartbeat": "hb/b.jsonl", "stall_ms": 900 } ] }"#,
        )
        .unwrap();
        assert_eq!((c.seed, c.backoff_ms, c.max_requeues), (9, 25, 3));
        assert_eq!(c.stall_ms, Some(4000));
        let a = &c.jobs[0];
        assert_eq!((a.id, a.retries, a.soft_deadline_ms), (10, 4, Some(2000)));
        assert_eq!(a.effective_stall_ms(c.stall_ms), Some(4000));
        let b = &c.jobs[1];
        assert_eq!(b.effective_stall_ms(c.stall_ms), Some(900));
    }

    #[test]
    fn stall_default_is_inert_without_heartbeat() {
        let c = parse_campaign(&minimal("", r#", "stall_ms": 1000"#)).unwrap();
        assert_eq!(c.jobs[0].effective_stall_ms(c.stall_ms), None);
    }

    #[test]
    fn non_json_document_is_rejected() {
        let e = parse_campaign("not a spec").unwrap_err();
        assert_eq!(e.field, "(document)");
    }
}
