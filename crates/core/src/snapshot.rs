//! Durable machine snapshots: versioned, checksummed serialisation of
//! the complete DTSVLIW state — architectural registers, both memories,
//! the Scheduler Unit's in-flight block, the VLIW Cache's resident
//! blocks (nba stores, branch tags, order/cross bits and all), the VLIW
//! Engine's rename banks and checkpoint, cache tag arrays, the fault
//! injector's PRNG position and the circuit-breaker window — so a run
//! killed at any instant can resume from its last snapshot and retire
//! the exact same instructions in the exact same cycles.
//!
//! File format: a JSON object
//!
//! ```text
//! { "format": "dtsvliw-snapshot", "version": 3,
//!   "config_digest": <fnv1a of the MachineConfig>,
//!   "checksum": <fnv1a of the rendered payload>,
//!   "payload": { ... } }
//! ```
//!
//! Readers reject unknown versions, payloads that fail the checksum,
//! and snapshots taken under a different machine configuration, so a
//! half-written or bit-rotted file can never silently resurrect a wrong
//! machine. Writes go through a temp file plus `rename`, which is
//! atomic on POSIX: `latest.json` always holds either the previous or
//! the new snapshot, never a torn one.

use crate::config::MachineConfig;
use crate::machine::{Machine, Mode};
use dtsvliw_faults::{FaultInjector, FaultStats};
use dtsvliw_json::{fnv1a, Json, ToJson};
use dtsvliw_mem::{Cache, Memory};
use dtsvliw_primary::{PipelineModel, RefMachine};
use dtsvliw_sched::snapshot::{
    arch_state_from_json, arch_state_to_json, block_from_json, block_to_json, reslist_from_json,
    reslist_to_json,
};
use dtsvliw_sched::Scheduler;
use dtsvliw_trace::{Metrics, Telemetry};
use dtsvliw_vliw::{VliwCache, VliwEngine};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot file format marker.
pub const SNAPSHOT_FORMAT: &str = "dtsvliw-snapshot";
/// Snapshot format version this build writes and reads. Version 2
/// added the `overhead` sub-counter object to the payload; version 3
/// dropped the oracle's second console buffer, `test.output`.
pub const SNAPSHOT_VERSION: u64 = 3;

/// Why a snapshot could not be written, read or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not JSON at all.
    Parse(String),
    /// The document is JSON but not a snapshot (wrong `format` marker,
    /// missing header field).
    Format(String),
    /// A format version this build does not read.
    Version {
        /// The version recorded in the file.
        found: u64,
    },
    /// The payload does not hash to the recorded checksum: the file was
    /// truncated or corrupted after it was written.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        found: u64,
    },
    /// The snapshot was taken under a different machine configuration;
    /// resuming it would silently change the experiment.
    ConfigMismatch {
        /// Digest of the configuration the caller wants to resume with.
        expected: u64,
        /// Digest recorded in the snapshot.
        found: u64,
    },
    /// The payload passed the checksum but its content is structurally
    /// wrong (a field missing or of the wrong shape).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o: {e}"),
            SnapshotError::Parse(e) => write!(f, "not JSON: {e}"),
            SnapshotError::Format(e) => write!(f, "not a snapshot: {e}"),
            SnapshotError::Version { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (want {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Checksum { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: recorded {expected:#x}, payload hashes to {found:#x}"
                )
            }
            SnapshotError::ConfigMismatch { expected, found } => {
                write!(
                    f,
                    "configuration mismatch: snapshot taken under config {found:#x}, \
                     resuming with {expected:#x}"
                )
            }
            SnapshotError::Corrupt(e) => write!(f, "corrupt payload: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Digest of a machine configuration, stamped into every snapshot so a
/// resume under different parameters is refused rather than silently
/// producing a differently-timed run.
pub fn config_digest(cfg: &MachineConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// The canonical durable-snapshot path inside a snapshot directory:
/// `dir/latest.json`, the file [`Machine::write_snapshot`] maintains
/// and `--resume` reads. Campaign supervisors treat this file as the
/// checkpoint-and-requeue entry point: because the periodic snapshot
/// *is* the checkpoint, rebalancing a long shard is just "kill the
/// child, requeue the remainder against this path".
pub fn latest_path(dir: &Path) -> PathBuf {
    dir.join("latest.json")
}

/// Quarantine a damaged `latest.json` instead of deleting it: the file
/// is renamed to `latest.json.quarantined-<tag>` so the evidence
/// survives for post-mortems while the next resume attempt starts
/// fresh. The rename is confined to `dir`, so sibling jobs keeping
/// their snapshots under neighbouring directories are untouched.
/// Returns the quarantine path when a file was actually moved,
/// `Ok(None)` when there was nothing to quarantine.
pub fn quarantine_latest(dir: &Path, tag: u64) -> std::io::Result<Option<PathBuf>> {
    let src = latest_path(dir);
    if !src.exists() {
        return Ok(None);
    }
    let dest = dir.join(format!("latest.json.quarantined-{tag}"));
    std::fs::rename(&src, &dest)?;
    Ok(Some(dest))
}

/// Cap the quarantine: keep the `keep` newest
/// `latest.json.quarantined-<tag>` files in `dir` (newest by numeric
/// tag, which [`quarantine_latest`] callers make monotonic; ties and
/// non-numeric tags fall back to name order) and delete the rest. The
/// forensic value of a corrupt snapshot decays fast, and a long chaos
/// storm must not fill the disk with them. Returns how many files were
/// evicted.
pub fn prune_quarantine(dir: &Path, keep: usize) -> std::io::Result<u64> {
    let mut entries: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(tag) = name
            .to_str()
            .and_then(|n| n.strip_prefix("latest.json.quarantined-"))
        else {
            continue;
        };
        entries.push((tag.parse().unwrap_or(0), entry.path()));
    }
    if entries.len() <= keep {
        return Ok(0);
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let evict = entries.len() - keep;
    let mut evicted = 0u64;
    for (_, path) in entries.into_iter().take(evict) {
        std::fs::remove_file(&path)?;
        evicted += 1;
    }
    Ok(evicted)
}

fn bytes_to_hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn hex_to_bytes(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) || !s.is_ascii() {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

fn opt_u32_json(v: Option<u32>) -> Json {
    match v {
        Some(n) => Json::U64(n as u64),
        None => Json::Null,
    }
}

/// Parse and verify a snapshot document: format marker, version,
/// payload checksum and (when `expect_digest` is given) configuration
/// digest. Returns the verified payload.
pub fn verify_document(text: &str, expect_digest: Option<u64>) -> Result<Json, SnapshotError> {
    let doc = Json::parse(text).map_err(|e| SnapshotError::Parse(format!("{e:?}")))?;
    match doc.get("format").and_then(Json::as_str) {
        Some(SNAPSHOT_FORMAT) => {}
        _ => {
            return Err(SnapshotError::Format(format!(
                "missing \"format\": \"{SNAPSHOT_FORMAT}\" marker"
            )))
        }
    }
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| SnapshotError::Format("missing version".into()))?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Version { found: version });
    }
    let expected = doc
        .get("checksum")
        .and_then(Json::as_u64)
        .ok_or_else(|| SnapshotError::Format("missing checksum".into()))?;
    let payload = doc
        .get("payload")
        .ok_or_else(|| SnapshotError::Format("missing payload".into()))?;
    let found = fnv1a(payload.to_string().as_bytes());
    if found != expected {
        return Err(SnapshotError::Checksum { expected, found });
    }
    if let Some(want) = expect_digest {
        let got = doc
            .get("config_digest")
            .and_then(Json::as_u64)
            .ok_or_else(|| SnapshotError::Format("missing config_digest".into()))?;
        if got != want {
            return Err(SnapshotError::ConfigMismatch {
                expected: want,
                found: got,
            });
        }
    }
    Ok(payload.clone())
}

impl Machine {
    /// The complete machine state as a versioned, checksummed snapshot
    /// document (see the module docs for the envelope format).
    pub fn snapshot_json(&self) -> Json {
        let payload = self.payload_json();
        let checksum = fnv1a(payload.to_string().as_bytes());
        Json::obj([
            ("format", Json::Str(SNAPSHOT_FORMAT.into())),
            ("version", Json::U64(SNAPSHOT_VERSION)),
            ("config_digest", Json::U64(config_digest(&self.cfg))),
            ("checksum", Json::U64(checksum)),
            ("payload", payload),
        ])
    }

    /// Write a snapshot to `dir/latest.json`, atomically: the document
    /// goes to a temp file in the same directory first and is `rename`d
    /// over the destination, so a kill mid-write leaves the previous
    /// `latest.json` intact. Returns the destination path.
    pub fn write_snapshot(&self, dir: &Path) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join("latest.json.tmp");
        let dest = dir.join("latest.json");
        std::fs::write(&tmp, self.snapshot_json().to_string())?;
        std::fs::rename(&tmp, &dest)?;
        Ok(dest)
    }

    /// Read, verify and restore a machine from a snapshot file written
    /// under the same `cfg`. The program image is not needed: both
    /// memories travel inside the snapshot.
    pub fn resume_from(cfg: MachineConfig, path: &Path) -> Result<Machine, SnapshotError> {
        let text = std::fs::read_to_string(path)?;
        let payload = verify_document(&text, Some(config_digest(&cfg)))?;
        Machine::from_payload(cfg, &payload)
    }

    fn payload_json(&self) -> Json {
        let mode = match &self.mode {
            Mode::Primary => Json::obj([("engine", Json::Str("primary".into()))]),
            // The decoded form is derived state: never serialised, and
            // rebuilt from the block on restore (so a resumed run is
            // byte-identical to a cold one by construction).
            Mode::Vliw {
                block, li, base, ..
            } => Json::obj([
                ("engine", Json::Str("vliw".into())),
                ("block", block_to_json(block)),
                ("li", Json::U64(*li as u64)),
                ("base", Json::U64(*base)),
            ]),
        };
        Json::obj([
            ("state", arch_state_to_json(&self.state)),
            ("mem", self.mem.snapshot_json()),
            ("sched", self.sched.snapshot_json()),
            ("vcache", self.vcache.snapshot_json()),
            ("engine", self.engine.snapshot_json()),
            ("icache", self.icache.snapshot_json()),
            ("dcache", self.dcache.snapshot_json()),
            (
                "pipeline_last_load",
                match self.pipeline.last_load_writes() {
                    Some(l) => reslist_to_json(&l),
                    None => Json::Null,
                },
            ),
            (
                "test",
                Json::obj([
                    ("state", arch_state_to_json(&self.test.state)),
                    ("mem", self.test.mem.snapshot_json()),
                    ("retired", Json::U64(self.test.retired)),
                ]),
            ),
            ("mode", mode),
            ("cycles", Json::U64(self.cycles)),
            ("vliw_cycles", Json::U64(self.vliw_cycles)),
            ("primary_cycles", Json::U64(self.primary_cycles)),
            ("overhead_cycles", Json::U64(self.overhead_cycles)),
            (
                "overhead",
                Json::obj([
                    ("swap", Json::U64(self.overhead_swap)),
                    ("mispredict", Json::U64(self.overhead_mispredict)),
                    ("next_li", Json::U64(self.overhead_next_li)),
                    ("recovery", Json::U64(self.overhead_recovery)),
                ]),
            ),
            ("mode_swaps", Json::U64(self.mode_swaps)),
            ("output", Json::Str(bytes_to_hex(&self.output))),
            ("halted", opt_u32_json(self.halted)),
            ("exception_mode", Json::Bool(self.exception_mode)),
            ("reject_delay_slot", Json::Bool(self.reject_delay_slot)),
            (
                "nbp",
                Json::Arr(
                    self.nbp
                        .iter()
                        .map(|&(from, to)| {
                            Json::arr([Json::U64(from as u64), Json::U64(to as u64)])
                        })
                        .collect(),
                ),
            ),
            ("nbp_hits", Json::U64(self.nbp_hits)),
            ("metrics", self.metrics.to_json()),
            ("last_swap_cycle", Json::U64(self.last_swap_cycle)),
            ("inject_divergence", Json::Bool(self.inject_divergence)),
            (
                "injector",
                match &self.injector {
                    Some(i) => i.snapshot_json(),
                    None => Json::Null,
                },
            ),
            ("faults", self.faults.to_json()),
            (
                "quarantine",
                Json::Arr(
                    self.quarantine
                        .iter()
                        .map(|&(tag, cwp, until)| {
                            Json::arr([
                                Json::U64(tag as u64),
                                Json::U64(cwp as u64),
                                Json::U64(until),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("test_halt", opt_u32_json(self.test_halt)),
            ("seen_alias_fires", Json::U64(self.seen_alias_fires)),
            ("seen_truncate_fires", Json::U64(self.seen_truncate_fires)),
            (
                "breaker",
                Json::obj([
                    (
                        "events",
                        Json::Arr(self.breaker_events.iter().map(|&t| Json::U64(t)).collect()),
                    ),
                    ("degraded_until", Json::U64(self.degraded_until)),
                    ("degraded_entered", Json::U64(self.degraded_entered)),
                    ("entries", Json::U64(self.degraded_entries)),
                    ("cycles", Json::U64(self.degraded_cycles)),
                ]),
            ),
        ])
    }

    fn from_payload(cfg: MachineConfig, p: &Json) -> Result<Machine, SnapshotError> {
        fn miss(what: &str) -> SnapshotError {
            SnapshotError::Corrupt(format!("bad or missing {what}"))
        }
        let u = |key: &str| p.get(key).and_then(Json::as_u64).ok_or_else(|| miss(key));
        let flag = |key: &str| p.get(key).and_then(Json::as_bool).ok_or_else(|| miss(key));
        let opt_u32 = |key: &str| -> Result<Option<u32>, SnapshotError> {
            match p.get(key).ok_or_else(|| miss(key))? {
                Json::Null => Ok(None),
                j => j
                    .as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .map(Some)
                    .ok_or_else(|| miss(key)),
            }
        };

        let state = p
            .get("state")
            .and_then(arch_state_from_json)
            .ok_or_else(|| miss("state"))?;
        let mem = p
            .get("mem")
            .and_then(Memory::from_snapshot_json)
            .ok_or_else(|| miss("mem"))?;
        let sched = p
            .get("sched")
            .and_then(|j| Scheduler::from_snapshot_json(cfg.sched.clone(), j))
            .ok_or_else(|| miss("sched"))?;
        let vcache = p
            .get("vcache")
            .and_then(|j| VliwCache::from_snapshot_json(cfg.vliw_cache, j))
            .ok_or_else(|| miss("vcache"))?;
        let engine = p
            .get("engine")
            .and_then(|j| VliwEngine::from_snapshot_json(cfg.store_scheme, j))
            .ok_or_else(|| miss("engine"))?;
        let icache = p
            .get("icache")
            .and_then(|j| Cache::from_snapshot_json(cfg.icache, j))
            .ok_or_else(|| miss("icache"))?;
        let dcache = p
            .get("dcache")
            .and_then(|j| Cache::from_snapshot_json(cfg.dcache, j))
            .ok_or_else(|| miss("dcache"))?;
        let mut pipeline = PipelineModel::new(cfg.primary);
        pipeline.set_last_load_writes(
            match p
                .get("pipeline_last_load")
                .ok_or_else(|| miss("pipeline_last_load"))?
            {
                Json::Null => None,
                j => Some(reslist_from_json(j).ok_or_else(|| miss("pipeline_last_load"))?),
            },
        );

        let t = p.get("test").ok_or_else(|| miss("test"))?;
        let test = RefMachine {
            state: t
                .get("state")
                .and_then(arch_state_from_json)
                .ok_or_else(|| miss("test state"))?,
            mem: t
                .get("mem")
                .and_then(Memory::from_snapshot_json)
                .ok_or_else(|| miss("test mem"))?,
            retired: t
                .get("retired")
                .and_then(Json::as_u64)
                .ok_or_else(|| miss("test retired"))?,
            // The machine keeps one console: `output` below.
            output: Vec::new(),
        };

        let mj = p.get("mode").ok_or_else(|| miss("mode"))?;
        let mode = match mj.get("engine").and_then(Json::as_str) {
            Some("primary") => Mode::Primary,
            Some("vliw") => {
                let block = Arc::new(
                    mj.get("block")
                        .and_then(block_from_json)
                        .ok_or_else(|| miss("mode block"))?,
                );
                // Re-lower the in-flight block: decoded state never
                // rides in snapshots.
                let decoded = Arc::new(dtsvliw_vliw::decode_block(&block));
                Mode::Vliw {
                    block,
                    decoded,
                    li: mj
                        .get("li")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| miss("mode li"))? as usize,
                    base: mj
                        .get("base")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| miss("mode base"))?,
                }
            }
            _ => return Err(miss("mode engine")),
        };

        let nbp = p
            .get("nbp")
            .and_then(Json::as_arr)
            .ok_or_else(|| miss("nbp"))?
            .iter()
            .map(|e| {
                let pair = e.as_arr()?;
                if pair.len() != 2 {
                    return None;
                }
                Some((
                    u32::try_from(pair[0].as_u64()?).ok()?,
                    u32::try_from(pair[1].as_u64()?).ok()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| miss("nbp"))?;

        let metrics = p
            .get("metrics")
            .and_then(Metrics::from_json)
            .ok_or_else(|| miss("metrics"))?;

        let injector = match p.get("injector").ok_or_else(|| miss("injector"))? {
            Json::Null => None,
            j => {
                let mut inj = cfg
                    .fault_plan
                    .as_ref()
                    .map(FaultInjector::new)
                    .ok_or_else(|| miss("injector (configuration has no fault plan)"))?;
                inj.restore_snapshot(j).ok_or_else(|| miss("injector"))?;
                Some(inj)
            }
        };

        let faults = p
            .get("faults")
            .and_then(FaultStats::from_json)
            .ok_or_else(|| miss("faults"))?;

        let quarantine = p
            .get("quarantine")
            .and_then(Json::as_arr)
            .ok_or_else(|| miss("quarantine"))?
            .iter()
            .map(|e| {
                let triple = e.as_arr()?;
                if triple.len() != 3 {
                    return None;
                }
                Some((
                    u32::try_from(triple[0].as_u64()?).ok()?,
                    u8::try_from(triple[1].as_u64()?).ok()?,
                    triple[2].as_u64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| miss("quarantine"))?;

        let oj = p.get("overhead").ok_or_else(|| miss("overhead"))?;
        let o_u = |key: &str| {
            oj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| miss("overhead sub-counter"))
        };

        let bj = p.get("breaker").ok_or_else(|| miss("breaker"))?;
        let breaker_events = bj
            .get("events")
            .and_then(Json::as_arr)
            .ok_or_else(|| miss("breaker events"))?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| miss("breaker events"))?;
        let b_u = |key: &str| bj.get(key).and_then(Json::as_u64).ok_or_else(|| miss(key));

        Ok(Machine {
            state,
            mem,
            sched,
            vcache,
            engine,
            icache,
            dcache,
            pipeline,
            test,
            mode,
            cycles: u("cycles")?,
            vliw_cycles: u("vliw_cycles")?,
            primary_cycles: u("primary_cycles")?,
            overhead_cycles: u("overhead_cycles")?,
            overhead_swap: o_u("swap")?,
            overhead_mispredict: o_u("mispredict")?,
            overhead_next_li: o_u("next_li")?,
            overhead_recovery: o_u("recovery")?,
            mode_swaps: u("mode_swaps")?,
            output: p
                .get("output")
                .and_then(Json::as_str)
                .and_then(hex_to_bytes)
                .ok_or_else(|| miss("output"))?,
            halted: opt_u32("halted")?,
            exception_mode: flag("exception_mode")?,
            reject_delay_slot: flag("reject_delay_slot")?,
            nbp,
            nbp_hits: u("nbp_hits")?,
            metrics,
            last_swap_cycle: u("last_swap_cycle")?,
            tracer: None,
            inject_divergence: flag("inject_divergence")?,
            injector,
            faults,
            quarantine,
            test_halt: opt_u32("test_halt")?,
            seen_alias_fires: u("seen_alias_fires")?,
            seen_truncate_fires: u("seen_truncate_fires")?,
            breaker_events,
            degraded_until: b_u("degraded_until")?,
            degraded_entered: b_u("degraded_entered")?,
            degraded_entries: b_u("entries")?,
            degraded_cycles: b_u("cycles")?,
            // Host-side telemetry and the profiler are reset-on-resume:
            // a resumed run can never double-count a burst or a block
            // execution.
            telemetry: Telemetry::new(),
            profiler: None,
            heartbeat: None,
            hb_next: u64::MAX,
            dcache_scratch: Vec::new(),
            install_hashes: None,
            cfg,
        })
    }
}
