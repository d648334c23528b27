//! Durability tests: a machine snapshotted mid-run and restored must be
//! indistinguishable from one that never stopped — same instructions,
//! same cycles, same statistics, byte for byte — and corrupt or
//! mismatched snapshot files must be refused with a typed error.

use dtsvliw_core::{config_digest, Machine, MachineConfig, SnapshotError};
use dtsvliw_faults::{FaultPlan, FaultSite};
use dtsvliw_json::{Json, ToJson};
use std::path::PathBuf;

/// The fault-campaign stress kernel (see `tests/faults.rs` for why the
/// two read-modify-write counters matter). Long enough to swap engines
/// many times and to cross snapshot points in both modes.
const STRESS_SRC: &str = "
_start:
    set 0x8000, %o0      ! base
    mov 0, %o5           ! sum
    mov 0, %g4           ! rep
    st %g0, [%o0 + 64]   ! counter = 0
    st %g0, [%o0 + 68]   ! counter2 = 0
rep_loop:
    mov 0, %o1           ! i = 0
loop:
    ld [%o0 + 64], %g2
    add %g2, 1, %g2
    st %g2, [%o0 + 64]   ! counter++
    sll %o1, 2, %o2
    add %o0, %o2, %o3
    add %o1, %g4, %g5
    st %g5, [%o3]        ! a[i] = i + rep
    ld [%o0 + 8], %o4    ! x = a[2]
    add %o5, %o4, %o5    ! sum += x
    ld [%o0 + 68], %g6
    add %g6, 1, %g6
    st %g6, [%o0 + 68]   ! counter2++
    add %o1, 1, %o1
    cmp %o1, 4
    bl loop
    nop
    add %g4, 1, %g4
    cmp %g4, 40
    bl rep_loop
    nop
    ld [%o0 + 64], %g3
    ld [%o0 + 68], %g1
    add %o5, %g3, %o0
    add %o0, %g1, %o0
    ta 0
";

fn stress_image() -> dtsvliw_asm::Image {
    dtsvliw_asm::assemble(STRESS_SRC).expect("stress program assembles")
}

/// A fresh scratch directory under the system temp dir (the workspace
/// has no tempfile dependency).
fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dtsvliw-snapshot-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

fn stats_doc(m: &Machine) -> String {
    m.stats().to_json().to_string()
}

/// Overwrite one member of a parsed JSON object (tamper helper).
fn set_field(doc: &mut Json, key: &str, value: Json) {
    let Json::Obj(pairs) = doc else {
        panic!("not an object");
    };
    let slot = pairs
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing field {key}"));
    slot.1 = value;
}

/// Mutable access to one member of a parsed JSON object.
fn field_mut<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(pairs) = doc else {
        panic!("not an object");
    };
    pairs
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {key}"))
}

/// Snapshot at several interrupt points — early (Primary warming the
/// cache), mid-run (likely inside a VLIW block), late — restore each
/// from disk, and continue both machines to completion: statistics,
/// output and exit must agree byte for byte.
#[test]
fn snapshot_restore_round_trip_is_exact() {
    for (i, interrupt_at) in [120u64, 700, 2300].into_iter().enumerate() {
        let dir = scratch(&format!("roundtrip-{i}"));
        let cfg = MachineConfig::ideal(4, 8);
        let mut original = Machine::new(cfg.clone(), &stress_image());
        original
            .run(interrupt_at)
            .expect("prefix of the run succeeds");
        let path = original.write_snapshot(&dir).expect("snapshot writes");

        let mut restored = Machine::resume_from(cfg.clone(), &path).expect("snapshot restores");
        assert_eq!(
            stats_doc(&original),
            stats_doc(&restored),
            "restored statistics must match at the interrupt point"
        );

        let a = original.run(10_000_000).expect("original completes");
        let b = restored.run(10_000_000).expect("restored completes");
        assert_eq!(a, b, "outcome must match (interrupt at {interrupt_at})");
        assert_eq!(
            stats_doc(&original),
            stats_doc(&restored),
            "final statistics must be byte-identical (interrupt at {interrupt_at})"
        );
        assert_eq!(original.output_string(), restored.output_string());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The kill-safety property end to end, with the fault layer armed so
/// the injector's PRNG position rides along: a run interrupted after
/// its last periodic snapshot (losing the tail, as a real SIGKILL
/// would) and resumed from `latest.json` must finish with statistics
/// byte-identical to a run that was never interrupted.
#[test]
fn interrupted_and_resumed_run_matches_uninterrupted() {
    let dir = scratch("kill-resume");
    let plan = FaultPlan::single(FaultSite::CacheBitFlip, 0.05, 4, 1234);
    let mut cfg = MachineConfig::ideal(4, 8).with_faults(plan);
    cfg.max_cycles = Some(20_000_000);

    let mut uninterrupted = Machine::new(cfg.clone(), &stress_image());
    let want = uninterrupted.run(10_000_000).expect("reference completes");

    // "Kill" a second machine mid-flight: run_with_snapshots stops at
    // the instruction budget and the machine is dropped, abandoning all
    // progress since the last snapshot — exactly what SIGKILL leaves.
    let mut victim = Machine::new(cfg.clone(), &stress_image());
    victim
        .run_with_snapshots(2_500, 500, &dir)
        .expect("prefix completes");
    drop(victim);
    let latest = dir.join("latest.json");
    assert!(latest.exists(), "periodic snapshots must have been written");

    let mut resumed = Machine::resume_from(cfg.clone(), &latest).expect("resume from latest");
    let got = resumed
        .run_with_snapshots(10_000_000, 500, &dir)
        .expect("resumed run completes");

    assert_eq!(want, got, "outcome must survive the kill");
    assert_eq!(
        stats_doc(&uninterrupted),
        stats_doc(&resumed),
        "statistics must be byte-identical to the uninterrupted run"
    );
    assert_eq!(uninterrupted.output_string(), resumed.output_string());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot hygiene for the profiler: profiler state never rides in a
/// snapshot (reset-on-resume), so resuming neither corrupts the exact
/// round trip nor double-counts an execution. A profiled prefix plus a
/// freshly-profiled resumed tail must sum to exactly the execution
/// counts of an uninterrupted profiled run.
#[test]
fn resume_with_profiler_neither_corrupts_nor_double_counts() {
    use dtsvliw_trace::BlockProfiler;

    let dir = scratch("profiler-hygiene");
    let cfg = MachineConfig::ideal(4, 8);

    // Reference: one uninterrupted profiled run.
    let mut whole = Machine::new(cfg.clone(), &stress_image());
    whole.attach_profiler(Box::new(BlockProfiler::new(1)));
    whole.run(10_000_000).expect("uninterrupted run completes");
    let whole_execs: u64 = whole
        .profiler()
        .unwrap()
        .profiles()
        .iter()
        .map(|b| b.executions)
        .sum();
    let whole_vliw = whole.stats().vliw_cycles;
    assert!(whole_execs > 0, "the kernel must enter VLIW mode");

    // Interrupt a profiled run mid-flight and snapshot it.
    let mut original = Machine::new(cfg.clone(), &stress_image());
    original.attach_profiler(Box::new(BlockProfiler::new(1)));
    original.run(700).expect("prefix completes");
    let path = original.write_snapshot(&dir).expect("snapshot writes");
    let prefix_execs: u64 = original
        .profiler()
        .unwrap()
        .profiles()
        .iter()
        .map(|b| b.executions)
        .sum();

    // The restored machine comes back with NO profiler (reset-on-resume)
    // and its statistics still match byte for byte.
    let mut restored = Machine::resume_from(cfg.clone(), &path).expect("snapshot restores");
    assert!(
        restored.profiler().is_none(),
        "profiler state must not survive a snapshot round trip"
    );
    assert_eq!(
        stats_doc(&original),
        stats_doc(&restored),
        "profiling must not perturb the snapshot round trip"
    );

    // Profile the resumed tail with a fresh profiler: prefix + tail
    // must equal the uninterrupted run exactly — nothing lost, nothing
    // counted twice.
    restored.attach_profiler(Box::new(BlockProfiler::new(1)));
    restored.run(10_000_000).expect("resumed run completes");
    let tail_execs: u64 = restored
        .profiler()
        .unwrap()
        .profiles()
        .iter()
        .map(|b| b.executions)
        .sum();
    assert_eq!(
        prefix_execs + tail_execs,
        whole_execs,
        "prefix + resumed-tail executions must equal the uninterrupted count"
    );
    assert_eq!(restored.stats().vliw_cycles, whole_vliw);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every tamper mode gets its own typed rejection: bad JSON, a foreign
/// document, an unknown version, a payload that fails the checksum, and
/// a snapshot taken under a different configuration.
#[test]
fn corrupt_and_mismatched_snapshots_are_refused() {
    let dir = scratch("tamper");
    let cfg = MachineConfig::ideal(4, 8);
    let mut m = Machine::new(cfg.clone(), &stress_image());
    m.run(500).expect("prefix runs");
    let path = m.write_snapshot(&dir).expect("snapshot writes");
    let good = std::fs::read_to_string(&path).expect("snapshot reads");

    let resume = |text: &str| {
        let p = dir.join("tampered.json");
        std::fs::write(&p, text).unwrap();
        Machine::resume_from(cfg.clone(), &p)
    };

    // Truncation (a torn write, were writes not atomic).
    assert!(matches!(
        resume(&good[..good.len() / 2]),
        Err(SnapshotError::Parse(_))
    ));
    // A JSON document that is not a snapshot.
    assert!(matches!(
        resume("{\"cycles\": 7}"),
        Err(SnapshotError::Format(_))
    ));
    // A future format version.
    let mut doc = Json::parse(&good).expect("snapshot parses");
    set_field(&mut doc, "version", Json::U64(999));
    assert!(matches!(
        resume(&doc.to_string()),
        Err(SnapshotError::Version { found: 999 })
    ));
    // A changed payload value: the checksum catches it.
    let mut doc = Json::parse(&good).expect("snapshot parses");
    let payload = field_mut(&mut doc, "payload");
    let cycles = field_mut(payload, "cycles").as_u64().unwrap();
    set_field(payload, "cycles", Json::U64(cycles + 1));
    assert!(matches!(
        resume(&doc.to_string()),
        Err(SnapshotError::Checksum { .. })
    ));
    // The right file under the wrong configuration.
    let other = MachineConfig::ideal(8, 8);
    assert_ne!(config_digest(&cfg), config_digest(&other));
    assert!(matches!(
        Machine::resume_from(other, &path),
        Err(SnapshotError::ConfigMismatch { .. })
    ));
    // And the untouched file still restores.
    assert!(Machine::resume_from(cfg, &path).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Version 3 dropped the oracle's second console buffer (`test.output`).
/// A version-2 file, which still carries it, is refused by its version
/// before anything in its payload is read.
#[test]
fn version_2_snapshots_are_refused() {
    assert_eq!(dtsvliw_core::SNAPSHOT_VERSION, 3);
    let dir = scratch("v2");
    let cfg = MachineConfig::ideal(4, 8);
    let mut m = Machine::new(cfg.clone(), &stress_image());
    m.run(500).expect("prefix runs");
    let path = m.write_snapshot(&dir).expect("snapshot writes");
    let mut doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let test = field_mut(field_mut(&mut doc, "payload"), "test");
    let Json::Obj(pairs) = test else {
        panic!("test is an object");
    };
    assert!(
        pairs.iter().all(|(k, _)| k != "output"),
        "v3 has no test.output"
    );
    pairs.push(("output".to_string(), Json::Str(String::new())));
    set_field(&mut doc, "version", Json::U64(2));
    std::fs::write(&path, doc.to_string()).unwrap();
    let refused = Machine::resume_from(cfg, &path);
    assert!(matches!(refused, Err(SnapshotError::Version { found: 2 })));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Decoded-line hygiene: the pre-decoded execution form is derived
/// state that never rides in snapshots. A machine interrupted after the
/// decode caches are fully warm (and likely mid-block, where
/// `Mode::Vliw` carries a decoded `Arc`) must (a) restore and
/// immediately re-serialise to the *identical bytes* — proving no
/// decoded state leaked into the document — and (b) finish with
/// statistics and output byte-identical to a cold run that was never
/// interrupted, even though the restored machine re-lowers every block
/// lazily on first lookup.
#[test]
fn resume_after_decode_warmup_is_byte_identical_to_a_cold_run() {
    let dir = scratch("decode-warmup");
    let cfg = MachineConfig::ideal(4, 8);

    let mut cold = Machine::new(cfg.clone(), &stress_image());
    let want = cold.run(10_000_000).expect("cold run completes");

    let mut warm = Machine::new(cfg.clone(), &stress_image());
    warm.run(2_300).expect("warmup prefix");
    assert!(
        warm.stats().vliw_cycles > 0,
        "warmup must have executed decoded blocks"
    );
    let path = warm.write_snapshot(&dir).expect("snapshot writes");
    let original_bytes = std::fs::read(&path).expect("snapshot readable");

    let mut restored = Machine::resume_from(cfg, &path).expect("snapshot restores");
    let repath = restored.write_snapshot(&dir).expect("re-snapshot writes");
    assert_eq!(
        original_bytes,
        std::fs::read(&repath).expect("re-snapshot readable"),
        "restore + re-serialise must be byte-identical (decoded state leaked?)"
    );

    let got = restored.run(10_000_000).expect("resumed run completes");
    assert_eq!(want, got, "outcome must match the cold run");
    assert_eq!(
        stats_doc(&cold),
        stats_doc(&restored),
        "final statistics must be byte-identical to the cold run"
    );
    assert_eq!(cold.output_string(), restored.output_string());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The quarantine retention cap: `prune_quarantine` keeps the newest
/// `keep` quarantined snapshots (newest by numeric tag) and deletes the
/// rest, reporting how many it evicted — and leaves `latest.json` and
/// unrelated files alone.
#[test]
fn quarantine_is_capped_to_the_newest_files() {
    use dtsvliw_core::{latest_path, prune_quarantine, quarantine_latest};
    let dir = scratch("quarantine-cap");

    // Nothing to prune in an empty or under-cap directory.
    assert_eq!(prune_quarantine(&dir, 3).expect("prune empty"), 0);

    // Quarantine twelve corrupt "snapshots" with monotonic tags, the
    // way the supervisor tags them.
    for tag in 0..12u64 {
        std::fs::write(latest_path(&dir), format!("corrupt {tag}")).unwrap();
        quarantine_latest(&dir, tag).expect("quarantine").unwrap();
    }
    std::fs::write(latest_path(&dir), "the good one").unwrap();
    std::fs::write(dir.join("unrelated.txt"), "keep me").unwrap();

    assert_eq!(prune_quarantine(&dir, 3).expect("prune"), 9);

    // The three newest tags survive, the rest are gone.
    for tag in 9..12u64 {
        assert!(dir.join(format!("latest.json.quarantined-{tag}")).exists());
    }
    for tag in 0..9u64 {
        assert!(!dir.join(format!("latest.json.quarantined-{tag}")).exists());
    }
    assert_eq!(
        std::fs::read_to_string(latest_path(&dir)).unwrap(),
        "the good one",
        "the live snapshot must never be pruned"
    );
    assert!(dir.join("unrelated.txt").exists());

    // Idempotent once under the cap.
    assert_eq!(prune_quarantine(&dir, 3).expect("re-prune"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Periodic snapshots ride the burst loop: a snapshotting run of every
/// Table 2 workload takes bursts, finishes with the same `RunStats` as
/// a plain `run`, and leaves a final `latest.json` whose FNV-1a digest
/// is pinned (snapshots land at the same cycles, with the same state).
/// The pins are of format version 3; each v3 payload is its v2 payload
/// without `test.output`.
#[test]
fn snapshotting_runs_burst_and_match_plain_runs() {
    use dtsvliw_workloads::{by_name, Scale};
    const PINNED: [(&str, u64); 8] = [
        ("compress", 0xbcdfb87e802301a5),
        ("gcc", 0xfc51a67254143dd3),
        ("go", 0x08193a7e86b04156),
        ("ijpeg", 0xfc52d1e22d7525fa),
        ("m88ksim", 0x53d0a35fcc8dd5e5),
        ("perl", 0x824a9243e7dd6007),
        ("vortex", 0x4313459c246f50e4),
        ("xlisp", 0x306da878ad6bc432),
    ];
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    };
    for (name, want) in PINNED {
        let dir = scratch(&format!("burst-{name}"));
        let image = by_name(name, Scale::Test).expect("known workload").image();
        let cfg = MachineConfig::feasible_paper();
        let mut plain = Machine::new(cfg.clone(), &image);
        let a = plain.run(40_000).expect("plain run completes");
        let mut snapped = Machine::new(cfg, &image);
        let b = snapped
            .run_with_snapshots(40_000, 3_000, &dir)
            .expect("snapshotting run completes");
        assert!(
            snapped.fast_path_stats().0 > 0,
            "{name}: snapshotting run never burst"
        );
        assert_eq!(a, b, "{name}: outcome differs");
        assert_eq!(
            stats_doc(&plain),
            stats_doc(&snapped),
            "{name}: stats differ"
        );
        let latest = std::fs::read(dir.join("latest.json")).expect("final snapshot");
        assert_eq!(fnv1a(&latest), want, "{name}: final snapshot differs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Mid-block Scheduler Unit state survives a snapshot exactly under the
/// benchmark's thrash geometry (the feasible machine with a 3 KB
/// direct-mapped VLIW Cache, so blocks are rebuilt all the time). The
/// run is interrupted every 997 instructions; at the first four points
/// where the scheduling list holds a pending candidate, the snapshot is
/// restored, must re-serialise to the same bytes, and the resumed run
/// must finish byte-identical to the uninterrupted one.
#[test]
fn thrash_geometry_resumes_byte_identical_at_every_interrupt_point() {
    use dtsvliw_vliw::VliwCacheConfig;
    use dtsvliw_workloads::{by_name, Scale};
    let image = by_name("gcc", Scale::Test).expect("known workload").image();
    let mut cfg = MachineConfig::feasible_paper();
    let v = cfg.vliw_cache;
    cfg.vliw_cache = VliwCacheConfig::kb(3, 1, v.width, v.height);

    let mut uninterrupted = Machine::new(cfg.clone(), &image);
    let want = uninterrupted.run(u64::MAX).expect("reference completes");
    let pending = |doc: &Json| {
        doc.get("payload")
            .and_then(|p| p.get("sched"))
            .and_then(|s| s.get("elems"))
            .and_then(Json::as_arr)
            .expect("scheduling list in the snapshot")
            .iter()
            .any(|e| !matches!(e.get("candidate"), Some(Json::Null)))
    };

    let mut walker = Machine::new(cfg.clone(), &image);
    let mut resumed_runs = 0;
    let mut interrupt_at = 0;
    while resumed_runs < 4 && interrupt_at < want.instructions {
        interrupt_at += 997;
        walker.run(interrupt_at).expect("prefix completes");
        if !pending(&walker.snapshot_json()) {
            continue;
        }
        let dir = scratch(&format!("thrash-{resumed_runs}"));
        let path = walker.write_snapshot(&dir).expect("snapshot writes");
        let bytes = std::fs::read_to_string(&path).expect("snapshot reads");
        let mut resumed = Machine::resume_from(cfg.clone(), &path).expect("snapshot restores");
        assert_eq!(
            resumed.snapshot_json().to_string(),
            bytes,
            "restore must be byte-exact (interrupt at {interrupt_at})"
        );
        let got = resumed.run(u64::MAX).expect("resumed run completes");
        assert_eq!(want, got, "outcome differs (interrupt at {interrupt_at})");
        assert_eq!(
            stats_doc(&uninterrupted),
            stats_doc(&resumed),
            "final statistics differ (interrupt at {interrupt_at})"
        );
        assert_eq!(uninterrupted.output_string(), resumed.output_string());
        let _ = std::fs::remove_dir_all(&dir);
        resumed_runs += 1;
    }
    assert_eq!(
        resumed_runs, 4,
        "too few interrupt points caught a pending candidate"
    );
}
