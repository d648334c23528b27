//! The chaos harness: the supervisor attacks its own campaign.
//!
//! With `--chaos SEED`, a dedicated thread draws seeded strikes against
//! the running campaign:
//!
//! * **kill** — SIGKILL a random worker's child, exactly like an OOM
//!   kill or a node loss;
//! * **freeze** — SIGSTOP a child for a few hundred milliseconds (with
//!   a guaranteed SIGCONT), so its heartbeat file stops advancing: a
//!   long freeze must trip the stall detector, a short one must be
//!   invisible;
//! * **corrupt** — truncate or garble a job's `latest.json` snapshot so
//!   the next resume fails with exit 4 and exercises the quarantine;
//! * **tear** — splice a partial, newline-less record into a heartbeat
//!   file, the shape a mid-write kill leaves behind.
//!
//! Only a strike that acted is recorded, as a `chaos_strike` span: the
//! wall-clock ledger and `/metrics` count strikes from the span log.
//! The engine marks every strike against the job it hit; outcomes the
//! chaos itself caused are *forgiven* (they consume no retry budget, up
//! to a hard cap), which is what makes the merged report of a chaos run
//! byte-identical to an undisturbed one: graceful degradation proven by
//! `cmp`, not claimed.

use dtsvliw_faults::Rng64;
use std::path::Path;

/// Per-job ceiling on forgiven (chaos- or corruption-caused) attempt
/// failures, so a pathological storm degrades into ordinary retry
/// accounting instead of a livelock.
pub const FORGIVENESS_CAP: u64 = 64;

/// One strike, drawn by [`ChaosEngine::draw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// SIGKILL a running child.
    Kill,
    /// SIGSTOP a running child for this many milliseconds.
    Freeze(u64),
    /// Damage a job's `latest.json`.
    CorruptSnapshot,
    /// Append a torn partial record to a heartbeat file.
    TearHeartbeat,
}

/// The seeded strike generator.
pub struct ChaosEngine {
    rng: Rng64,
}

impl ChaosEngine {
    pub fn new(seed: u64) -> Self {
        ChaosEngine {
            rng: Rng64::new(seed ^ 0xc4a0_5bad_c4a0_5bad),
        }
    }

    /// Roll for a strike on this tick: on average one strike every
    /// `period_ticks` calls. The freeze duration straddles typical
    /// stall thresholds so both harmless and stall-tripping freezes
    /// occur.
    pub fn draw(&mut self, period_ticks: u64) -> Option<ChaosAction> {
        if self.rng.below(period_ticks.max(1)) != 0 {
            return None;
        }
        Some(match self.rng.below(4) {
            0 => ChaosAction::Kill,
            1 => ChaosAction::Freeze(200 + self.rng.below(1600)),
            2 => ChaosAction::CorruptSnapshot,
            _ => ChaosAction::TearHeartbeat,
        })
    }

    /// Pick a victim index in `[0, n)`.
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    /// Damage a snapshot file in place: either truncate it mid-document
    /// or garble bytes in its middle. Both shapes must be caught by the
    /// snapshot checksum and refused with exit 4. Returns `false` when
    /// there was nothing to damage.
    pub fn corrupt_file(&mut self, path: &Path) -> bool {
        let Ok(mut bytes) = std::fs::read(path) else {
            return false;
        };
        if bytes.len() < 16 {
            return false;
        }
        if self.rng.below(2) == 0 {
            bytes.truncate(bytes.len() / 2);
        } else {
            let mid = bytes.len() / 2;
            let end = (mid + 8).min(bytes.len());
            for b in &mut bytes[mid..end] {
                *b = b'#';
            }
        }
        std::fs::write(path, &bytes).is_ok()
    }

    /// Splice a torn, newline-less partial record onto a heartbeat
    /// file — the exact shape a SIGKILL mid-write leaves. The tailer
    /// must skip it (heartbeat.rs).
    pub fn tear_heartbeat(&self, path: &Path) -> bool {
        use std::io::Write;
        let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(path) else {
            return false;
        };
        f.write_all(b"{\"seq\": 999999, \"cyc").is_ok()
    }
}

/// Send a signal by name (`KILL`, `STOP`, `CONT`) to a process. Uses
/// the system `kill` utility so the workspace stays libc-free; a dead
/// pid is a quiet no-op, exactly what a racing chaos strike wants.
pub fn send_signal(pid: u32, sig: &str) -> bool {
    std::process::Command::new("kill")
        .arg(format!("-{sig}"))
        .arg(pid.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::heartbeat::{HeartbeatTail, Progress};

    #[test]
    fn draws_are_seed_deterministic() {
        let seq = |seed| {
            let mut e = ChaosEngine::new(seed);
            (0..256).map(|_| e.draw(4)).collect::<Vec<_>>()
        };
        assert_eq!(seq(1), seq(1));
        assert_ne!(seq(1), seq(2));
    }

    #[test]
    fn every_action_kind_eventually_fires() {
        let mut e = ChaosEngine::new(3);
        let mut kinds = [false; 4];
        for _ in 0..4096 {
            match e.draw(2) {
                Some(ChaosAction::Kill) => kinds[0] = true,
                Some(ChaosAction::Freeze(ms)) => {
                    assert!((200..1800).contains(&ms));
                    kinds[1] = true;
                }
                Some(ChaosAction::CorruptSnapshot) => kinds[2] = true,
                Some(ChaosAction::TearHeartbeat) => kinds[3] = true,
                None => {}
            }
        }
        assert_eq!(kinds, [true; 4]);
    }

    #[test]
    fn corrupt_file_damages_but_never_deletes() {
        let dir = std::env::temp_dir().join(format!("dtsvliw-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("latest.json");
        let original = vec![b'x'; 4096];
        let mut e = ChaosEngine::new(5);
        for _ in 0..8 {
            std::fs::write(&path, &original).unwrap();
            assert!(e.corrupt_file(&path));
            let after = std::fs::read(&path).unwrap();
            assert!(path.exists());
            assert_ne!(after, original, "corruption must change the bytes");
        }
        assert!(!e.corrupt_file(&dir.join("missing.json")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_heartbeat_is_skipped_by_the_tailer() {
        let dir = std::env::temp_dir().join(format!("dtsvliw-tear-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        std::fs::write(&path, "{\"cycle\": 10, \"instructions\": 20}\n").unwrap();
        assert!(ChaosEngine::new(7).tear_heartbeat(&path));
        // The flush the engine runs once the child is dead credits the
        // one whole record and counts the splice as a torn tail.
        let read = HeartbeatTail::new(path).finish();
        assert_eq!(
            read.progress,
            Some(Progress {
                cycle: 10,
                instructions: 20,
                bursts: 0
            })
        );
        assert_eq!(read.truncated, 1, "torn splice must not add a record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn signalling_a_dead_pid_is_a_quiet_noop() {
        // PID 4194304 is above the default pid_max; `kill` fails
        // without side effects.
        assert!(!send_signal(4_194_304, "KILL"));
    }
}
