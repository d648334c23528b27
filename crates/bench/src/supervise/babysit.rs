//! The one child babysitter and the one kill policy.
//!
//! Engine local slots and `dtsvliw_worker` leases both run their child
//! through a [`Babysitter`]. Every attempt, local or leased, is judged
//! by one [`KillPolicy`]; the worker applies it with only the hard
//! timeout known, as a backstop behind the coordinator's decision.

use super::heartbeat::{HeartbeatTail, TailRead};
use super::outcome::{classify, KillReason, Outcome};
use super::resolve_program;
use super::spec::{CampaignSpec, JobSpec};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The deadlines one attempt runs under.
#[derive(Default)]
pub struct KillPolicy {
    /// The hard wall-clock limit.
    pub timeout: Duration,
    /// Heartbeat staleness that marks the child wedged.
    pub stall: Option<Duration>,
    /// The soft deadline past which a healthy job is checkpointed and
    /// requeued.
    pub soft: Option<Duration>,
    /// The job's `latest.json` while it has requeue budget left: the
    /// soft deadline fires only once this checkpoint is on disk.
    pub checkpoint: Option<PathBuf>,
}

impl KillPolicy {
    /// The full policy for an attempt of `job`, requeued `requeues`
    /// times so far.
    pub fn for_job(spec: &CampaignSpec, job: &JobSpec, requeues: u64) -> Self {
        KillPolicy {
            timeout: Duration::from_millis(job.timeout_ms),
            stall: job
                .effective_stall_ms(spec.stall_ms)
                .map(Duration::from_millis),
            soft: job.soft_deadline_ms.map(Duration::from_millis),
            checkpoint: job
                .snapshot_dir
                .as_deref()
                .filter(|_| requeues < spec.max_requeues)
                .map(dtsvliw_core::latest_path),
        }
    }

    /// The worker's backstop: a lease carries only the hard timeout.
    pub fn timeout_only(timeout: Duration) -> Self {
        KillPolicy {
            timeout,
            ..KillPolicy::default()
        }
    }

    /// Whether to kill an attempt `elapsed` into its run whose
    /// heartbeat last moved `quiet` ago, and why. Precedence: timeout,
    /// then stall, then soft-deadline requeue.
    pub fn decide(&self, elapsed: Duration, quiet: Duration) -> Option<KillReason> {
        if elapsed >= self.timeout {
            Some(KillReason::Timeout)
        } else if self.stall.is_some_and(|s| quiet >= s) {
            Some(KillReason::Stalled)
        } else if self.soft.is_some_and(|s| elapsed >= s)
            && self.checkpoint.as_ref().is_some_and(|p| p.exists())
        {
            // Checkpoint-and-requeue: the periodic snapshot IS the
            // checkpoint, so rebalancing the remainder is a kill +
            // requeue against latest.json.
            Some(KillReason::Requeue)
        } else {
            None
        }
    }
}

/// One child process under watch. Dropping it kills and reaps a child
/// that is still running: no child outlives its attempt.
pub struct Babysitter {
    child: Child,
    /// The instant just before the spawn.
    pub started: Instant,
    tail: Option<HeartbeatTail>,
    killed: Option<KillReason>,
}

impl Babysitter {
    /// Resolve `argv[0]` (see [`resolve_program`]) and spawn it in `cwd`
    /// (the caller's own when `None`) with `--resume <resume>` appended
    /// when set, discarding its stdout when `mute`, tailing `heartbeat`
    /// when set. A spawn failure is logged and settles as `error 127`,
    /// the shell's "command not found".
    pub fn spawn(
        argv: &[String],
        cwd: Option<&Path>,
        resume: Option<&Path>,
        mute: bool,
        heartbeat: Option<PathBuf>,
        log: impl Fn(&str),
    ) -> Result<Self, Outcome> {
        let program = resolve_program(&argv[0]);
        let mut cmd = Command::new(&program);
        cmd.args(&argv[1..]);
        if let Some(snapshot) = resume {
            cmd.arg("--resume").arg(snapshot);
        }
        if let Some(dir) = cwd {
            cmd.current_dir(dir);
        }
        if mute {
            cmd.stdout(Stdio::null());
        }
        let started = Instant::now();
        match cmd.spawn() {
            Ok(child) => Ok(Babysitter {
                child,
                started,
                tail: heartbeat.map(HeartbeatTail::new),
                killed: None,
            }),
            Err(e) => {
                log(&format!("cannot spawn {}: {e}", program.display()));
                Err(Outcome::Error(127))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kill the child for `reason`. The first reason sticks: it is what
    /// the attempt settles as, whatever the wait status then says.
    pub fn kill(&mut self, reason: KillReason) {
        if self.killed.is_none() {
            self.killed = Some(reason);
            let _ = self.child.kill();
        }
    }

    /// Look at the child once: `Continue` with the heartbeat records
    /// appended since the last look while it runs, `Break` with how it
    /// ended and the tail's final flush once it exited. A failed
    /// `try_wait` is logged, kills the child and settles as `error -1`.
    pub fn poll(&mut self, log: impl Fn(&str)) -> ControlFlow<(Outcome, TailRead), TailRead> {
        let outcome = match self.child.try_wait() {
            Ok(None) => return ControlFlow::Continue(self.read_tail(HeartbeatTail::poll)),
            Ok(Some(status)) => classify(&status, self.killed),
            Err(e) => {
                log(&format!("wait failed: {e}"));
                let _ = self.child.kill();
                let _ = self.child.wait();
                Outcome::Error(-1)
            }
        };
        ControlFlow::Break((outcome, self.read_tail(HeartbeatTail::finish)))
    }

    fn read_tail(&mut self, read: fn(&mut HeartbeatTail) -> TailRead) -> TailRead {
        self.tail.as_mut().map(read).unwrap_or_default()
    }
}

impl Drop for Babysitter {
    fn drop(&mut self) {
        // A reaped child is never signalled again (its pid may be reused).
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::spec::parse_campaign;

    /// One row per case: (elapsed ms, quiet ms, requeues so far, a
    /// `latest.json` on disk, the kill expected).
    #[test]
    fn kill_policy_precedence_and_requeue_gates() {
        let dir = std::env::temp_dir().join(format!("dtsvliw-killpolicy-{}", std::process::id()));
        let (with_snap, without_snap) = (dir.join("with"), dir.join("without"));
        std::fs::create_dir_all(&with_snap).unwrap();
        std::fs::write(dtsvliw_core::latest_path(&with_snap), "{}").unwrap();
        let spec = |snaps: &Path| {
            parse_campaign(&format!(
                r#"{{ "max_requeues": 2, "jobs": [ {{ "name": "j", "argv": ["x"],
                     "timeout_ms": 1000, "stall_ms": 300, "soft_deadline_ms": 500,
                     "heartbeat": "hb.jsonl", "snapshot_dir": "{}" }} ] }}"#,
                snaps.display()
            ))
            .unwrap()
        };
        use KillReason::*;
        let rows: [(u64, u64, u64, bool, Option<KillReason>); 11] = [
            (100, 0, 0, true, None),
            // Timeout beats everything else that is due.
            (1000, 0, 0, true, Some(Timeout)),
            (1000, 300, 0, true, Some(Timeout)),
            (1000, 300, 9, false, Some(Timeout)),
            // Stall beats the soft deadline.
            (100, 300, 0, true, Some(Stalled)),
            (600, 300, 0, true, Some(Stalled)),
            // Soft fires past its deadline with a checkpoint on disk
            // and requeue budget left — and only then.
            (600, 0, 0, true, Some(Requeue)),
            (600, 0, 1, true, Some(Requeue)),
            (600, 0, 2, true, None),
            (600, 0, 0, false, None),
            (499, 0, 0, true, None),
        ];
        for (elapsed, quiet, requeues, snap, want) in rows {
            let spec = spec(if snap { &with_snap } else { &without_snap });
            let policy = KillPolicy::for_job(&spec, &spec.jobs[0], requeues);
            let got = policy.decide(Duration::from_millis(elapsed), Duration::from_millis(quiet));
            assert_eq!(
                got, want,
                "elapsed {elapsed} quiet {quiet} requeues {requeues} snapshot {snap}"
            );
        }
        // The worker's backstop knows only the timeout: no stall, no
        // requeue, however quiet or late the child is short of it.
        let backstop = KillPolicy::timeout_only(Duration::from_millis(1000));
        let ms = Duration::from_millis;
        assert_eq!(backstop.decide(ms(999), ms(999_999)), None);
        assert_eq!(backstop.decide(ms(1000), ms(0)), Some(Timeout));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spawn_failure_settles_as_error_127() {
        let logged = std::cell::RefCell::new(String::new());
        let argv = vec!["/nonexistent/definitely-not-a-binary".to_string()];
        let got = Babysitter::spawn(&argv, None, None, true, None, |l| {
            *logged.borrow_mut() = l.into()
        });
        assert_eq!(got.err(), Some(Outcome::Error(127)));
        assert!(
            logged.borrow().contains("cannot spawn"),
            "{}",
            logged.borrow()
        );
    }

    #[test]
    fn a_supervisor_kill_takes_precedence_and_drop_reaps() {
        let argv: Vec<String> = ["sh", "-c", "sleep 30"].map(String::from).to_vec();
        let mut sitter = Babysitter::spawn(&argv, None, None, true, None, |_| {}).unwrap();
        assert!(sitter.poll(|_| {}).is_continue());
        sitter.kill(KillReason::Stalled);
        sitter.kill(KillReason::Timeout); // the first reason sticks
        let outcome = loop {
            match sitter.poll(|_| {}) {
                ControlFlow::Break((outcome, _)) => break outcome,
                ControlFlow::Continue(_) => std::thread::sleep(Duration::from_millis(4)),
            }
        };
        assert_eq!(outcome, Outcome::Stalled);

        let mut orphan = Babysitter::spawn(&argv, None, None, true, None, |_| {}).unwrap();
        assert!(orphan.poll(|_| {}).is_continue());
        let pid = orphan.pid();
        drop(orphan);
        let alive = Command::new("kill")
            .args(["-0", &pid.to_string()])
            .stderr(Stdio::null())
            .status()
            .unwrap()
            .success();
        assert!(!alive, "a dropped babysitter must take its child with it");
    }
}
