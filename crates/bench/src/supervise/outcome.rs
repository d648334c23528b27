//! Attempt classification.
//!
//! The supervisor distinguishes kills it performed itself (hard
//! timeout, heartbeat stall, soft-deadline requeue) from everything the
//! child did on its own: the simulator's reserved exit codes, foreign
//! signals, and plain errors.

use std::process::ExitStatus;

/// Exit codes `dtsvliw_run` reserves (see its module docs).
pub const EXIT_WATCHDOG: i32 = 3;
pub const EXIT_SNAPSHOT: i32 = 4;

/// Why the supervisor killed a child, when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillReason {
    /// The hard wall-clock limit (`timeout_ms`) expired.
    Timeout,
    /// The heartbeat stream made no progress for the stall threshold.
    Stalled,
    /// The soft deadline expired with a durable snapshot on disk: the
    /// remainder is checkpoint-and-requeued, not failed.
    Requeue,
}

impl KillReason {
    /// The outcome a supervisor kill settles as, whatever the child's
    /// wait status says (or whether it was ever reaped).
    pub fn outcome(self) -> Outcome {
        match self {
            KillReason::Timeout => Outcome::Timeout,
            KillReason::Stalled => Outcome::Stalled,
            KillReason::Requeue => Outcome::Requeued,
        }
    }
}

/// How one attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Success,
    /// Killed by the supervisor at the hard wall-clock limit.
    Timeout,
    /// Killed by the supervisor: heartbeat staleness exceeded the
    /// stall threshold (a hung or frozen child that still holds a
    /// worker slot).
    Stalled,
    /// Killed by the supervisor past the soft deadline; the remainder
    /// re-enters the queue and resumes from the latest snapshot. Not a
    /// failure: consumes no retry budget.
    Requeued,
    /// Exit code 3: the simulator's own forward-progress watchdog.
    Watchdog,
    /// Exit code 4: the resume source was damaged; the supervisor
    /// quarantines it and the next attempt starts fresh.
    CorruptSnapshot,
    /// Died on a signal it did not ask for (a real SIGKILL, an OOM
    /// kill, a chaos strike).
    Signal(i32),
    /// Any other nonzero exit.
    Error(i32),
}

impl Outcome {
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Success => "success",
            Outcome::Timeout => "timeout",
            Outcome::Stalled => "stalled",
            Outcome::Requeued => "requeued",
            Outcome::Watchdog => "watchdog",
            Outcome::CorruptSnapshot => "corrupt-snapshot",
            Outcome::Signal(_) => "signal",
            Outcome::Error(_) => "error",
        }
    }

    /// Parse a label back into an outcome, as the span log spells it
    /// (`detail` carries the signal or exit code when the label needs
    /// one). `None` for labels this build does not know.
    pub fn from_label(label: &str, detail: Option<i64>) -> Option<Outcome> {
        Some(match label {
            "success" => Outcome::Success,
            "timeout" => Outcome::Timeout,
            "stalled" => Outcome::Stalled,
            "requeued" => Outcome::Requeued,
            "watchdog" => Outcome::Watchdog,
            "corrupt-snapshot" => Outcome::CorruptSnapshot,
            "signal" => Outcome::Signal(detail.unwrap_or(0) as i32),
            "error" => Outcome::Error(detail.unwrap_or(-1) as i32),
            _ => return None,
        })
    }

    /// The signal number or exit code the outcome carries, as the span
    /// log and the attempts log spell it.
    pub fn detail(&self) -> Option<i64> {
        match *self {
            Outcome::Signal(sig) => Some(sig as i64),
            Outcome::Error(code) => Some(code as i64),
            _ => None,
        }
    }

    /// Outcomes that terminate the attempt without counting as either
    /// success or a consumed retry by construction.
    pub fn is_requeue(&self) -> bool {
        matches!(self, Outcome::Requeued)
    }
}

#[cfg(unix)]
fn signal_of(status: &ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn signal_of(_status: &ExitStatus) -> Option<i32> {
    None
}

/// Classify a reaped child. A supervisor-initiated kill takes
/// precedence over whatever the wait status says (the SIGKILL we sent
/// would otherwise read as a foreign signal).
pub fn classify(status: &ExitStatus, killed: Option<KillReason>) -> Outcome {
    if let Some(reason) = killed {
        return reason.outcome();
    }
    if let Some(sig) = signal_of(status) {
        return Outcome::Signal(sig);
    }
    match status.code() {
        Some(0) => Outcome::Success,
        Some(EXIT_WATCHDOG) => Outcome::Watchdog,
        Some(EXIT_SNAPSHOT) => Outcome::CorruptSnapshot,
        Some(c) => Outcome::Error(c),
        None => Outcome::Signal(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status_of(cmd: &str) -> ExitStatus {
        std::process::Command::new("sh")
            .args(["-c", cmd])
            .status()
            .unwrap()
    }

    #[test]
    fn exit_codes_classify() {
        assert_eq!(classify(&status_of("exit 0"), None), Outcome::Success);
        assert_eq!(classify(&status_of("exit 3"), None), Outcome::Watchdog);
        assert_eq!(
            classify(&status_of("exit 4"), None),
            Outcome::CorruptSnapshot
        );
        assert_eq!(classify(&status_of("exit 7"), None), Outcome::Error(7));
    }

    #[cfg(unix)]
    #[test]
    fn signals_classify() {
        assert_eq!(
            classify(&status_of("kill -KILL $$"), None),
            Outcome::Signal(9)
        );
    }

    #[test]
    fn supervisor_kills_override_the_wait_status() {
        let s = status_of("exit 0");
        assert_eq!(classify(&s, Some(KillReason::Timeout)), Outcome::Timeout);
        assert_eq!(classify(&s, Some(KillReason::Stalled)), Outcome::Stalled);
        assert_eq!(classify(&s, Some(KillReason::Requeue)), Outcome::Requeued);
        assert!(classify(&s, Some(KillReason::Requeue)).is_requeue());
    }

    #[test]
    fn labels_are_distinct() {
        let all = [
            Outcome::Success,
            Outcome::Timeout,
            Outcome::Stalled,
            Outcome::Requeued,
            Outcome::Watchdog,
            Outcome::CorruptSnapshot,
            Outcome::Signal(9),
            Outcome::Error(1),
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn labels_roundtrip_through_the_wire() {
        let all = [
            Outcome::Success,
            Outcome::Timeout,
            Outcome::Stalled,
            Outcome::Requeued,
            Outcome::Watchdog,
            Outcome::CorruptSnapshot,
            Outcome::Signal(9),
            Outcome::Error(7),
        ];
        for o in all {
            let detail = match o {
                Outcome::Signal(s) => Some(s as i64),
                Outcome::Error(c) => Some(c as i64),
                _ => None,
            };
            assert_eq!(Outcome::from_label(o.label(), detail), Some(o));
        }
        assert_eq!(Outcome::from_label("quantum-decohered", None), None);
    }
}
