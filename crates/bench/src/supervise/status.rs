//! The multi-worker live status line.
//!
//! One refreshing stderr line summarises the whole campaign: jobs
//! done/failed, what every worker slot is executing (with its current
//! simulated cycle from the heartbeat tail), aggregate simulated
//! instructions per wall second, and a per-shard ETA — the campaign's
//! critical path is the deepest shard, so the overall ETA is the
//! worst per-shard one. Rendering is pure (`render`), so the format is
//! unit-testable; the throttling and terminal handling live in
//! [`StatusSink`].

use super::heartbeat::Progress;
use std::io::IsTerminal;
use std::time::{Duration, Instant};

/// What one worker slot is doing right now.
#[derive(Debug, Clone, Default)]
pub struct WorkerView {
    /// Job name, or `None` while idle.
    pub job: Option<String>,
    /// Freshest heartbeat progress for the running attempt.
    pub progress: Option<Progress>,
}

/// A point-in-time snapshot of the campaign for rendering.
#[derive(Debug, Clone, Default)]
pub struct BoardSnapshot {
    pub total: usize,
    pub done: usize,
    pub failed: usize,
    /// Instructions credited from finished jobs' final heartbeats.
    pub finished_instructions: u64,
    pub workers: Vec<WorkerView>,
    /// Queue depth per shard (jobs waiting, not counting running ones).
    pub shard_depths: Vec<usize>,
}

fn compact_cycles(c: u64) -> String {
    if c >= 10_000_000 {
        format!("{}Mc", c / 1_000_000)
    } else if c >= 10_000 {
        format!("{}kc", c / 1_000)
    } else {
        format!("{c}c")
    }
}

/// Per-shard ETA in seconds: jobs still queued on the shard, paced by
/// the campaign's observed completion rate spread across workers.
/// `None` until the first job completes (no basis to extrapolate).
pub fn shard_etas(s: &BoardSnapshot, elapsed_s: f64) -> Option<Vec<f64>> {
    if s.done == 0 {
        return None;
    }
    let per_job = elapsed_s / s.done as f64 * s.workers.len().max(1) as f64;
    Some(
        s.shard_depths
            .iter()
            .map(|&depth| depth as f64 * per_job)
            .collect(),
    )
}

/// Render the one-line status. Pure: everything time-dependent comes in
/// through the snapshot and `elapsed_s`.
pub fn render(s: &BoardSnapshot, elapsed_s: f64) -> String {
    let elapsed = elapsed_s.max(1e-9);
    let running_instr: u64 = s
        .workers
        .iter()
        .filter_map(|w| w.progress.map(|p| p.instructions))
        .sum();
    let rate = (s.finished_instructions + running_instr) as f64 / 1e6 / elapsed;
    let mut line = format!(
        "supervise: [{}/{} done, {} failed]",
        s.done, s.total, s.failed
    );
    for (i, w) in s.workers.iter().enumerate() {
        match (&w.job, w.progress) {
            (Some(job), Some(p)) => {
                line.push_str(&format!(" w{i} {job}@{}", compact_cycles(p.cycle)));
            }
            (Some(job), None) => line.push_str(&format!(" w{i} {job}")),
            (None, _) => line.push_str(&format!(" w{i} idle")),
        }
    }
    line.push_str(&format!(" | {rate:.1}M instr/s"));
    match shard_etas(s, elapsed_s) {
        Some(etas) => {
            let worst = etas.iter().cloned().fold(0.0f64, f64::max);
            let per: Vec<String> = etas.iter().map(|e| format!("{e:.0}")).collect();
            line.push_str(&format!(" | eta ~{worst:.0}s (shards {}s)", per.join("/")));
        }
        None => line.push_str(" | eta --"),
    }
    line
}

/// Clamp a status line to `width` columns (counted in chars — the line
/// is plain ASCII plus the ellipsis), replacing the overflow with `…`.
/// A line that wraps would break the redraw-in-place protocol: the
/// `\r\x1b[2K` erase only clears the last physical row, so every
/// refresh of a wrapped line leaves its first row behind as garbage.
pub fn clamp_line(line: &str, width: usize) -> String {
    if width == 0 || line.chars().count() <= width {
        return line.to_string();
    }
    let keep = width.saturating_sub(1);
    let mut out: String = line.chars().take(keep).collect();
    out.push('…');
    out
}

/// Terminal width for status rendering: an explicit `--status-width`
/// wins, then the `COLUMNS` environment variable, then 120.
pub fn detect_width(override_width: Option<usize>) -> usize {
    override_width
        .or_else(|| std::env::var("COLUMNS").ok()?.trim().parse().ok())
        .unwrap_or(120)
}

/// Throttled stderr presenter: redraws in place at 5 Hz on a terminal,
/// prints a line every 2 s on a pipe (CI logs). Terminal redraws are
/// clamped to the detected (or overridden) width so they never wrap.
pub struct StatusSink {
    tty: bool,
    width: usize,
    started: Instant,
    last_print: Option<Instant>,
    visible: bool,
    enabled: bool,
}

impl StatusSink {
    pub fn new(enabled: bool, width_override: Option<usize>) -> Self {
        StatusSink {
            tty: std::io::stderr().is_terminal(),
            width: detect_width(width_override),
            started: Instant::now(),
            last_print: None,
            visible: false,
            enabled,
        }
    }

    pub fn due(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let gap = if self.tty {
            Duration::from_millis(200)
        } else {
            Duration::from_secs(2)
        };
        self.last_print.is_none_or(|t| t.elapsed() >= gap)
    }

    pub fn refresh(&mut self, snapshot: &BoardSnapshot) {
        if !self.enabled {
            return;
        }
        self.last_print = Some(Instant::now());
        let line = render(snapshot, self.started.elapsed().as_secs_f64());
        if self.tty {
            eprint!("\r\x1b[2K{}", clamp_line(&line, self.width));
            self.visible = true;
        } else {
            eprintln!("{line}");
        }
    }

    /// Clear the in-place line so regular log output starts clean.
    pub fn clear(&mut self) {
        if self.tty && self.visible {
            eprint!("\r\x1b[2K");
            self.visible = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> BoardSnapshot {
        BoardSnapshot {
            total: 9,
            done: 3,
            failed: 1,
            finished_instructions: 30_000_000,
            workers: vec![
                WorkerView {
                    job: Some("gcc".into()),
                    progress: Some(Progress {
                        cycle: 12_345_678,
                        instructions: 20_000_000,
                        bursts: 0,
                    }),
                },
                WorkerView {
                    job: Some("go".into()),
                    progress: None,
                },
                WorkerView::default(),
            ],
            shard_depths: vec![2, 0, 1],
        }
    }

    #[test]
    fn renders_every_worker_and_the_counts() {
        let line = render(&snapshot(), 10.0);
        assert!(line.contains("[3/9 done, 1 failed]"), "{line}");
        assert!(line.contains("w0 gcc@12Mc"), "{line}");
        assert!(line.contains("w1 go"), "{line}");
        assert!(line.contains("w2 idle"), "{line}");
        // 50M instructions over 10s = 5.0M instr/s.
        assert!(line.contains("5.0M instr/s"), "{line}");
    }

    #[test]
    fn eta_is_the_worst_shard() {
        // 3 done in 10s across 3 workers -> 10s per queued job per
        // shard; depths 2/0/1 -> 20/0/10 -> worst 20.
        let etas = shard_etas(&snapshot(), 10.0).unwrap();
        assert_eq!(etas, vec![20.0, 0.0, 10.0]);
        let line = render(&snapshot(), 10.0);
        assert!(line.contains("eta ~20s (shards 20/0/10s)"), "{line}");
    }

    #[test]
    fn eta_withheld_until_a_job_completes() {
        let mut s = snapshot();
        s.done = 0;
        assert!(shard_etas(&s, 5.0).is_none());
        assert!(render(&s, 5.0).contains("eta --"));
    }

    #[test]
    fn clamp_leaves_short_lines_alone() {
        assert_eq!(clamp_line("abc", 10), "abc");
        assert_eq!(clamp_line("abc", 3), "abc");
        // Width 0 means "don't clamp" (unknown terminal).
        assert_eq!(clamp_line("abcdef", 0), "abcdef");
    }

    #[test]
    fn clamp_replaces_overflow_with_ellipsis() {
        assert_eq!(clamp_line("abcdef", 4), "abc…");
        assert_eq!(clamp_line("abcdef", 5), "abcd…");
        assert_eq!(clamp_line("ab", 1), "…");
        // Counted in chars, not bytes: a prior ellipsis is one column.
        assert_eq!(clamp_line("a…cdef", 4), "a…c…");
    }

    #[test]
    fn clamped_render_fits_narrow_terminals() {
        let line = render(&snapshot(), 10.0);
        assert!(line.chars().count() > 40, "fixture line is long: {line}");
        let clamped = clamp_line(&line, 40);
        assert_eq!(clamped.chars().count(), 40);
        assert!(clamped.ends_with('…'), "{clamped}");
        assert!(clamped.starts_with("supervise: [3/9 done"), "{clamped}");
    }

    #[test]
    fn width_detection_prefers_explicit_override() {
        assert_eq!(detect_width(Some(57)), 57);
        // No override: COLUMNS or the 120 fallback — both acceptable
        // here since the test env may or may not export COLUMNS.
        let w = detect_width(None);
        assert!(w > 0);
    }

    #[test]
    fn cycle_compaction() {
        assert_eq!(compact_cycles(999), "999c");
        assert_eq!(compact_cycles(45_000), "45kc");
        assert_eq!(compact_cycles(123_000_000), "123Mc");
    }
}
