//! Torn-line-safe heartbeat tailing.
//!
//! A child killed mid-write (SIGKILL at a timeout, a chaos strike)
//! leaves its heartbeat JSONL file ending in a partial record, and a
//! chaos tear can splice garbage into the middle of the stream. Both
//! the incremental tailer and the whole-file reader therefore treat the
//! stream defensively: a trailing line without its newline is *waited
//! on*, never parsed; a complete line that fails to parse (or is not a
//! JSON object) is *skipped*, never an error.

use dtsvliw_json::Json;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;

/// The progress a heartbeat record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    pub cycle: u64,
    pub instructions: u64,
    /// Cumulative burst count from the telemetry heartbeat (0 when the
    /// record predates burst counters).
    pub bursts: u64,
}

/// Extract the progress fields from one heartbeat record.
fn progress_of(j: &Json) -> Option<Progress> {
    Some(Progress {
        cycle: j.get("cycle").and_then(Json::as_u64)?,
        instructions: j.get("instructions").and_then(Json::as_u64)?,
        bursts: j.get("bursts").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// What one read of a [`HeartbeatTail`] produced.
#[derive(Debug, Default, PartialEq)]
pub struct TailRead {
    /// The freshest progress the stream has carried so far.
    pub progress: Option<Progress>,
    /// Torn final records: only [`HeartbeatTail::finish`] counts them.
    pub truncated: u64,
}

/// Incremental reader over a child's heartbeat JSONL file. Tracks a
/// byte offset so each poll only parses new complete lines; a file that
/// shrank (a retry recreated it) resets the tail to the start.
pub struct HeartbeatTail {
    path: PathBuf,
    offset: u64,
    last: Option<Progress>,
}

impl HeartbeatTail {
    pub fn new(path: PathBuf) -> Self {
        HeartbeatTail {
            path,
            offset: 0,
            last: None,
        }
    }

    /// Consume any new complete lines and return the freshest progress
    /// seen so far. New lines are parsed newest first, stopping at the
    /// first record that carries progress. A record mid-write waits for
    /// the next poll rather than being parsed half-torn.
    pub fn poll(&mut self) -> TailRead {
        if let Some(buf) = self.unread() {
            let complete = buf.rfind('\n').map_or(0, |p| p + 1);
            self.offset += complete as u64;
            let newest = buf[..complete]
                .lines()
                .rev()
                .find_map(|line| progress_of(&Json::parse(line).ok()?));
            self.last = newest.or(self.last);
        }
        TailRead {
            progress: self.last,
            truncated: 0,
        }
    }

    /// Final flush once the child is dead: consume any remaining
    /// complete lines, then give the torn tail — a record the dead
    /// child never newline-terminated — one last parse. A tail that
    /// parses whole is a real record and its progress is credited; one
    /// that does not is counted as truncated, never an error.
    pub fn finish(&mut self) -> TailRead {
        let mut read = self.poll();
        if let Some(rest) = self.unread() {
            self.offset += rest.len() as u64;
            match Json::parse(rest.trim()) {
                Ok(rec @ Json::Obj(_)) => {
                    self.last = progress_of(&rec).or(self.last);
                    read.progress = self.last;
                }
                _ => read.truncated = u64::from(!rest.trim().is_empty()),
            }
        }
        read
    }

    /// Everything past the offset, or `None` when there is nothing new
    /// (or the file cannot be read yet). A file shorter than the offset
    /// was recreated: the tail starts again from byte 0.
    fn unread(&mut self) -> Option<String> {
        let mut f = std::fs::File::open(&self.path).ok()?;
        let len = f.metadata().ok()?.len();
        if len < self.offset {
            self.offset = 0;
            self.last = None;
        }
        if len == self.offset {
            return None;
        }
        f.seek(SeekFrom::Start(self.offset)).ok()?;
        let mut buf = String::new();
        f.take(len - self.offset).read_to_string(&mut buf).ok()?;
        Some(buf)
    }
}

/// Every complete, well-formed record in a heartbeat stream's text, in
/// file order. A trailing record torn by a mid-write kill (no final
/// newline) is skipped, as is any line that does not parse — the merge
/// stage must survive whatever a SIGKILL left behind.
pub fn complete_records(text: &str) -> Vec<Json> {
    let complete = text.rfind('\n').map_or(0, |p| p + 1);
    text[..complete]
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|j| matches!(j, Json::Obj(_)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn record(seq: u64, cycle: u64) -> String {
        format!(
            "{{\"seq\": {seq}, \"cycle\": {cycle}, \"instructions\": {}}}\n",
            cycle * 2
        )
    }

    #[test]
    fn torn_final_record_is_skipped_not_an_error() {
        let text = format!("{}{}{{\"seq\": 2, \"cyc", record(0, 100), record(1, 200));
        let records = complete_records(&text);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].get("cycle").unwrap().as_u64(), Some(200));
    }

    #[test]
    fn garbage_middle_lines_are_skipped() {
        let text = format!("{}###not json###\n{}", record(0, 100), record(1, 200));
        assert_eq!(complete_records(&text).len(), 2);
        // Non-object lines are not records either.
        assert_eq!(complete_records("42\n[1,2]\n").len(), 0);
    }

    #[test]
    fn tail_waits_on_partial_writes_then_consumes_them() {
        let dir = std::env::temp_dir().join(format!("dtsvliw-hbtail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        let mut f = std::fs::File::create(&path).unwrap();
        let mut tail = HeartbeatTail::new(path.clone());

        write!(f, "{}", record(0, 100)).unwrap();
        // A torn half-record at the end: the complete record before it
        // must land, the torn one must wait.
        write!(f, "{{\"seq\": 1, \"cycle\": 2").unwrap();
        f.flush().unwrap();
        assert_eq!(tail.poll().progress.map(|p| p.cycle), Some(100));

        // The write completes; the next poll must pick it up whole.
        writeln!(f, "00, \"instructions\": 400}}").unwrap();
        f.flush().unwrap();
        assert_eq!(
            tail.poll().progress,
            Some(Progress {
                cycle: 200,
                instructions: 400,
                bursts: 0
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_stream_killed_mid_record_keeps_last_complete_progress() {
        let dir = std::env::temp_dir().join(format!("dtsvliw-hbkill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        // Simulate what a SIGKILL leaves: complete records then a torn
        // tail, never finished.
        std::fs::write(
            &path,
            format!(
                "{}{}{{\"seq\": 2, \"cycle\": 3",
                record(0, 100),
                record(1, 200)
            ),
        )
        .unwrap();
        let mut tail = HeartbeatTail::new(path);
        assert_eq!(tail.poll().progress.map(|p| p.cycle), Some(200));
        // Polling again must be stable, not error or re-read.
        assert_eq!(tail.poll().progress.map(|p| p.cycle), Some(200));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrunk_file_resets_the_tail() {
        let dir = std::env::temp_dir().join(format!("dtsvliw-hbshrink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        std::fs::write(&path, format!("{}{}", record(0, 100), record(1, 900))).unwrap();
        let mut tail = HeartbeatTail::new(path.clone());
        assert_eq!(tail.poll().progress.map(|p| p.cycle), Some(900));
        // A retry recreates the file from scratch: smaller, earlier.
        std::fs::write(&path, record(0, 50)).unwrap();
        assert_eq!(tail.poll().progress.map(|p| p.cycle), Some(50));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_no_progress() {
        let mut tail = HeartbeatTail::new(PathBuf::from("/nonexistent/hb.jsonl"));
        assert_eq!(tail.poll().progress, None);
        assert_eq!(tail.finish(), TailRead::default());
    }

    #[test]
    fn bursts_ride_along_when_present() {
        let j = Json::parse("{\"cycle\": 5, \"instructions\": 10, \"bursts\": 3}").unwrap();
        assert_eq!(progress_of(&j).map(|p| p.bursts), Some(3));
        let old = Json::parse("{\"cycle\": 5, \"instructions\": 10}").unwrap();
        assert_eq!(progress_of(&old).map(|p| p.bursts), Some(0));
    }

    #[test]
    fn finish_credits_a_whole_record_missing_only_its_newline() {
        let dir = std::env::temp_dir().join(format!("dtsvliw-hbfin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        // The child wrote its last record but died before the newline.
        std::fs::write(
            &path,
            format!(
                "{}{{\"seq\": 1, \"cycle\": 300, \"instructions\": 600}}",
                record(0, 100)
            ),
        )
        .unwrap();
        let mut tail = HeartbeatTail::new(path);
        // A mid-flight poll must still wait on it…
        assert_eq!(tail.poll().progress.map(|p| p.cycle), Some(100));
        // …but the completion flush parses it whole: no truncation.
        let TailRead {
            progress: last,
            truncated,
            ..
        } = tail.finish();
        assert_eq!(last.map(|p| p.cycle), Some(300));
        assert_eq!(truncated, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_counts_a_genuinely_torn_tail() {
        let dir = std::env::temp_dir().join(format!("dtsvliw-hbtorn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        std::fs::write(&path, format!("{}{{\"seq\": 1, \"cyc", record(0, 100))).unwrap();
        let mut tail = HeartbeatTail::new(path);
        let TailRead {
            progress: last,
            truncated,
            ..
        } = tail.finish();
        assert_eq!(last.map(|p| p.cycle), Some(100), "complete records kept");
        assert_eq!(truncated, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh file under the temp dir for one test.
    fn hb_file(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("dtsvliw-hb{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        (dir, path)
    }

    fn cycle(read: &TailRead) -> Option<u64> {
        read.progress.map(|p| p.cycle)
    }

    #[test]
    fn progress_follows_the_newest_complete_record() {
        let (dir, path) = hb_file("once");
        let mut f = std::fs::File::create(&path).unwrap();
        let mut tail = HeartbeatTail::new(path);
        write!(f, "{}{}", record(0, 100), record(1, 200)).unwrap();
        f.flush().unwrap();
        assert_eq!(cycle(&tail.poll()), Some(200), "the newer record wins");
        // Nothing new: the progress stays.
        assert_eq!(cycle(&tail.poll()), Some(200));
        write!(f, "{}", record(2, 300)).unwrap();
        f.flush().unwrap();
        let read = tail.poll();
        assert_eq!(cycle(&read), Some(300));
        assert_eq!(read.truncated, 0, "poll never counts truncation");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_trailing_record_waits_for_its_newline() {
        let (dir, path) = hb_file("wait");
        let mut f = std::fs::File::create(&path).unwrap();
        let mut tail = HeartbeatTail::new(path);
        write!(f, "{}{{\"seq\": 1, \"cyc", record(0, 100)).unwrap();
        f.flush().unwrap();
        assert_eq!(cycle(&tail.poll()), Some(100));
        let read = tail.poll();
        assert_eq!(cycle(&read), Some(100), "the torn line waits");
        assert_eq!(read.truncated, 0);
        writeln!(f, "le\": 200, \"instructions\": 400}}").unwrap();
        f.flush().unwrap();
        let read = tail.poll();
        assert_eq!(cycle(&read), Some(200), "the completed line is read whole");
        assert_eq!(read.truncated, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_lines_are_dropped_from_the_records() {
        let (dir, path) = hb_file("garbage");
        // Garbage after the last good record must not hide it.
        std::fs::write(
            &path,
            format!("{}{}###torn###\n42\n[1]\n", record(0, 100), record(1, 200)),
        )
        .unwrap();
        let mut tail = HeartbeatTail::new(path);
        assert_eq!(cycle(&tail.poll()), Some(200));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_shrunk_file_is_read_again_from_offset_zero() {
        let (dir, path) = hb_file("reread");
        std::fs::write(&path, format!("{}{}", record(0, 100), record(1, 900))).unwrap();
        let mut tail = HeartbeatTail::new(path.clone());
        assert_eq!(cycle(&tail.poll()), Some(900));
        // A retry recreates the file: shorter, so every record in it is
        // new to the tail, and older progress is forgotten.
        std::fs::write(&path, record(7, 50)).unwrap();
        assert_eq!(cycle(&tail.poll()), Some(50));
        std::fs::write(&path, "").unwrap();
        assert_eq!(cycle(&tail.poll()), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_credits_a_whole_tail_and_counts_a_torn_one() {
        let (dir, path) = hb_file("finrec");
        std::fs::write(
            &path,
            format!(
                "{}{{\"seq\": 1, \"cycle\": 300, \"instructions\": 600}}",
                record(0, 100)
            ),
        )
        .unwrap();
        let mut tail = HeartbeatTail::new(path.clone());
        assert_eq!(cycle(&tail.poll()), Some(100));
        let read = tail.finish();
        assert_eq!(
            (read.truncated, cycle(&read)),
            (0, Some(300)),
            "the un-newlined record is credited"
        );
        // A second flush finds nothing new and keeps the progress.
        assert_eq!(tail.finish(), read);

        std::fs::write(&path, format!("{}{{\"seq\": 1, \"cyc", record(0, 100))).unwrap();
        let read = HeartbeatTail::new(path).finish();
        assert_eq!(cycle(&read), Some(100), "complete records still count");
        assert_eq!(read.truncated, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
