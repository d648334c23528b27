//! The campaign job queue: one FIFO of job indices.
//!
//! Every worker slot claims from the same queue, front first. A job
//! still backing off after a failed attempt is passed over, not removed,
//! so a deferred head never blocks an eligible job behind it. Requeued
//! work — retries backing off, soft-deadline remainders — goes to the
//! back. A spec that lists its long jobs first therefore has them
//! started first.
//!
//! The queue is plain data (no locks, no clocks — time arrives as a
//! caller-supplied millisecond counter), so the policy is unit-testable
//! without threads.

use std::collections::VecDeque;

/// What a worker gets back from [`JobQueue::claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Run this job (an index into the spec's job list).
    Run(usize),
    /// Nothing eligible right now (every queued job is backing off, or
    /// the queue is empty while attempts run) but the campaign is not
    /// finished: park and re-claim.
    Wait,
    /// Every job has reached a terminal state.
    Done,
}

pub struct JobQueue {
    queue: VecDeque<usize>,
    /// Earliest claimable time per job, in caller milliseconds.
    not_before: Vec<u64>,
    /// Jobs queued or running — not yet terminal.
    outstanding: usize,
}

impl JobQueue {
    /// Queue jobs `0..jobs` in spec order, all claimable at once.
    pub fn new(jobs: usize) -> JobQueue {
        JobQueue {
            queue: (0..jobs).collect(),
            not_before: vec![0; jobs],
            outstanding: jobs,
        }
    }

    /// Claim the first job in queue order whose backoff has elapsed.
    pub fn claim(&mut self, now_ms: u64) -> Claim {
        if self.outstanding == 0 {
            return Claim::Done;
        }
        match self
            .queue
            .iter()
            .position(|&job| self.not_before[job] <= now_ms)
        {
            Some(pos) => Claim::Run(self.queue.remove(pos).unwrap()),
            None => Claim::Wait,
        }
    }

    /// The job reached a terminal state (success or retries exhausted).
    pub fn finish(&mut self, job: usize) {
        debug_assert!(!self.queue.contains(&job), "a queued job cannot finish");
        self.outstanding -= 1;
    }

    /// The job's attempt ended but the job lives on: to the back of the
    /// queue, claimable again at `not_before_ms`.
    pub fn requeue(&mut self, job: usize, not_before_ms: u64) {
        self.not_before[job] = not_before_ms;
        self.queue.push_back(job);
    }

    /// Jobs waiting in the queue, not counting running ones.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_defers_until_not_before() {
        let mut s = JobQueue::new(1);
        assert_eq!(s.claim(0), Claim::Run(0));
        s.requeue(0, 500);
        assert_eq!(s.claim(499), Claim::Wait);
        assert_eq!(s.claim(500), Claim::Run(0));
    }

    #[test]
    fn requeued_work_goes_to_the_back_and_a_deferred_head_does_not_block() {
        let mut s = JobQueue::new(3);
        assert_eq!(s.queued(), 3);
        assert_eq!(s.claim(0), Claim::Run(0));
        assert_eq!(s.claim(0), Claim::Run(1));
        // Job 0 backs off and job 1 is requeued at once: both go behind
        // job 2, in that order.
        s.requeue(0, 100);
        s.requeue(1, 0);
        assert_eq!(s.claim(0), Claim::Run(2), "requeued work waits its turn");
        // Job 0 heads the queue but is deferred: job 1 behind it runs.
        assert_eq!(s.claim(0), Claim::Run(1));
        assert_eq!(s.queued(), 1);
        assert_eq!(s.claim(99), Claim::Wait, "job 0 is still backing off");
        assert_eq!(s.claim(100), Claim::Run(0));
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn done_only_after_every_job_is_terminal() {
        let mut s = JobQueue::new(2);
        assert_eq!(s.claim(0), Claim::Run(0));
        s.requeue(0, 100);
        assert_eq!(s.claim(0), Claim::Run(1));
        s.finish(1);
        assert_eq!(s.outstanding, 1);
        assert_eq!(s.claim(50), Claim::Wait, "job 0 deferred, not done");
        assert_eq!(s.claim(100), Claim::Run(0));
        s.finish(0);
        assert_eq!(s.claim(100), Claim::Done);
    }
}
