//! The sharded work-stealing job queue.
//!
//! Jobs are dealt round-robin across one deque per worker slot; a
//! worker pops from the front of its own shard and, when its shard has
//! nothing eligible, steals from the *back* of the deepest sibling
//! shard (the classic split: owner works the front, thieves raid the
//! tail). Requeued work — retries backing off, soft-deadline remainders
//! — goes back onto the requeuing worker's own shard, where any idle
//! sibling can steal it, which is exactly how long shards rebalance.
//!
//! Two admission gates apply at claim time, not enqueue time:
//!
//! * **back-pressure** — at most `spawn_window` children in flight
//!   across the whole campaign;
//! * **per-tenant quotas** — a job billing tenant T is only claimable
//!   while T holds fewer than its quota of slots.
//!
//! The queue is plain data (no locks, no clocks — time arrives as a
//! caller-supplied millisecond counter), so the scheduling policy is
//! unit-testable without threads.

use std::collections::VecDeque;

/// What a worker gets back from [`Scheduler::claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Run this job (an index into the spec's job list).
    Run(usize),
    /// Nothing eligible right now (quota-blocked, backoff-deferred, or
    /// the spawn window is full) but the campaign is not finished:
    /// park and re-claim.
    Wait,
    /// Every job has reached a terminal state.
    Done,
}

pub struct Scheduler {
    shards: Vec<VecDeque<usize>>,
    /// Job index -> tenant index into `quotas`, or `usize::MAX`.
    tenant_of: Vec<usize>,
    quotas: Vec<usize>,
    tenant_running: Vec<usize>,
    /// Earliest claimable time per job, in caller milliseconds.
    not_before: Vec<u64>,
    running: usize,
    spawn_window: usize,
    /// Jobs queued or running — not yet terminal.
    outstanding: usize,
    /// Whether the most recent successful [`Scheduler::claim`] raided a
    /// sibling shard rather than popping the caller's own front.
    last_claim_stolen: bool,
}

const NO_TENANT: usize = usize::MAX;

impl Scheduler {
    /// Deal `tenants.len()` jobs across `workers` shards round-robin.
    /// `tenants[j]` names job j's tenant (`None` = unconstrained);
    /// `quotas` is the (tenant name, slots) table from the spec.
    pub fn new(
        tenants: &[Option<&str>],
        quotas: &[(String, usize)],
        workers: usize,
        spawn_window: usize,
    ) -> Scheduler {
        let workers = workers.max(1);
        let mut shards = vec![VecDeque::new(); workers];
        for job in 0..tenants.len() {
            shards[job % workers].push_back(job);
        }
        let tenant_of = tenants
            .iter()
            .map(|t| match t {
                Some(name) => quotas
                    .iter()
                    .position(|(q, _)| q == name)
                    .unwrap_or(NO_TENANT),
                None => NO_TENANT,
            })
            .collect();
        Scheduler {
            shards,
            tenant_of,
            quotas: quotas.iter().map(|(_, n)| *n).collect(),
            tenant_running: vec![0; quotas.len()],
            not_before: vec![0; tenants.len()],
            running: 0,
            spawn_window: spawn_window.max(1),
            outstanding: tenants.len(),
            last_claim_stolen: false,
        }
    }

    fn eligible(&self, job: usize, now_ms: u64) -> bool {
        if self.not_before[job] > now_ms {
            return false;
        }
        match self.tenant_of[job] {
            NO_TENANT => true,
            t => self.tenant_running[t] < self.quotas[t],
        }
    }

    fn admit(&mut self, job: usize) -> Claim {
        self.running += 1;
        if self.tenant_of[job] != NO_TENANT {
            self.tenant_running[self.tenant_of[job]] += 1;
        }
        Claim::Run(job)
    }

    /// Claim the next eligible job for `worker`. Own shard first (front
    /// to back), then steal from the back of the deepest sibling.
    pub fn claim(&mut self, worker: usize, now_ms: u64) -> Claim {
        if self.outstanding == 0 {
            return Claim::Done;
        }
        if self.running >= self.spawn_window {
            return Claim::Wait;
        }
        if let Some(pos) =
            (0..self.shards[worker].len()).find(|&i| self.eligible(self.shards[worker][i], now_ms))
        {
            let job = self.shards[worker].remove(pos).unwrap();
            self.last_claim_stolen = false;
            return self.admit(job);
        }
        // Steal: deepest sibling first, from the tail inward.
        let mut victims: Vec<usize> = (0..self.shards.len()).filter(|&w| w != worker).collect();
        victims.sort_by_key(|&w| std::cmp::Reverse(self.shards[w].len()));
        for v in victims {
            if let Some(pos) = (0..self.shards[v].len())
                .rev()
                .find(|&i| self.eligible(self.shards[v][i], now_ms))
            {
                let job = self.shards[v].remove(pos).unwrap();
                self.last_claim_stolen = true;
                return self.admit(job);
            }
        }
        Claim::Wait
    }

    /// Whether the most recent `Claim::Run` this scheduler handed out
    /// was stolen from a sibling shard. Callers read this under the
    /// same lock that covered the claim, so there is no race window.
    pub fn last_claim_was_steal(&self) -> bool {
        self.last_claim_stolen
    }

    /// `(running, quota)` per tenant, index-aligned with the quota
    /// table the scheduler was built from (for quota-headroom counter
    /// tracks).
    pub fn tenant_loads(&self) -> Vec<(usize, usize)> {
        self.tenant_running
            .iter()
            .zip(&self.quotas)
            .map(|(&r, &q)| (r, q))
            .collect()
    }

    /// The job reached a terminal state (success or retries exhausted).
    pub fn finish(&mut self, job: usize) {
        self.release(job);
        self.outstanding -= 1;
    }

    /// The job's attempt ended but the job lives on: back onto
    /// `worker`'s shard, claimable again at `not_before_ms`.
    pub fn requeue(&mut self, job: usize, worker: usize, not_before_ms: u64) {
        self.release(job);
        self.not_before[job] = not_before_ms;
        self.shards[worker].push_back(job);
    }

    fn release(&mut self, job: usize) {
        self.running -= 1;
        if self.tenant_of[job] != NO_TENANT {
            self.tenant_running[self.tenant_of[job]] -= 1;
        }
    }

    /// Queue depth per shard (for the status line).
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shards.iter().map(VecDeque::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free(n: usize) -> Vec<Option<&'static str>> {
        vec![None; n]
    }

    #[test]
    fn deals_round_robin_and_owner_pops_front() {
        let mut s = Scheduler::new(&free(6), &[], 3, 16);
        assert_eq!(s.shard_depths(), vec![2, 2, 2]);
        assert_eq!(s.claim(0, 0), Claim::Run(0));
        assert_eq!(s.claim(1, 0), Claim::Run(1));
        assert_eq!(s.claim(0, 0), Claim::Run(3));
    }

    #[test]
    fn idle_worker_steals_from_the_deepest_shard_tail() {
        let mut s = Scheduler::new(&free(7), &[], 3, 16);
        // Shard 0: {0,3,6} (deepest). Worker 2 drains its own {2,5},
        // then must steal shard 0's tail: job 6.
        assert_eq!(s.claim(2, 0), Claim::Run(2));
        assert_eq!(s.claim(2, 0), Claim::Run(5));
        assert_eq!(s.claim(2, 0), Claim::Run(6));
    }

    #[test]
    fn steal_flag_tracks_where_the_claim_came_from() {
        let mut s = Scheduler::new(&free(7), &[], 3, 16);
        assert_eq!(s.claim(2, 0), Claim::Run(2));
        assert!(!s.last_claim_was_steal(), "own-shard front pop");
        assert_eq!(s.claim(2, 0), Claim::Run(5));
        assert!(!s.last_claim_was_steal());
        assert_eq!(s.claim(2, 0), Claim::Run(6));
        assert!(s.last_claim_was_steal(), "raided shard 0's tail");
        assert_eq!(s.claim(0, 0), Claim::Run(0));
        assert!(!s.last_claim_was_steal(), "flag resets on own-shard claim");
    }

    #[test]
    fn tenant_loads_mirror_running_vs_quota() {
        let quotas = vec![("alice".to_string(), 2)];
        let tenants = vec![Some("alice"), Some("alice")];
        let mut s = Scheduler::new(&tenants, &quotas, 1, 16);
        assert_eq!(s.tenant_loads(), vec![(0, 2)]);
        assert_eq!(s.claim(0, 0), Claim::Run(0));
        assert_eq!(s.tenant_loads(), vec![(1, 2)]);
        s.finish(0);
        assert_eq!(s.tenant_loads(), vec![(0, 2)]);
    }

    #[test]
    fn quota_caps_a_tenants_concurrent_slots() {
        let quotas = vec![("alice".to_string(), 1)];
        let tenants = vec![Some("alice"), Some("alice"), None];
        let mut s = Scheduler::new(&tenants, &quotas, 3, 16);
        assert_eq!(s.claim(0, 0), Claim::Run(0));
        // Job 1 is alice's too: blocked while job 0 runs; worker 1
        // falls through to the unconstrained job 2 instead.
        assert_eq!(s.claim(1, 0), Claim::Run(2));
        assert_eq!(s.claim(2, 0), Claim::Wait);
        s.finish(0);
        assert_eq!(s.claim(2, 0), Claim::Run(1));
    }

    #[test]
    fn spawn_window_is_global_back_pressure() {
        let mut s = Scheduler::new(&free(4), &[], 4, 2);
        assert!(matches!(s.claim(0, 0), Claim::Run(_)));
        assert!(matches!(s.claim(1, 0), Claim::Run(_)));
        assert_eq!(s.claim(2, 0), Claim::Wait);
        s.finish(0);
        assert!(matches!(s.claim(2, 0), Claim::Run(_)));
    }

    #[test]
    fn backoff_defers_until_not_before() {
        let mut s = Scheduler::new(&free(1), &[], 1, 4);
        assert_eq!(s.claim(0, 0), Claim::Run(0));
        s.requeue(0, 0, 500);
        assert_eq!(s.claim(0, 499), Claim::Wait);
        assert_eq!(s.claim(0, 500), Claim::Run(0));
    }

    #[test]
    fn requeued_work_is_stealable_rebalancing() {
        let mut s = Scheduler::new(&free(2), &[], 2, 4);
        assert_eq!(s.claim(0, 0), Claim::Run(0));
        assert_eq!(s.claim(1, 0), Claim::Run(1));
        // Worker 0 requeues its job (soft deadline); worker 1, now
        // idle, steals the remainder.
        s.requeue(0, 0, 0);
        s.finish(1);
        assert_eq!(s.claim(1, 0), Claim::Run(0));
    }

    #[test]
    fn done_only_after_every_job_is_terminal() {
        let mut s = Scheduler::new(&free(2), &[], 1, 4);
        assert_eq!(s.claim(0, 0), Claim::Run(0));
        s.requeue(0, 0, 100);
        assert_eq!(s.claim(0, 0), Claim::Run(1));
        s.finish(1);
        assert_eq!(s.outstanding, 1);
        assert_eq!(s.claim(0, 50), Claim::Wait, "job 0 deferred, not done");
        assert_eq!(s.claim(0, 100), Claim::Run(0));
        s.finish(0);
        assert_eq!(s.claim(0, 100), Claim::Done);
    }

    #[test]
    fn unknown_tenant_is_unconstrained() {
        // Spec validation rejects unknown tenants; the queue itself
        // degrades to "no quota" rather than panicking.
        let mut s = Scheduler::new(&[Some("ghost")], &[], 1, 4);
        assert_eq!(s.claim(0, 0), Claim::Run(0));
    }
}
