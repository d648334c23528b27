//! Lease epochs and fencing: at-most-once result accounting.
//!
//! Every remote attempt of a job runs under a lease epoch. Issuing a
//! new lease bumps the job's epoch; revoking (a coordinator-side
//! timeout, stall, requeue, or a dead connection) closes the current
//! one. A result frame settles only if it carries the job's *current,
//! still-open* epoch — a partitioned worker that finishes after its
//! lease was reassigned presents a stale epoch and is **fenced**; a
//! duplicated delivery of an already-settled result presents a closed
//! epoch and is a **duplicate**. Both are rejected, never
//! double-applied, which is what keeps the campaign's retry accounting
//! exact under every network failure the chaos harness throws.
//!
//! The table is plain data (no locks, no clocks), so the fencing policy
//! is unit-testable without sockets.

/// What happened when a result tried to settle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settle {
    /// The current open lease: the result is accepted, the lease
    /// closes.
    Ok,
    /// A stale epoch — the lease was reassigned while this worker was
    /// partitioned. Rejected.
    Fenced,
    /// The current epoch, but the lease already settled or was revoked
    /// — a duplicated or post-revocation delivery. Rejected.
    Duplicate,
}

/// Per-job lease state for one campaign.
pub struct LeaseTable {
    /// Epoch of the most recently issued lease per job (`None` before
    /// the first issue).
    epoch: Vec<Option<u64>>,
    /// Whether the current lease is still open (unsettled, unrevoked).
    open: Vec<bool>,
}

impl LeaseTable {
    pub fn new(jobs: usize) -> Self {
        LeaseTable {
            epoch: vec![None; jobs],
            open: vec![false; jobs],
        }
    }

    /// Issue a new lease for `job`, fencing off every earlier epoch.
    /// Returns the new epoch.
    pub fn issue(&mut self, job: usize) -> u64 {
        let next = match self.epoch[job] {
            None => 0,
            Some(e) => e + 1,
        };
        self.epoch[job] = Some(next);
        self.open[job] = true;
        next
    }

    /// Close the current lease without a result (timeout, stall,
    /// requeue, dead connection). A result for this epoch arriving
    /// later is rejected as a duplicate; a result for an older epoch
    /// as fenced.
    pub fn revoke(&mut self, job: usize) {
        self.open[job] = false;
    }

    /// Try to settle a result for `(job, epoch)`.
    pub fn settle(&mut self, job: usize, epoch: u64) -> Settle {
        match self.epoch[job] {
            Some(current) if epoch == current => {
                if self.open[job] {
                    self.open[job] = false;
                    Settle::Ok
                } else {
                    Settle::Duplicate
                }
            }
            // Older epoch, or a result for a job never leased (a
            // confused or malicious peer): fenced either way.
            _ => Settle::Fenced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_monotonic_per_job() {
        let mut t = LeaseTable::new(2);
        assert_eq!(t.issue(0), 0);
        assert_eq!(t.issue(0), 1);
        assert_eq!(t.issue(1), 0, "jobs have independent epoch streams");
        assert_eq!(t.issue(0), 2);
    }

    #[test]
    fn current_open_lease_settles_exactly_once() {
        let mut t = LeaseTable::new(1);
        let e = t.issue(0);
        assert_eq!(t.settle(0, e), Settle::Ok);
        // The duplicated delivery of the same result must be rejected.
        assert_eq!(t.settle(0, e), Settle::Duplicate);
        assert_eq!(t.settle(0, e), Settle::Duplicate, "and every later copy");
    }

    #[test]
    fn late_result_after_reassignment_is_fenced() {
        // The partition scenario: worker A holds epoch 0, the
        // coordinator gives up on it and reassigns (epoch 1), worker B
        // settles, then A's late result finally arrives.
        let mut t = LeaseTable::new(1);
        let a = t.issue(0);
        t.revoke(0); // coordinator declared A lost
        let b = t.issue(0);
        assert_eq!(t.settle(0, b), Settle::Ok);
        assert_eq!(t.settle(0, a), Settle::Fenced, "A's ghost must be fenced");
        assert_eq!(t.settle(0, b), Settle::Duplicate, "B settled exactly once");
    }

    #[test]
    fn result_racing_a_revocation_is_rejected() {
        // The revoke was *decided* (table updated) but the worker's
        // result frame was already in flight: same epoch, closed lease.
        let mut t = LeaseTable::new(1);
        let e = t.issue(0);
        t.revoke(0);
        assert_eq!(t.settle(0, e), Settle::Duplicate);
        // The reassigned attempt is unaffected.
        let e2 = t.issue(0);
        assert_eq!(t.settle(0, e2), Settle::Ok);
        assert_eq!(
            t.settle(0, e),
            Settle::Fenced,
            "the revoked epoch is now stale"
        );
    }

    #[test]
    fn result_for_a_never_leased_job_is_fenced() {
        let mut t = LeaseTable::new(1);
        assert_eq!(t.settle(0, 0), Settle::Fenced);
    }

    #[test]
    fn future_epoch_is_fenced_not_trusted() {
        // A peer claiming an epoch the coordinator never issued is
        // lying; reject rather than settle.
        let mut t = LeaseTable::new(1);
        t.issue(0);
        assert_eq!(t.settle(0, 17), Settle::Fenced);
    }
}
