//! The paper's §3.7 install/split signal equations, as an independent
//! oracle over the start-of-cycle scheduling-list state.
//!
//! The hardware evaluates, for every candidate instruction *i* (counted
//! from the head of the list), comparator outputs
//!
//! * `Td(i)`/`Rd(i)`/`Od(i)`: true/resource/output dependency on the
//!   *installed* instructions of element *i−1*,
//! * `CTd(i)`/`CRd(i)`/`COd(i)`: the same dependencies caused *only* by
//!   the candidate of element *i−1* (whose fate is not yet known),
//! * `Ad(i)`: anti dependency on instructions of element *i* itself,
//! * `Cd(i)`: control dependency (a branch in element *i*),
//!
//! and combines them with a carry-lookahead-style chain:
//!
//! ```text
//! install(i) = (i==0) + Td(i) + Rd(i) + (CTd(i)+CRd(i))·resolved(i-1)
//! split(i)   = Od(i) + Ad(i) + Cd(i) + COd(i)·resolved(i-1)   [install wins]
//! ```
//!
//! Four clarifications the paper leaves implicit are encoded here and
//! checked against the executable scheduler on real traces
//! (`tests/signal_oracle.rs`):
//!
//! 1. `resolved(i-1)` must be true when candidate *i−1* **splits** as
//!    well as when it installs — a split leaves a COPY writing the
//!    original locations in (and keeping the slot of) element *i−1*, so
//!    the dependency and the resource pressure both persist. The paper's
//!    equations chain only the install signal.
//! 2. The COPY a split leaves behind writes only the outputs that were
//!    renamed (all of them for a control split), so after a split of
//!    candidate *i−1* the `CTd(i)`/`COd(i)` comparators see those
//!    outputs alone.
//! 3. When candidate *i−1* splits, candidate *i*'s matching register
//!    sources are redirected to the renaming registers (the paper's
//!    Figure 2 shows `subcc r32, 4*x-1, r0`), which removes the
//!    corresponding `CTd(i)` term. Redirection can be ablated.
//! 4. With multicycle units (the companion paper's extension), a latency
//!    term `Ld(i)` installs a candidate that would land closer to a
//!    multicycle producer than its latency, counting producers at the
//!    places this cycle's earlier resolutions leave them. A split that
//!    would rename a non-renameable output (`%y`, the window pointer),
//!    split a multicycle operation, or run with splitting ablated
//!    installs instead.

use crate::block::{ScheduledInstr, SlotOp};
use crate::scheduler::{ElemView, Resolution, ResolveEvent, SchedConfig, Scheduler};
use dtsvliw_isa::{ResList, Resource};

/// Signals for one candidate, straight from the comparators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Signals {
    pub td: bool,
    pub rd: bool,
    pub od: bool,
    pub ad: bool,
    pub cd: bool,
    pub ctd: bool,
    pub crd: bool,
    pub cod: bool,
    /// Latency dependency: a multicycle producer would be too close.
    pub ld: bool,
    /// The split the other signals call for cannot happen (a
    /// non-renameable or multicycle output, or splitting ablated):
    /// forces install.
    pub unsplittable: bool,
}

/// Predict this cycle's resolutions from the current list state, without
/// mutating it. Returns one event per candidate, head to tail — the same
/// order [`Scheduler::tick`] resolves them in.
pub fn predict(s: &Scheduler) -> Vec<ResolveEvent> {
    let cfg = s.config();
    let view = s.view();
    // Each element's resolution this cycle, and the writes of the COPY a
    // split left behind there.
    let mut res: Vec<Option<Resolution>> = vec![None; view.len()];
    let mut copy_writes = vec![ResList::new(); view.len()];
    let mut out = Vec::new();
    for i in 0..view.len() {
        let Some((op, _)) = view[i].candidate_op() else {
            continue;
        };
        let resolution = if i == 0 {
            Resolution::Install
        } else {
            let resolved = matches!(res[i - 1], Some(Resolution::Install | Resolution::Split));
            let (sig, renamed) = signals_for(cfg, &view, &res, &copy_writes, i);
            let install = sig.td
                || sig.rd
                || ((sig.ctd || sig.crd) && resolved)
                || sig.ld
                || sig.unsplittable;
            let split = sig.od || sig.ad || sig.cd || (sig.cod && resolved);
            if install {
                Resolution::Install
            } else if split && !renamed.is_empty() {
                copy_writes[i] = renamed;
                Resolution::Split
            } else {
                Resolution::MoveUp
            }
        };
        res[i] = Some(resolution);
        out.push(ResolveEvent {
            elem: i,
            seq: op.d.seq,
            resolution,
        });
    }
    out
}

/// The comparator outputs for the candidate of element `i`, given the
/// resolutions already decided above it this cycle, plus the outputs a
/// split would rename.
fn signals_for(
    cfg: &SchedConfig,
    view: &[ElemView],
    res: &[Option<Resolution>],
    copy_writes: &[ResList],
    i: usize,
) -> (Signals, ResList) {
    let (op, my_slot) = view[i].candidate_op().expect("a candidate");
    let above = &view[i - 1];
    let skip = above.candidate;
    let prev = res[i - 1];
    // What the candidate above leaves in its companion slot if it
    // stays: itself, or the COPY of its renamed outputs.
    let companion_writes = match (above.candidate_op(), prev) {
        (Some(_), Some(Resolution::Split)) => Some(copy_writes[i - 1]),
        (Some((c, _)), _) => Some(c.writes),
        (None, _) => None,
    };

    // Effective reads: a split above redirects matching register
    // sources to renaming registers, which conflict with nothing in
    // element i-1, so they drop out.
    let reads: ResList = if prev == Some(Resolution::Split) && cfg.enable_redirect {
        let redirected = copy_writes[i - 1];
        op.reads
            .iter()
            .filter(|r| {
                !redirected
                    .iter()
                    .any(|w| !matches!(w, Resource::Mem { .. }) && w == *r)
            })
            .copied()
            .collect()
    } else {
        op.reads
    };

    let mut sig = Signals::default();
    let class = op.d.instr.fu_class();
    let installed_above = || {
        above
            .li
            .slots()
            .enumerate()
            .filter(move |(slot, _)| Some(*slot) != skip)
            .filter_map(|(_, o)| o)
    };
    let own = || {
        view[i]
            .li
            .slots()
            .enumerate()
            .filter(move |(slot, _)| *slot != my_slot)
            .filter_map(|(_, o)| o)
    };

    // Installed-instruction comparisons in element i-1 (companion slot
    // of the candidate above disabled, §3.7) and candidate-above ones.
    sig.td = installed_above().any(|o| o.writes().intersects(&reads));
    sig.od = installed_above().any(|o| o.writes().intersects(&op.writes));
    if let Some(cw) = companion_writes {
        sig.ctd = cw.intersects(&reads);
        sig.cod = cw.intersects(&op.writes);
    }

    // Resource signals: free slots in i-1 accepting this class.
    let free = above
        .li
        .slots()
        .enumerate()
        .filter(|(slot, o)| {
            o.is_none() && Some(*slot) != skip && cfg.slot_classes[*slot].accepts(class)
        })
        .count();
    let companion_accepting = skip.is_some_and(|slot| cfg.slot_classes[slot].accepts(class));
    if free == 0 {
        if companion_accepting {
            sig.crd = true;
        } else {
            sig.rd = true;
        }
    }

    // Own-element comparisons.
    sig.ad = own().any(|o| o.reads().intersects(&op.writes));
    sig.cd = own().any(|o| o.is_branch());

    sig.ld = cfg.latencies.max() > 1 && latency_dep(cfg, view, res, i, &reads);

    // The outputs a split would rename: all of them for a control
    // split, else those with an output or anti dependency.
    let resolved = matches!(prev, Some(Resolution::Install | Resolution::Split));
    let renamed: ResList = if sig.cd {
        op.writes
    } else {
        op.writes
            .iter()
            .filter(|w| {
                installed_above().any(|o| o.writes().contains_conflict(w))
                    || own().any(|o| o.reads().contains_conflict(w))
                    || (resolved && companion_writes.is_some_and(|cw| cw.contains_conflict(w)))
            })
            .copied()
            .collect()
    };
    sig.unsplittable = !renamed.is_empty()
        && (!cfg.enable_splitting
            || renamed.iter().any(|w| !w.renameable())
            || cfg.latencies.of(&op.d.instr) > 1);
    (sig, renamed)
}

/// `Ld(i)`: would the candidate of element `i`, reading `reads`, land
/// in element i-1 closer to a multicycle producer than its latency?
/// Producers are counted where this cycle's earlier resolutions leave
/// them: a candidate that moves up is one element higher. (Multicycle
/// operations never split, so a COPY or a renamed form has latency 1.)
fn latency_dep(
    cfg: &SchedConfig,
    view: &[ElemView],
    res: &[Option<Resolution>],
    i: usize,
    reads: &ResList,
) -> bool {
    let too_close = |o: &ScheduledInstr, dist: usize| {
        cfg.latencies.of(&o.d.instr) as usize > dist && o.writes.intersects(reads)
    };
    for dist in 1..cfg.latencies.max() as usize {
        let Some(j) = (i - 1).checked_sub(dist) else {
            break;
        };
        let e = &view[j];
        let stays = |slot: usize| Some(slot) != e.candidate || res[j] == Some(Resolution::Install);
        let here = e.li.slots().enumerate().any(|(slot, o)| {
            stays(slot) && matches!(o, Some(SlotOp::Instr(op)) if too_close(op, dist))
        });
        let arrived = res[j + 1] == Some(Resolution::MoveUp)
            && view[j + 1]
                .candidate_op()
                .is_some_and(|(op, _)| too_close(op, dist));
        if here || arrived {
            return true;
        }
    }
    false
}
