//! A reference upper envelope, written from §3.2's six steps and sharing
//! no code with `tapesim_sched::envelope`: no extension cache, no reused
//! buffers, no timing table. Every locate and read is priced by
//! [`DriveModel::locate`](tapesim::model::DriveModel::locate) and
//! [`DriveModel::read_block`](tapesim::model::DriveModel::read_block) at
//! the moment it is needed, and every step rescans the whole snapshot.
//! It is slow on purpose: the tests compare the scheduler's envelope and
//! assignment against it, field for field.

use tapesim::model::{LocateDirection, Micros, ReadContext, SlotIndex, TapeId};
use tapesim::sched::{JukeboxView, UpperEnvelope};
use tapesim::workload::Request;

/// The envelope, assignment and per-tape counts of a computation in
/// progress.
struct State {
    env: Vec<u32>,
    assigned: Vec<Option<TapeId>>,
    counts: Vec<u32>,
}

/// The upper envelope of `pending` (a snapshot in which every request has
/// a copy on an available tape), computed from §3.2's six steps.
pub fn reference_upper_envelope(view: &JukeboxView<'_>, pending: &[Request]) -> UpperEnvelope {
    let tapes = usize::from(view.catalog.geometry().tapes);
    let mut st = State {
        env: vec![0; tapes],
        assigned: vec![None; pending.len()],
        counts: vec![0; tapes],
    };
    // Step 1: requests for non-replicated blocks pin the initial
    // envelope, and the head pins the mounted tape's.
    for r in pending {
        if let [only] = view.catalog.replicas(r.block) {
            if view.is_available(only.tape) {
                let e = &mut st.env[only.tape.index()];
                *e = (*e).max(only.slot.0 + 1);
            }
        }
    }
    if let Some(m) = view.mounted {
        st.env[m.index()] = st.env[m.index()].max(view.head.0);
    }
    // Step 2: absorb what the envelope already covers.
    absorb(view, pending, &mut st);
    // Steps 3-6: extend along the best prefix, shrink, re-absorb, repeat.
    while st.assigned.contains(&None) {
        extend(view, pending, &mut st);
        shrink(view, pending, &mut st);
        absorb(view, pending, &mut st);
    }
    UpperEnvelope {
        env: st.env,
        assigned: st.assigned.into_iter().map(Option::unwrap).collect(),
        counts: st.counts,
    }
}

/// The tape a request covered by several envelopes joins: the mounted
/// tape, else the one with the most requests, else the first in jukebox
/// order from the mounted tape (tape 0 when none is mounted).
fn preferred_tape(
    view: &JukeboxView<'_>,
    st: &State,
    inside: impl Iterator<Item = TapeId>,
) -> Option<TapeId> {
    let geometry = view.catalog.geometry();
    let anchor = view.mounted.unwrap_or(TapeId(0));
    let mut best: Option<(u32, u16, TapeId)> = None;
    for t in inside {
        if view.mounted == Some(t) {
            return Some(t);
        }
        let key = (st.counts[t.index()], geometry.circular_distance(anchor, t));
        let wins = match best {
            None => true,
            Some((c, d, _)) => key.0 > c || (key.0 == c && key.1 < d),
        };
        if wins {
            best = Some((key.0, key.1, t));
        }
    }
    best.map(|(_, _, t)| t)
}

/// Tapes on which `r` has a copy inside the current envelope.
fn covering_tapes<'a>(
    view: &'a JukeboxView<'_>,
    st: &'a State,
    r: &Request,
) -> impl Iterator<Item = TapeId> + 'a {
    view.catalog
        .replicas(r.block)
        .iter()
        .filter(|a| view.is_available(a.tape) && a.slot.0 < st.env[a.tape.index()])
        .map(|a| a.tape)
}

/// Step 2: every unassigned request covered by the envelope joins its
/// preferred covering tape, in snapshot order.
fn absorb(view: &JukeboxView<'_>, pending: &[Request], st: &mut State) {
    for (i, r) in pending.iter().enumerate() {
        if st.assigned[i].is_some() {
            continue;
        }
        if let Some(t) = preferred_tape(view, st, covering_tapes(view, st, r)) {
            st.assigned[i] = Some(t);
            st.counts[t.index()] += 1;
        }
    }
}

/// Locate from `from` to `to`, then read the block there.
fn locate_and_read(view: &JukeboxView<'_>, from: SlotIndex, to: SlotIndex) -> Micros {
    let drive = &view.timing.drive;
    let block = view.catalog.block_size();
    let (locate, dir) = drive.locate(from, to, block);
    let ctx = match dir {
        Some(LocateDirection::Forward) => ReadContext::AfterForwardLocate,
        Some(LocateDirection::Reverse) => ReadContext::AfterReverseLocate,
        None => ReadContext::Streaming,
    };
    locate + drive.read_block(block, ctx)
}

/// Steps 3-4: price every prefix of every available tape's extension
/// list by its incremental bandwidth, and extend along the best one.
fn extend(view: &JukeboxView<'_>, pending: &[Request], st: &mut State) {
    let block = view.catalog.block_size();
    // (bandwidth, count on the tape, tape, outermost slot of the prefix)
    let mut best: Option<(f64, u32, TapeId, SlotIndex)> = None;
    for t in view.catalog.geometry().tape_ids() {
        if !view.is_available(t) {
            continue;
        }
        // Step 3: the extension list, the distinct slots on `t` of the
        // requests no envelope covers yet.
        let mut list: Vec<SlotIndex> = pending
            .iter()
            .zip(&st.assigned)
            .filter(|(_, a)| a.is_none())
            .filter_map(|(r, _)| view.catalog.copy_on_tape(r.block, t))
            .map(|a| a.slot)
            .collect();
        list.sort_unstable();
        list.dedup();
        // Step 4: walk out from the boundary through each prefix and
        // back; an empty envelope off the mounted tape also pays a switch.
        let boundary = SlotIndex(st.env[t.index()]);
        let mut walked = if boundary == SlotIndex::BOT && view.mounted != Some(t) {
            view.timing.switch_time()
        } else {
            Micros::ZERO
        };
        let mut head = boundary;
        for (k, &slot) in list.iter().enumerate() {
            walked += locate_and_read(view, head, slot);
            head = slot.next();
            let (back, _) = view.timing.drive.locate(head, boundary, block);
            let bw = (walked + back).bytes_per_sec((k as u64 + 1) * block.bytes());
            let count = st.counts[t.index()];
            let wins = match best {
                None => true,
                Some((b, c, bt, _)) => bw > b || (bw == b && (count > c || (count == c && t < bt))),
            };
            if wins {
                best = Some((bw, count, t, slot));
            }
        }
    }
    let (_, _, t, edge) = best.expect("an unassigned request has a copy on an available tape");
    for (i, r) in pending.iter().enumerate() {
        if st.assigned[i].is_none()
            && view
                .catalog
                .copy_on_tape(r.block, t)
                .is_some_and(|a| a.slot <= edge)
        {
            st.assigned[i] = Some(t);
            st.counts[t.index()] += 1;
        }
    }
    st.env[t.index()] = st.env[t.index()].max(edge.0 + 1);
}

/// Step 5: while some tape's outermost block is replicated inside another
/// envelope, move it there and pull the tape's boundary back. The tape
/// with the fewest requests shrinks first, then the lowest-numbered.
fn shrink(view: &JukeboxView<'_>, pending: &[Request], st: &mut State) {
    loop {
        let mut pick: Option<(u32, TapeId, TapeId)> = None;
        for a in view.catalog.geometry().tape_ids() {
            let edge = st.env[a.index()];
            if edge == 0 || (view.mounted == Some(a) && view.head.0 >= edge) {
                continue;
            }
            // The first request (in snapshot order) on `a` at its edge.
            let Some(r) = pending.iter().zip(&st.assigned).find_map(|(r, &t)| {
                let at_edge = view
                    .catalog
                    .copy_on_tape(r.block, a)
                    .is_some_and(|x| x.slot.0 + 1 == edge);
                (t == Some(a) && at_edge).then_some(r)
            }) else {
                continue;
            };
            if view.catalog.replicas(r.block).len() < 2 {
                continue;
            }
            let elsewhere = covering_tapes(view, st, r).filter(|&t| t != a);
            let Some(b) = preferred_tape(view, st, elsewhere) else {
                continue;
            };
            let count = st.counts[a.index()];
            let wins = match pick {
                None => true,
                Some((c, pa, _)) => count < c || (count == c && a < pa),
            };
            if wins {
                pick = Some((count, a, b));
            }
        }
        let Some((_, a, b)) = pick else { return };
        let edge = st.env[a.index()];
        for (i, r) in pending.iter().enumerate() {
            let on_a = st.assigned[i] == Some(a);
            if on_a
                && view
                    .catalog
                    .copy_on_tape(r.block, a)
                    .is_some_and(|x| x.slot.0 + 1 == edge)
            {
                st.assigned[i] = Some(b);
                st.counts[a.index()] -= 1;
                st.counts[b.index()] += 1;
            }
        }
        // The new boundary: just past `a`'s outermost remaining request,
        // or the head on the mounted tape.
        let mut boundary = pending
            .iter()
            .zip(&st.assigned)
            .filter(|(_, t)| **t == Some(a))
            .filter_map(|(r, _)| view.catalog.copy_on_tape(r.block, a))
            .map(|x| x.slot.0 + 1)
            .max()
            .unwrap_or(0);
        if view.mounted == Some(a) {
            boundary = boundary.max(view.head.0);
        }
        assert!(boundary < edge, "a shrink must pull the boundary back");
        st.env[a.index()] = boundary;
    }
}
