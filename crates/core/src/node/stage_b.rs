//! Stage B: Controlled-GHS on the fixed round schedule (paper §4).
//!
//! Each phase `i` (participation radius `p = 2^i`) runs the windows laid out
//! in [`Schedule`](crate::schedule::Schedule):
//!
//! 1. **Announce** — every vertex refreshes `(fragment id, own id)` to all
//!    neighbors.
//! 2. **Probe** — fragment roots launch a depth-`p` budgeted
//!    broadcast/convergecast computing the fragment MWOE; subtrees deeper
//!    than the budget report *overflow*, excluding tall fragments
//!    (participation = height ≤ p, so every fragment of diameter ≤ p
//!    participates; see DESIGN.md).
//! 3. **Connect** — participating roots flood `Participate`, route
//!    `MwoePath` along the argmin path, and the MWOE endpoint fires
//!    `ConnectReq` across the edge, registering a *foreign child* on the
//!    other side. Mutual-MWOE pairs resolve parenthood by higher fragment
//!    id (paper §4).
//! 4. **Kids** — convergecast: does this fragment have any foreign child?
//!    (needed by the Cole–Vishkin recolor step).
//! 5. **Exchange × X** — Cole–Vishkin 3-coloring of the fragment forest:
//!    each exchange broadcasts the fragment color, crosses child MWOEs, and
//!    routes the parent color back to the child's root.
//! 6. **Collect / Accept / Status × 3** — maximal matching, one color class
//!    at a time: roots of class-`c` unmatched fragments pick their smallest
//!    unmatched foreign child and notify it; new statuses propagate.
//! 7. **MergeGo / MergeFlood** — unmatched fragments merge along their
//!    MWOEs; the merged fragment's new root (higher-id endpoint of the
//!    matched pair, or the untouched root of a non-participating fragment)
//!    floods `NewFrag`, re-orienting parent pointers and installing the new
//!    fragment id. Every edge that joins two fragments is marked MST at
//!    both endpoints the moment it is used.
//!
//! Between window edges everything is message-driven (`b_handle`). The
//! spontaneous actions happen only at window edges, and only where
//! [`ElkinNode::b_duty`] holds: it is the single guard of `b_dispatch`
//! and the predicate the wake hint `b_next_wake` walks, so a vertex with
//! an empty inbox is stepped exactly at the edges where it has work.
//! Both schedule modes share one phase-relative path: Fixed mode is the
//! case in which every phase ends on schedule at its nominal start.

use congest_sim::{PortId, RoundCtx};

use crate::candidate::CandKey;
use crate::cv;
use crate::msg::Msg;
use crate::schedule::{ExchangeKind, MergeControl, Schedule, Slot, Window};

use super::{BScratch, ElkinNode, Sel, Stage};

impl ElkinNode {
    /// Called once when Stage B begins (round `t0`).
    pub(crate) fn b_enter(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let sched = self.sched.expect("schedule set with params");
        // Zero-phase schedules (k = 1) fall straight through to Stage C.
        if sched.num_phases() == 0 {
            self.stage = Stage::CD;
            self.cd_enter(ctx);
            return;
        }
        self.b_phase = 0;
        self.b_phase_start = ctx.round();
        self.b_act(ctx);
    }

    pub(crate) fn b_handle(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        for &(port, ref msg) in ctx.inbox() {
            match *msg {
                Msg::FragAnnounce { frag, me } => {
                    self.ports.set_nbr_frag(port, frag);
                    self.ports.set_nbr_id(port, me);
                }
                Msg::Probe { ttl } => self.b_probe_receive(ctx, port, ttl),
                Msg::MwoeUp { cand, overflow } => {
                    self.b.overflow |= overflow;
                    if let Some(k) = cand {
                        if self.b.agg.is_none_or(|a| k < a) {
                            self.b.agg = Some(k);
                            self.b.sel = Sel::Child(port);
                        }
                    }
                    self.b.probe_pending -= 1;
                    if self.b.probe_pending == 0 {
                        self.b_probe_complete(ctx);
                    }
                }
                Msg::Participate => {
                    if !self.b.participating {
                        self.b.participating = true;
                        for &p in &self.frag_children.clone() {
                            ctx.send(p, Msg::Participate);
                        }
                    }
                }
                Msg::MwoePath => match self.b.sel {
                    Sel::Mine(q) => {
                        self.b.out_port = Some(q);
                        ctx.send(q, Msg::ConnectReq { child_frag: self.frag_id });
                    }
                    Sel::Child(c) => ctx.send(c, Msg::MwoePath),
                    Sel::None => unreachable!("MwoePath reached a subtree without a candidate"),
                },
                Msg::ConnectReq { child_frag } => {
                    self.b.foreign_child[port] = Some((child_frag, false));
                }
                Msg::KidsUp { has } => {
                    self.b.kids_agg |= has;
                    self.b.kids_pending -= 1;
                    if self.b.kids_pending == 0 {
                        self.b_kids_complete(ctx);
                    }
                }
                Msg::ColorDown { color } => {
                    self.b.color = color;
                    for &p in &self.frag_children.clone() {
                        ctx.send(p, Msg::ColorDown { color });
                    }
                    self.b_cross_color(ctx, color);
                }
                Msg::ColorCross { color } => {
                    if Some(port) == self.b.out_port {
                        if self.is_frag_root() {
                            self.b.parent_color = Some(color);
                        } else {
                            let up = self.frag_parent.expect("non-root has a fragment parent");
                            ctx.send(up, Msg::ColorUp { color });
                        }
                    }
                }
                Msg::ColorUp { color } => {
                    if self.is_frag_root() {
                        self.b.parent_color = Some(color);
                    } else {
                        let up = self.frag_parent.expect("non-root has a fragment parent");
                        ctx.send(up, Msg::ColorUp { color });
                    }
                }
                Msg::UnmatchedUp { child } => {
                    if let Some(c) = child {
                        if self.b.col_agg.is_none_or(|a| c < a) {
                            self.b.col_agg = Some(c);
                            self.b.col_sel = Sel::Child(port);
                        }
                    }
                    self.b.col_pending -= 1;
                    if self.b.col_pending == 0 {
                        self.b_collect_complete(ctx);
                    }
                }
                Msg::AcceptPath => match self.b.col_sel {
                    Sel::Mine(q) => {
                        self.b.matched_port = Some(q);
                        self.ports.mark_mst(q);
                        ctx.send(q, Msg::AcceptCross { parent_frag: self.frag_id });
                    }
                    Sel::Child(c) => ctx.send(c, Msg::AcceptPath),
                    Sel::None => unreachable!("AcceptPath reached a subtree without a candidate"),
                },
                Msg::AcceptCross { parent_frag } => {
                    self.b.matched_port = Some(port);
                    self.ports.mark_mst(port);
                    if self.is_frag_root() {
                        self.b.matched = true;
                        self.b.newly_matched = true;
                        self.b.partner = Some(parent_frag);
                    } else {
                        let up = self.frag_parent.expect("non-root has a fragment parent");
                        ctx.send(up, Msg::MatchedUp { partner: parent_frag });
                    }
                }
                Msg::MatchedUp { partner } => {
                    if self.is_frag_root() {
                        // In matched mode: our fragment was picked by its
                        // forest parent. In uncontrolled mode: our MWOE is
                        // mutual; `partner` decides who initiates the flood.
                        self.b.matched = true;
                        self.b.newly_matched = true;
                        self.b.partner = Some(partner);
                    } else {
                        let up = self.frag_parent.expect("non-root has a fragment parent");
                        ctx.send(up, Msg::MatchedUp { partner });
                    }
                }
                Msg::StatusDown => {
                    for &p in &self.frag_children.clone() {
                        ctx.send(p, Msg::StatusDown);
                    }
                    self.b_status_duties(ctx);
                }
                Msg::StatusCross => {
                    if let Some((_, matched)) = &mut self.b.foreign_child[port] {
                        *matched = true;
                    }
                }
                Msg::MergePath => match self.b.sel {
                    Sel::Mine(q) => {
                        self.ports.mark_mst(q);
                        ctx.send(q, Msg::MergeCross);
                    }
                    Sel::Child(c) => ctx.send(c, Msg::MergePath),
                    Sel::None => unreachable!("MergePath reached a subtree without a candidate"),
                },
                Msg::MergeCross => {
                    self.ports.mark_mst(port);
                    self.b.merge_ports.push(port);
                    if self.cfg.merge_control == MergeControl::Uncontrolled
                        && Some(port) == self.b.out_port
                    {
                        // Mutual MWOE: tell the root so the higher-id side
                        // can initiate the flood.
                        let partner = self.ports.nbr_frag(port);
                        if self.is_frag_root() {
                            self.b.partner = Some(partner);
                        } else {
                            let up = self.frag_parent.expect("non-root has a fragment parent");
                            ctx.send(up, Msg::MatchedUp { partner });
                        }
                    }
                }
                Msg::NewFrag { id } => self.b_flood_receive(ctx, port, id),
                Msg::FloodAck { phase } => {
                    debug_assert_eq!(phase, self.b_phase, "stale flood ack");
                    debug_assert!(self.b.ack_pending > 0, "unexpected flood ack");
                    self.b.ack_pending -= 1;
                    if self.b.ack_pending == 0 {
                        if let Some(fp) = self.b.flood_from {
                            // My whole flood subtree is re-oriented: ack up
                            // and settle.
                            ctx.send(fp, Msg::FloodAck { phase });
                            self.b.settled = true;
                        } else if self.b.participating {
                            // Flood initiator: the merged cluster is done.
                            self.b.settled = true;
                        }
                        // Adopters (!participating) settle via the
                        // SyncNoFlood broadcast of their own fragment root.
                    }
                }
                Msg::SyncNoFlood { phase } => {
                    debug_assert_eq!(phase, self.b_phase, "stale no-flood signal");
                    debug_assert!(!self.b.flooded, "SyncNoFlood entered a flooded fragment");
                    if !self.b.settled {
                        self.b.settled = true;
                        self.b_send_no_flood(ctx, phase);
                    }
                }
                Msg::SyncUp { phase } => {
                    debug_assert_eq!(phase, self.b_phase, "stale sync report");
                    self.b.sync_recv += 1;
                }
                Msg::SyncStart { phase, start } => {
                    debug_assert!(
                        self.b_next.is_none_or(|n| n == (phase, start)),
                        "conflicting SyncStart"
                    );
                    self.b_next = Some((phase, start));
                    for &q in &self.bfs_children.clone() {
                        ctx.send(q, Msg::SyncStart { phase, start });
                    }
                }
                _ => unreachable!("stage B received {msg:?}"),
            }
        }
    }

    /// Applies any due phase transition (scheduled end or agreed
    /// `SyncStart`), then dispatches the slot relative to the current phase
    /// start; sync-ended phases run the settle protocol during their
    /// open-ended merge-flood window. Fixed mode is the case where every
    /// phase ends on schedule, at its nominal start.
    pub(crate) fn b_act(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let sched = self.sched.expect("schedule set in stage B");
        let round = ctx.round();

        if let Some((phase, start)) = self.b_next {
            if round == start {
                self.b_next = None;
                if phase >= sched.num_phases() {
                    self.stage = Stage::CD;
                    self.cd_enter(ctx);
                    return;
                }
                self.b_phase = phase;
                self.b_phase_start = start;
            }
        } else if !sched.sync_phase(self.b_phase)
            && round == self.b_phase_start + sched.phase_len(self.b_phase)
        {
            // Scheduled phase end: every vertex advances simultaneously.
            let next = self.b_phase + 1;
            if next >= sched.num_phases() {
                self.stage = Stage::CD;
                self.cd_enter(ctx);
                return;
            }
            self.b_phase = next;
            self.b_phase_start = round;
        }

        let slot = sched.locate_rel(self.b_phase, round - self.b_phase_start);
        self.b_dispatch(ctx, &sched, slot);
        if slot.window == Window::MergeFlood && sched.sync_phase(self.b_phase) {
            self.b_sync_tick(ctx);
        }
    }

    /// Idle-skip hint for Stage B (the `NodeProgram::next_wake` contract):
    /// the next round at which `b_act` does anything with an empty inbox.
    ///
    /// `b_dispatch` acts only where [`Self::b_duty`] holds, and the duty
    /// holds only at window edges, so the hint walks the remaining edges of
    /// the current phase and stops at the first duty; failing that, the
    /// scheduled phase end (the next Announce, or Stage C). This is exact
    /// because every field `b_duty` reads changes only on message receipt
    /// or at this vertex's own step, and both recompute the hint. An agreed
    /// `SyncStart` (`b_next`) takes priority. A sync-ended phase has no
    /// scheduled end: `b_sync_tick`'s guards also change only on receipt
    /// or at an own step, so after the last duty the vertex sleeps until
    /// mail arrives.
    pub(crate) fn b_next_wake(&self, after: u64) -> Option<u64> {
        let sched = self.sched.as_ref()?;
        if let Some((_, start)) = self.b_next {
            return Some(start);
        }
        let (phase, start) = (self.b_phase, self.b_phase_start);
        let rel = after.checked_sub(start)?;
        match sched.next_edge(phase, rel, |slot| self.b_duty(slot)) {
            Some(edge) => Some(start + edge),
            None => (!sched.sync_phase(phase)).then(|| start + sched.phase_len(phase)),
        }
    }

    /// Whether this vertex has anything to do at `slot` with an empty
    /// inbox: the single guard of [`Self::b_dispatch`] and the predicate
    /// the wake hint walks. False everywhere except at window edges.
    pub(crate) fn b_duty(&self, slot: Slot) -> bool {
        let first = slot.offset == 0;
        let root = self.is_frag_root();
        let b = &self.b;
        let part_root = b.participating && root;
        match slot.window {
            Window::Announce => true,
            Window::Probe => first && root,
            Window::Connect => {
                (first && root && b.probed && b.probe_pending == 0 && !b.overflow)
                    || (slot.last && b.out_port.is_some())
            }
            Window::Kids | Window::MatchCollect(_) => first && b.participating,
            Window::Exchange(_) => (first || slot.last) && part_root,
            Window::MatchAccept(c) => first && part_root && b.color == u64::from(c) && !b.matched,
            Window::MatchStatus(_) => first && part_root && b.newly_matched,
            Window::MergeGo => {
                let fire = match self.cfg.merge_control {
                    MergeControl::Matched => !b.matched,
                    MergeControl::Uncontrolled => true,
                };
                first && part_root && fire && b.sel != Sel::None
            }
            Window::MergeFlood => first,
        }
    }

    /// Executes one scheduled round: the window actions of `slot`, if
    /// [`Self::b_duty`] holds there.
    fn b_dispatch(&mut self, ctx: &mut RoundCtx<'_, Msg>, sched: &Schedule, slot: Slot) {
        if !self.b_duty(slot) {
            return;
        }
        match slot.window {
            Window::Announce => {
                debug_assert!(slot.offset == 0);
                self.b = BScratch {
                    foreign_child: vec![None; self.deg],
                    color: self.frag_id,
                    prev_color: self.frag_id,
                    ..BScratch::default()
                };
                for q in 0..self.deg {
                    ctx.send(q, Msg::FragAnnounce { frag: self.frag_id, me: self.id });
                }
            }
            Window::Probe => self.b_probe_start(ctx, sched.radius(slot.phase)),
            Window::Connect => {
                // Connect windows span >= 3 rounds, so the duty holds at
                // offset 0 only under the root's participation guard.
                if slot.offset == 0 {
                    self.b.participating = true;
                    for &q in &self.frag_children.clone() {
                        ctx.send(q, Msg::Participate);
                    }
                    match self.b.sel {
                        Sel::Mine(q) => {
                            self.b.out_port = Some(q);
                            ctx.send(q, Msg::ConnectReq { child_frag: self.frag_id });
                        }
                        Sel::Child(c) => ctx.send(c, Msg::MwoePath),
                        Sel::None => {} // no outgoing edge: whole graph is one fragment
                    }
                }
                if slot.last {
                    // Mutual-MWOE resolution: if the neighbor fragment on my
                    // own out-edge has the higher id, it is my parent, not my
                    // child.
                    if let Some(q) = self.b.out_port {
                        if self.b.foreign_child[q].is_some()
                            && self.ports.nbr_frag(q) > self.frag_id
                        {
                            self.b.foreign_child[q] = None;
                        }
                    }
                }
            }
            Window::Kids => {
                self.b.kids_pending = self.frag_children.len();
                if self.b.kids_pending == 0 {
                    self.b_kids_complete(ctx);
                }
            }
            Window::Exchange(x) => {
                if slot.offset == 0 {
                    let color = self.b.color;
                    for &q in &self.frag_children.clone() {
                        ctx.send(q, Msg::ColorDown { color });
                    }
                    self.b_cross_color(ctx, color);
                }
                if slot.last {
                    self.b_exchange_eval(sched.exchange_kind(x));
                }
            }
            Window::MatchCollect(_) => {
                self.b.col_agg = None;
                self.b.col_sel = Sel::None;
                if let Some(q) = self.b_local_unmatched_child() {
                    self.b.col_agg = Some(self.b.foreign_child[q].expect("just found").0);
                    self.b.col_sel = Sel::Mine(q);
                }
                self.b.col_pending = self.frag_children.len();
                if self.b.col_pending == 0 {
                    self.b_collect_complete(ctx);
                }
            }
            Window::MatchAccept(_) => {
                if let Some(child) = self.b.col_agg {
                    self.b.matched = true;
                    self.b.newly_matched = true;
                    self.b.partner = Some(child);
                    match self.b.col_sel {
                        Sel::Mine(q) => {
                            self.b.matched_port = Some(q);
                            self.ports.mark_mst(q);
                            ctx.send(q, Msg::AcceptCross { parent_frag: self.frag_id });
                        }
                        Sel::Child(ch) => ctx.send(ch, Msg::AcceptPath),
                        Sel::None => unreachable!("col_agg implies a selection"),
                    }
                }
            }
            Window::MatchStatus(_) => {
                self.b.newly_matched = false;
                for &q in &self.frag_children.clone() {
                    ctx.send(q, Msg::StatusDown);
                }
                self.b_status_duties(ctx);
            }
            Window::MergeGo => match self.b.sel {
                Sel::Mine(q) => {
                    self.ports.mark_mst(q);
                    ctx.send(q, Msg::MergeCross);
                }
                Sel::Child(c) => ctx.send(c, Msg::MergePath),
                Sel::None => unreachable!("b_duty requires a selection"),
            },
            Window::MergeFlood => {
                let sync = sched.sync_phase(slot.phase);
                let initiator = match self.cfg.merge_control {
                    // Higher-id root of the matched pair floods.
                    MergeControl::Matched => {
                        self.b.participating
                            && self.is_frag_root()
                            && self.b.matched
                            && self.b.partner.is_some_and(|pid| pid < self.frag_id)
                    }
                    // Higher-id side of the (unique) mutual MWOE floods.
                    MergeControl::Uncontrolled => {
                        self.b.participating
                            && self.is_frag_root()
                            && self.b.partner.is_some_and(|pid| pid < self.frag_id)
                    }
                };
                if initiator {
                    self.b_flood_init(ctx, sync);
                } else if !self.b.participating && !self.b.merge_ports.is_empty() {
                    // Big-fragment attachment points adopt the pendants
                    // without re-flooding their own fragment.
                    let id = self.frag_id;
                    let ports = self.b.merge_ports.clone();
                    for &q in &ports {
                        ctx.send(q, Msg::NewFrag { id });
                        if !self.frag_children.contains(&q) {
                            self.frag_children.push(q);
                        }
                    }
                    if sync {
                        self.b.ack_pending = ports.len();
                        self.b.flood_fwd = ports;
                    }
                    self.b.merge_ports.clear();
                }
                if sync
                    && !initiator
                    && self.is_frag_root()
                    && !(self.b.participating && (self.b.matched || self.b.sel != Sel::None))
                {
                    // No merge flood can enter this fragment (it is
                    // non-participating, or participating but unmatched
                    // with no outgoing edge): settle the whole fragment.
                    self.b.settled = true;
                    self.b_send_no_flood(ctx, slot.phase);
                }
            }
        }
    }

    /// Whether the current phase ends by the sync protocol (adaptive mode,
    /// flood window worse than a tree sync).
    fn b_sync_active(&self) -> bool {
        self.sched.is_some_and(|s| s.sync_phase(self.b_phase))
    }

    /// Broadcasts `SyncNoFlood` to the old fragment children, skipping any
    /// port the merge flood was forwarded on (adoption edges), so the
    /// signal can never race ahead of a flood.
    fn b_send_no_flood(&mut self, ctx: &mut RoundCtx<'_, Msg>, phase: u32) {
        for &q in &self.frag_children.clone() {
            if !self.b.flood_fwd.contains(&q) {
                ctx.send(q, Msg::SyncNoFlood { phase });
            }
        }
    }

    /// Sync-phase settle evaluation, run every merge-flood round after
    /// message handling: once this vertex is quiet (settled, no outstanding
    /// flood acks) and its whole BFS subtree has reported, report `SyncUp`
    /// to the BFS parent — or, at the BFS root, end the phase by
    /// broadcasting `SyncStart` with a start round far enough out that the
    /// broadcast reaches every vertex first.
    fn b_sync_tick(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        if self.b.sync_sent
            || !self.b.settled
            || self.b.ack_pending != 0
            || self.b.sync_recv != self.bfs_children.len()
        {
            return;
        }
        self.b.sync_sent = true;
        let phase = self.b_phase;
        if let Some(parent) = self.bfs_parent {
            ctx.send(parent, Msg::SyncUp { phase });
        } else {
            let h = self.params.expect("params set in stage B").h;
            let next = phase + 1;
            let start = ctx.round() + h + 1;
            self.b_next = Some((next, start));
            for &q in &self.bfs_children.clone() {
                ctx.send(q, Msg::SyncStart { phase: next, start });
            }
        }
    }

    // ---- probe / MWOE ----

    fn b_local_candidate(&self) -> (Option<CandKey>, Sel) {
        let mut best: Option<CandKey> = None;
        let mut sel = Sel::None;
        for q in 0..self.deg {
            if self.ports.nbr_frag(q) != self.frag_id && self.ports.nbr_frag(q) != super::UNKNOWN {
                let k = CandKey::new(self.ports.weight(q), self.id, self.ports.nbr_id(q));
                if best.is_none_or(|b| k < b) {
                    best = Some(k);
                    sel = Sel::Mine(q);
                }
            }
        }
        (best, sel)
    }

    fn b_probe_start(&mut self, ctx: &mut RoundCtx<'_, Msg>, p: u64) {
        self.b.probed = true;
        let (best, sel) = self.b_local_candidate();
        self.b.agg = best;
        self.b.sel = sel;
        self.b.probe_pending = self.frag_children.len();
        if self.b.probe_pending == 0 {
            return; // complete: singleton or leaf-root
        }
        let ttl = (p - 1) as u32;
        for &q in &self.frag_children.clone() {
            ctx.send(q, Msg::Probe { ttl });
        }
    }

    fn b_probe_receive(&mut self, ctx: &mut RoundCtx<'_, Msg>, port: PortId, ttl: u32) {
        debug_assert!(!self.b.probed, "duplicate probe within a phase");
        debug_assert_eq!(Some(port), self.frag_parent);
        self.b.probed = true;
        let (best, sel) = self.b_local_candidate();
        self.b.agg = best;
        self.b.sel = sel;
        if self.frag_children.is_empty() {
            ctx.send(port, Msg::MwoeUp { cand: self.b.agg, overflow: false });
            self.b.responded = true;
        } else if ttl == 0 {
            // Fragment extends beyond the participation radius.
            ctx.send(port, Msg::MwoeUp { cand: self.b.agg, overflow: true });
            self.b.responded = true;
        } else {
            self.b.probe_pending = self.frag_children.len();
            for &q in &self.frag_children.clone() {
                ctx.send(q, Msg::Probe { ttl: ttl - 1 });
            }
        }
    }

    fn b_probe_complete(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        if self.is_frag_root() || self.b.responded {
            return;
        }
        self.b.responded = true;
        let up = self.frag_parent.expect("non-root has a fragment parent");
        ctx.send(up, Msg::MwoeUp { cand: self.b.agg, overflow: self.b.overflow });
    }

    // ---- kids convergecast ----

    fn b_kids_complete(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let local = self.b.foreign_child.iter().any(Option::is_some);
        let has = self.b.kids_agg || local;
        if self.is_frag_root() {
            self.b.has_kids = has;
        } else {
            let up = self.frag_parent.expect("non-root has a fragment parent");
            ctx.send(up, Msg::KidsUp { has });
        }
    }

    // ---- Cole–Vishkin exchanges ----

    /// Forward my fragment's color over every cross edge on which a foreign
    /// child registered.
    fn b_cross_color(&mut self, ctx: &mut RoundCtx<'_, Msg>, color: u64) {
        for q in 0..self.deg {
            if self.b.foreign_child[q].is_some() {
                ctx.send(q, Msg::ColorCross { color });
            }
        }
    }

    fn b_exchange_eval(&mut self, kind: ExchangeKind) {
        let parent = self.b.parent_color.take();
        match kind {
            ExchangeKind::Ladder => {
                self.b.color = match parent {
                    Some(pc) => cv::cv_step(self.b.color, pc),
                    None => cv::cv_step_root(self.b.color),
                };
            }
            ExchangeKind::ShiftDown(_) => {
                self.b.prev_color = self.b.color;
                self.b.color = match parent {
                    Some(pc) => cv::shift_down(pc),
                    None => cv::shift_down_root(self.b.color),
                };
            }
            ExchangeKind::Recolor(class) => {
                if self.b.color == class {
                    let children = self.b.has_kids.then_some(self.b.prev_color);
                    self.b.color = cv::recolor(parent, children);
                }
            }
        }
    }

    // ---- matching ----

    /// My smallest unmatched registered foreign child, by fragment id.
    fn b_local_unmatched_child(&self) -> Option<PortId> {
        let mut best: Option<(u64, PortId)> = None;
        for q in 0..self.deg {
            if let Some((id, matched)) = self.b.foreign_child[q] {
                if !matched && best.is_none_or(|(b, _)| id < b) {
                    best = Some((id, q));
                }
            }
        }
        best.map(|(_, q)| q)
    }

    fn b_collect_complete(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        if self.is_frag_root() {
            return; // aggregate stays local; used in the Accept window
        }
        let up = self.frag_parent.expect("non-root has a fragment parent");
        ctx.send(up, Msg::UnmatchedUp { child: self.b.col_agg });
    }

    fn b_status_duties(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        for q in 0..self.deg {
            if self.b.foreign_child[q].is_some() {
                ctx.send(q, Msg::StatusCross);
            }
        }
        if let Some(q) = self.b.out_port {
            ctx.send(q, Msg::StatusCross);
        }
    }

    // ---- merge flood ----

    fn b_flood_init(&mut self, ctx: &mut RoundCtx<'_, Msg>, sync: bool) {
        self.b.flooded = true;
        let mut fwd = self.frag_children.clone();
        for &q in &self.b.merge_ports {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        if let Some(q) = self.b.matched_port {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        self.frag_parent = None;
        self.frag_children = fwd.clone();
        let id = self.frag_id;
        if sync {
            self.b.ack_pending = fwd.len();
            self.b.flood_fwd = fwd.clone();
            if fwd.is_empty() {
                self.b.settled = true;
            }
        }
        for q in fwd {
            ctx.send(q, Msg::NewFrag { id });
        }
    }

    fn b_flood_receive(&mut self, ctx: &mut RoundCtx<'_, Msg>, port: PortId, id: u64) {
        debug_assert!(self.b.participating, "flood entered a non-participating fragment");
        let sync = self.b_sync_active();
        if self.b.flooded {
            // Duplicate floods cannot occur (the merge structure is a
            // forest), but never leave a sync-phase sender waiting.
            debug_assert!(false, "duplicate NewFrag at vertex {}", self.id);
            if sync {
                ctx.send(port, Msg::FloodAck { phase: self.b_phase });
            }
            return;
        }
        self.b.flooded = true;
        let mut fwd: Vec<PortId> = Vec::new();
        if let Some(q) = self.frag_parent {
            fwd.push(q);
        }
        for &q in &self.frag_children {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        for &q in &self.b.merge_ports {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        if let Some(q) = self.b.matched_port {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        fwd.retain(|&q| q != port);
        self.frag_id = id;
        self.frag_parent = Some(port);
        self.frag_children = fwd.clone();
        if sync {
            self.b.flood_from = Some(port);
            self.b.ack_pending = fwd.len();
            self.b.flood_fwd = fwd.clone();
            if fwd.is_empty() {
                // Flood leaf: re-oriented and quiet; ack and settle now.
                ctx.send(port, Msg::FloodAck { phase: self.b_phase });
                self.b.settled = true;
            }
        }
        for q in fwd {
            ctx.send(q, Msg::NewFrag { id });
        }
    }
}
