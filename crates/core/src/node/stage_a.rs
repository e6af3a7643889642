//! Stage A: BFS tree construction, size/height convergecast, parameter
//! broadcast (paper §3, the auxiliary tree `τ` and its preprocessing).
//!
//! The parameter broadcast also hands out the routing intervals: each
//! child's `Params` carries the first slot of its interval, cut from the
//! parent's by the subtree sizes the convergecast just gathered. Every
//! vertex therefore holds its slot before Stage B starts.
//!
//! Costs: `O(D)` rounds (BFS wave down, convergecast up, broadcast down) and
//! `O(m)` messages (each edge carries at most one `Bfs` per direction plus
//! `O(n)` tree messages), matching the paper's accounting for this step.

use congest_sim::RoundCtx;

use crate::intervals;
use crate::msg::Msg;
use crate::schedule::{
    choose_k, choose_k_adaptive, sqrt_nb, MergeControl, Params, Schedule, ScheduleMode,
};

use super::{ElkinNode, Stage};

impl ElkinNode {
    pub(crate) fn a_handle(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let round = ctx.round();
        for &(port, ref msg) in ctx.inbox() {
            match *msg {
                Msg::Bfs => {
                    if !self.a.seen {
                        self.a.seen = true;
                        self.depth = round;
                        self.bfs_parent = Some(port);
                        self.a.close_round = round + 2;
                        ctx.send(port, Msg::BfsChild);
                        for p in 0..self.deg {
                            if p != port {
                                ctx.send(p, Msg::Bfs);
                            }
                        }
                    }
                }
                Msg::BfsChild => {
                    self.bfs_children.push(port);
                }
                Msg::SizeUp { size, height } => {
                    let idx = self
                        .bfs_children
                        .iter()
                        .position(|&p| p == port)
                        .expect("SizeUp only arrives from registered children");
                    self.child_sizes[idx] = size;
                    self.a.acc_size += size;
                    self.a.acc_height = self.a.acc_height.max(height + 1);
                    self.a.size_pending -= 1;
                    if self.a.size_pending == 0 {
                        self.a_report(ctx);
                    }
                }
                Msg::Params { n, h, k, t0, start } => {
                    self.a_adopt_params(ctx, Params { n, h, k, t0 }, start);
                }
                _ => unreachable!("stage A received {msg:?}"),
            }
        }
    }

    pub(crate) fn a_act(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let round = ctx.round();

        // Kick-off: the designated root starts the BFS wave at round 0.
        if round == 0 && self.is_bfs_root() {
            self.a.seen = true;
            self.depth = 0;
            self.a.close_round = 2;
            if self.deg == 0 {
                // Single-vertex graph: the MST is empty and we are done.
                self.finished = true;
                return;
            }
            for p in 0..self.deg {
                ctx.send(p, Msg::Bfs);
            }
        }

        // Two rounds after our own BFS send, all `BfsChild` replies are in.
        if self.a.seen && !self.a.closed && round == self.a.close_round {
            self.a.closed = true;
            self.a.size_pending = self.bfs_children.len();
            self.child_sizes = vec![0; self.bfs_children.len()];
            if self.a.size_pending == 0 {
                self.a_report(ctx);
            }
        }

        // Stage B begins at the globally agreed round t0.
        if let Some(p) = self.params {
            if round == p.t0 {
                self.stage = Stage::B;
                self.milestones.entered_b = round;
                self.b_enter(ctx);
            }
        }
    }

    /// Subtree complete: report to the parent, or — at the BFS root —
    /// finalize the global parameters and broadcast them.
    fn a_report(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        debug_assert!(!self.a.reported);
        self.a.reported = true;
        let size = self.a.acc_size + 1;
        let height = self.a.acc_height;
        if let Some(parent) = self.bfs_parent {
            ctx.send(parent, Msg::SizeUp { size, height });
        } else {
            // BFS root: size is n, height is H.
            let n = size;
            let h = height;
            let b = self.cfg.bandwidth;
            let k = self.cfg.k_override.unwrap_or_else(|| {
                match (self.cfg.schedule_mode, self.cfg.merge_control) {
                    (ScheduleMode::Fixed, _) => choose_k(n, h, b),
                    (ScheduleMode::Adaptive, MergeControl::Matched) => choose_k_adaptive(n, h, b),
                    // Uncontrolled merging's nominal Θ(n) flood windows
                    // would mislead the round-cost model.
                    (ScheduleMode::Adaptive, MergeControl::Uncontrolled) => sqrt_nb(n, b),
                }
            });
            let t0 = ctx.round() + h + 2;
            self.a_adopt_params(ctx, Params { n, h, k, t0 }, 0);
        }
    }

    /// Adopt the global parameters and my interval's first slot `start`
    /// (the root's interval is `[0, n)`), then pass both on: each BFS
    /// child gets the start of its sub-interval.
    fn a_adopt_params(&mut self, ctx: &mut RoundCtx<'_, Msg>, params: Params, start: u64) {
        // `Params` only arrives after my own `SizeUp`, so `child_sizes`
        // is complete.
        debug_assert!(self.a.reported);
        self.slot = start;
        self.child_ivs = intervals::assign_children(start, &self.child_sizes);
        let Params { n, h, k, t0 } = params;
        for (&(start, _), &q) in self.child_ivs.iter().zip(&self.bfs_children) {
            ctx.send(q, Msg::Params { n, h, k, t0, start });
        }
        self.sched = Some(Schedule::new(&params, self.cfg.merge_control, self.cfg.schedule_mode));
        self.params = Some(params);
    }
}
