//! Leader election — the preamble the paper (and \[PRS16\]) *assumes away*.
//!
//! Elkin's algorithm starts from a designated root `rt`. In the clean
//! network model, electing such a root deterministically costs real
//! messages: the classic *FloodMax with echo* (propagation of information
//! with feedback, suppressed by higher ids) elects the maximum-id vertex
//! in `O(D)` rounds but up to `O(D·m)` messages — which would dominate the
//! paper's `O(m log n + n log n log* n)` message budget on low-diameter
//! dense graphs. This module implements that election so the cost is
//! *measurable* (see `examples/` and tests) rather than hand-waved; the
//! main runner keeps the designated-root assumption, as the literature
//! does.
//!
//! Protocol: every vertex starts as a candidate and floods `Propose{id}`.
//! A vertex adopting a larger id re-floods it and owes its wave-parent an
//! ack once all its other neighbors have responded (`Ack` as a completed
//! child, or an immediate `Ack` if they already carry the same id and are
//! not its child). Waves carrying smaller ids are silently absorbed, so
//! only the maximum id's echo ever completes; its initiator then floods
//! `Elected`.

use congest_sim::{
    Message, Network, NodeInfo, NodeProgram, PortId, RoundCtx, RunConfig, RunStats, SimError,
    Topology,
};
use dmst_graphs::WeightedGraph;

/// Wire protocol of the election.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LeadMsg {
    /// A candidate wave carrying the best id seen so far.
    Propose {
        /// The candidate id.
        id: u64,
    },
    /// Echo for the wave `id`: the sender's subtree has fully adopted it
    /// (or the sender already carried `id` and is not our child).
    Ack {
        /// The wave this ack belongs to.
        id: u64,
    },
    /// The completed candidate announces itself.
    Elected {
        /// The leader's id.
        id: u64,
    },
}

impl Message for LeadMsg {
    fn tag(&self) -> &'static str {
        match self {
            LeadMsg::Propose { .. } => "lead:propose",
            LeadMsg::Ack { .. } => "lead:ack",
            LeadMsg::Elected { .. } => "lead:elected",
        }
    }

    fn encode(&self, w: &mut congest_sim::WireWriter<'_>) {
        // All three carry one vertex id, which packs into the tag word.
        match self {
            LeadMsg::Propose { id } => {
                w.tag(0);
                w.pack(*id);
            }
            LeadMsg::Ack { id } => {
                w.tag(1);
                w.pack(*id);
            }
            LeadMsg::Elected { id } => {
                w.tag(2);
                w.pack(*id);
            }
        }
    }

    fn decode(r: &mut congest_sim::WireReader<'_>) -> Self {
        match r.tag() {
            0 => LeadMsg::Propose { id: r.packed() },
            1 => LeadMsg::Ack { id: r.packed() },
            2 => LeadMsg::Elected { id: r.packed() },
            other => unreachable!("unknown LeadMsg wire tag {other}"),
        }
    }
}

/// Per-vertex election state machine.
#[derive(Clone, Debug)]
pub struct LeaderNode {
    id: u64,
    deg: usize,
    best: u64,
    parent: Option<PortId>,
    pending: usize,
    acked: bool,
    leader: Option<u64>,
}

impl LeaderNode {
    /// Builds the program for one vertex.
    pub fn new(info: NodeInfo<'_>) -> Self {
        Self {
            id: info.id as u64,
            deg: info.ports.len(),
            best: info.id as u64,
            parent: None,
            pending: info.ports.len(),
            acked: false,
            leader: None,
        }
    }

    /// The elected leader, once known.
    pub fn leader(&self) -> Option<u64> {
        self.leader
    }

    /// Echo bookkeeping: when all owed responses are in, ack our parent —
    /// or, at the initiator of the winning wave, declare victory.
    fn maybe_echo(&mut self, ctx: &mut RoundCtx<'_, LeadMsg>) {
        if self.acked || self.pending > 0 || self.leader.is_some() {
            return;
        }
        self.acked = true;
        match self.parent {
            Some(q) => ctx.send(q, LeadMsg::Ack { id: self.best }),
            None => {
                // Our own wave completed: we are the maximum.
                debug_assert_eq!(self.best, self.id);
                self.leader = Some(self.id);
                for q in 0..self.deg {
                    ctx.send(q, LeadMsg::Elected { id: self.id });
                }
            }
        }
    }
}

impl NodeProgram for LeaderNode {
    type Msg = LeadMsg;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, LeadMsg>) {
        if ctx.round() == 0 {
            if self.deg == 0 {
                self.leader = Some(self.id);
                return;
            }
            for q in 0..self.deg {
                ctx.send(q, LeadMsg::Propose { id: self.id });
            }
        }
        let inbox = ctx.inbox();

        // Adopt at most once per round — the largest proposed id — so the
        // re-flood stays within the per-edge budget even when many waves
        // arrive together (e.g. at a star center).
        let adopt = inbox
            .iter()
            .filter_map(|(p, m)| match m {
                LeadMsg::Propose { id } if *id > self.best => Some((*id, *p)),
                _ => None,
            })
            .max();
        if let Some((id, port)) = adopt {
            self.best = id;
            self.parent = Some(port);
            self.pending = self.deg - 1;
            self.acked = false;
            for q in 0..self.deg {
                if q != port {
                    ctx.send(q, LeadMsg::Propose { id });
                }
            }
            self.maybe_echo(ctx);
        }

        for &(port, ref msg) in inbox {
            match *msg {
                LeadMsg::Propose { id } => {
                    // Same wave from a non-parent neighbor: immediate ack.
                    // The one propose we just adopted from is our parent —
                    // it gets the deferred child echo instead. (Waves below
                    // `best` are absorbed silently; their initiators adopt
                    // a bigger id before ever needing the echo.)
                    if id == self.best && Some((id, port)) != adopt {
                        ctx.send(port, LeadMsg::Ack { id });
                    }
                }
                LeadMsg::Ack { id } => {
                    if id == self.best && self.pending > 0 {
                        self.pending -= 1;
                        self.maybe_echo(ctx);
                    }
                }
                LeadMsg::Elected { id } => {
                    if self.leader.is_none() {
                        self.leader = Some(id);
                        for q in 0..self.deg {
                            if q != port {
                                ctx.send(q, LeadMsg::Elected { id });
                            }
                        }
                    }
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.leader.is_some()
    }
}

/// Result of a leader election.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectionRun {
    /// The elected leader (always the maximum vertex id).
    pub leader: u64,
    /// Rounds and messages the election consumed.
    pub stats: RunStats,
}

/// Elects a leader on `g` by FloodMax-with-echo and reports the cost.
///
/// # Errors
///
/// Fails on disconnected inputs (no common leader is reachable) or if the
/// simulation errs.
pub fn elect_leader(g: &WeightedGraph) -> Result<ElectionRun, SimError> {
    let topo = Topology::new(g.num_nodes(), g.edges())?;
    if !topo.is_connected() {
        return Err(SimError::InvalidTopology("election requires a connected graph".into()));
    }
    let mut net = Network::new(topo, LeaderNode::new);
    let cfg = RunConfig { max_rounds: 100_000 + 50 * g.num_nodes() as u64, ..RunConfig::default() };
    let stats = net.run(&cfg)?;
    let expect = g.num_nodes() as u64 - 1;
    for (v, nd) in net.nodes().iter().enumerate() {
        assert_eq!(
            nd.leader(),
            Some(expect),
            "vertex {v} elected {:?}, expected the maximum id {expect}",
            nd.leader()
        );
    }
    Ok(ElectionRun { leader: expect, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmst_graphs::generators as gen;

    #[test]
    fn elects_max_on_families() {
        let r = &mut gen::WeightRng::new(1);
        for (label, g) in [
            ("path", gen::path(40, r)),
            ("cycle", gen::cycle(31, r)),
            ("star", gen::star(25, r)),
            ("complete", gen::complete(15, r)),
            ("grid", gen::grid_2d(6, 7, r)),
            ("random", gen::random_connected(50, 120, r)),
            ("single", gen::path(1, r)),
        ] {
            let run = elect_leader(&g).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(run.leader, g.num_nodes() as u64 - 1, "{label}");
        }
    }

    #[test]
    fn cost_exceeds_edge_count_on_adversarial_order() {
        // Decreasing-id path: every wave travels before being suppressed —
        // the quadratic-ish worst case that motivates the designated-root
        // assumption.
        let r = &mut gen::WeightRng::new(2);
        let g = gen::path(120, r);
        let run = elect_leader(&g).unwrap();
        assert!(
            run.stats.messages > 4 * g.num_edges() as u64,
            "expected super-linear message cost, got {}",
            run.stats.messages
        );
    }

    #[test]
    fn deterministic() {
        let r = &mut gen::WeightRng::new(3);
        let g = gen::random_connected(40, 100, r);
        assert_eq!(elect_leader(&g).unwrap(), elect_leader(&g).unwrap());
    }
}
