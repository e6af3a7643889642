//! The round-driven network executor.
//!
//! The executor advances the network in synchronous rounds over flat arena
//! state indexed by the topology's CSR port numbering: one `u64` word ring
//! per *directed edge* buffers in-flight messages in their wire encoding
//! (no `Msg` values are stored — sends [`Message::encode`] into the ring,
//! drains [`Message::decode`] back out), one stamped [`EdgeMeter`] per
//! directed edge meters bandwidth, and per-node stamps track mail,
//! termination, and stage-tag transitions incrementally. Per-round cost is
//! proportional to the nodes that act and the messages that move — never to
//! `n` itself.
//!
//! # Sharded execution
//!
//! [`RunConfig::shards`] `> 1` partitions nodes into contiguous id ranges,
//! one worker thread per extra shard. Each shard exclusively owns its nodes
//! and the rings of its *inbound* ports; cross-shard messages travel as
//! per-round *word blocks* over channels — length-framed encoded messages
//! that delivery routes by header alone and appends to the destination
//! rings without decoding. Because every ring has exactly one writer (one directed edge, one
//! sender) and a receiver drains its rings in ascending-neighbor order, each
//! inbox comes out exactly as the sequential executor builds it — messages
//! grouped per sender in FIFO blocks, senders in ascending id order — no
//! matter how the shard batches interleave. Results are therefore
//! bit-identical for every shard count; the dual-executor proptests in
//! `tests/` hold the engine to that contract. (After an *error* return the
//! node states of shards past the offending one may have advanced further
//! than under sequential execution; successful runs are always identical.)
//!
//! # Idle skipping
//!
//! [`NodeProgram::next_wake`] lets a program promise it will not act
//! spontaneously before a given round. The executor then steps a node only
//! when mail arrives or its wake round is due, and fast-forwards whole
//! rounds when the network is globally idle, attributing the skipped rounds
//! to the current stage census exactly as if they had been executed. Only
//! the latest hint of a node is live: a hint superseded by a later step
//! never fires. The default hint (`Some(0)`) reproduces the legacy
//! step-every-round behavior.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{self, Receiver, Sender};

use crate::config::{CapacityMode, RunConfig};
use crate::error::SimError;
use crate::message::{Message, WireReader, WireWriter};
use crate::stats::{RunStats, TagStats};
use crate::topology::{NodeId, Port, PortId, Topology};

/// What a node is told at construction time: its identity and its local
/// ports (incident edges with weights). This is the *clean network model*:
/// neighbor identities are not included; protocols learn them by talking.
#[derive(Clone, Copy, Debug)]
pub struct NodeInfo<'a> {
    /// This node's identity.
    pub id: NodeId,
    /// This node's incident ports (neighbor field is for instrumentation
    /// only; see [`Port`]).
    pub ports: &'a [Port],
}

/// A per-node protocol state machine.
///
/// The simulator calls [`on_round`](NodeProgram::on_round) for every node in
/// every round, passing the messages that arrived at the start of the round.
/// Messages sent during a round are delivered at the start of the next round
/// (synchronous CONGEST semantics). A program that implements
/// [`next_wake`](NodeProgram::next_wake) may be *skipped* in rounds where it
/// promised to be a no-op; the observable behavior is identical either way.
pub trait NodeProgram {
    /// The protocol's message type.
    type Msg: Message;

    /// Executes one synchronous round: read [`RoundCtx::inbox`], update local
    /// state, and [`RoundCtx::send`] messages for next-round delivery.
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>);

    /// Local termination flag. The simulation halts when every node reports
    /// `true` *and* no messages are in flight. A node may be reawakened by a
    /// later message even after reporting done.
    fn is_done(&self) -> bool;

    /// Which protocol stage this node is currently in, as a short static
    /// tag (e.g. `"a"`, `"b"`, ...). The network attributes each executed
    /// round to the smallest non-empty tag reported across all nodes
    /// ([`RunStats::rounds_by_stage`]), so a round counts toward a stage
    /// until the *last* node has left it. The default (empty string)
    /// disables attribution for this node.
    fn stage_tag(&self) -> &'static str {
        ""
    }

    /// Wake hint: the earliest round strictly after `after` (the round just
    /// executed for this node) at which this node might act *spontaneously*
    /// — i.e. do anything other than nothing when its inbox is empty.
    ///
    /// Contract: if this returns `Some(w)` (with `w > after`), then calling
    /// [`on_round`](NodeProgram::on_round) with an empty inbox in any round
    /// `r` with `after < r < w` must leave the node's entire observable
    /// state unchanged and send nothing. `None` promises the node is purely
    /// message-driven until further notice. Arrival of a message always
    /// wakes a node regardless of the hint, and every step asks for a fresh
    /// hint that replaces the previous one: the executor keeps one live
    /// wake per node, so a superseded hint never fires and, with an empty
    /// inbox, a node is stepped only at the round its latest hint names.
    ///
    /// The default, `Some(0)`, requests a step every round — the legacy
    /// behavior, always safe. Returning accurate hints is purely a
    /// performance optimization; the executors cross-check hinted and
    /// unhinted runs for bit-identical results.
    fn next_wake(&self, after: u64) -> Option<u64> {
        let _ = after;
        Some(0)
    }
}

/// Per-round execution context handed to [`NodeProgram::on_round`].
#[derive(Debug)]
pub struct RoundCtx<'a, M: Message> {
    round: u64,
    id: NodeId,
    ports: &'a [Port],
    inbox: &'a [(PortId, M)],
    topo: &'a Topology,
    /// Global directed-port index of this node's port 0.
    base: usize,
    outbox: &'a mut Outbox,
}

impl<'a, M: Message> RoundCtx<'a, M> {
    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This node's identity.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of incident ports (the node's degree).
    #[inline]
    pub fn degree(&self) -> usize {
        self.ports.len()
    }

    /// Weight of the edge behind port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn weight(&self, p: PortId) -> u64 {
        self.ports[p].weight
    }

    /// Messages that arrived this round, as `(port, message)` pairs in
    /// deterministic order: grouped per sending neighbor in contiguous FIFO
    /// blocks, neighbors in ascending node-id order (the order the
    /// sequential executor produces by stepping senders in id order).
    ///
    /// The slice borrows the executor's buffer, not the context, so a
    /// program can iterate it while calling [`RoundCtx::send`].
    #[inline]
    pub fn inbox(&self) -> &'a [(PortId, M)] {
        self.inbox
    }

    /// Sends `msg` over port `p`, to be delivered next round. The message
    /// is encoded on the spot and its encoded length is charged to the
    /// edge direction's per-round budget; under
    /// [`CapacityMode::Strict`] an overrun fails the run with
    /// [`SimError::CapacityExceeded`] once this step returns. An encoding
    /// of zero words fails the run with [`SimError::EmptyMessage`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn send(&mut self, p: PortId, msg: M) {
        assert!(p < self.ports.len(), "send on nonexistent port {p}");
        self.outbox.push(self.topo, self.round, self.id, self.base + p, &msg, false);
    }

    /// Sends `msg` over port `p` only if its encoding fits in what remains
    /// of [`RunConfig::capacity_words`] on that edge direction this round,
    /// counting every earlier send on the port; otherwise sends nothing
    /// and hands `msg` back. The budget applies under either
    /// [`CapacityMode`], so a pipeline that drains through `try_send`
    /// never oversubscribes an edge.
    ///
    /// # Errors
    ///
    /// Returns `Err(msg)`, unchanged, when the message does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn try_send(&mut self, p: PortId, msg: M) -> Result<(), M> {
        assert!(p < self.ports.len(), "send on nonexistent port {p}");
        if self.outbox.push(self.topo, self.round, self.id, self.base + p, &msg, true) {
            Ok(())
        } else {
            Err(msg)
        }
    }
}

/// Messages crossing a shard boundary in one round, already encoded: a
/// flat word block of `[header, payload...]*` frames in sender-step
/// order. The header word holds the destination global directed port in
/// bits `0..32` and the payload length in words in bits `32..64`, so
/// delivery can route each frame without decoding it.
type WordBatch = Vec<u64>;

/// Builds one batch frame header (see [`WordBatch`]).
#[inline]
fn frame_header(dest_port: u32, len: usize) -> u64 {
    u64::from(dest_port) | ((len as u64) << 32)
}

/// Receiver-owned wire buffer for one inbound directed edge: encoded
/// message words appended in sender FIFO order, decoded back into
/// messages when the owning node drains its ports. `head` is the read
/// cursor during a drain; between rounds the ring is empty and `head`
/// is 0. No `Msg` values are ever stored — the ring *is* the wire.
#[derive(Default)]
struct WordRing {
    words: Vec<u64>,
    head: usize,
}

/// Executor knobs shared by every shard, resolved once per run.
#[derive(Clone, Copy, Debug)]
struct EngineCfg {
    capacity: u64,
    strict: bool,
    wake_hints: bool,
    /// Nodes per shard: `shard_of(v) = v / chunk`.
    chunk: usize,
    num_shards: usize,
}

/// What a shard reports to the coordinator after executing one round.
struct RoundSummary {
    round_messages: u64,
    done: u64,
    census: Vec<(&'static str, u64)>,
    next_due: Option<u64>,
    error: Option<SimError>,
}

/// Run-total counters a shard accumulates locally and surrenders at halt.
#[derive(Debug, Default)]
struct ShardTotals {
    messages: u64,
    words: u64,
    peak_edge_words: u64,
    by_tag: Vec<(&'static str, TagStats)>,
}

enum Decision {
    Round(u64),
    Halt,
}

/// Channel ends connecting one shard to every other shard: `to`/`from`
/// carry round word batches, `ret_*` recycle the emptied `Vec`s
/// backwards. Entry `s` talks to shard `s`; the self entry is `None`.
/// Batches are plain `u64` blocks, so the links are independent of the
/// protocol's message type.
struct Links {
    to: Vec<Option<Sender<WordBatch>>>,
    from: Vec<Option<Receiver<WordBatch>>>,
    ret_to: Vec<Option<Sender<WordBatch>>>,
    ret_from: Vec<Option<Receiver<WordBatch>>>,
}

impl Links {
    fn empty(num_shards: usize) -> Self {
        Self {
            to: (0..num_shards).map(|_| None).collect(),
            from: (0..num_shards).map(|_| None).collect(),
            ret_to: (0..num_shards).map(|_| None).collect(),
            ret_from: (0..num_shards).map(|_| None).collect(),
        }
    }
}

fn bump_census(census: &mut Vec<(&'static str, u64)>, tag: &'static str, up: bool) {
    match census.binary_search_by(|e| e.0.cmp(tag)) {
        Ok(i) => {
            if up {
                census[i].1 += 1;
            } else {
                census[i].1 -= 1;
            }
        }
        Err(i) => {
            debug_assert!(up, "decrement of an absent census tag");
            census.insert(i, (tag, 1));
        }
    }
}

fn bump_tag_totals(tags: &mut Vec<(&'static str, TagStats)>, tag: &'static str, words: u64) {
    match tags.binary_search_by(|e| e.0.cmp(tag)) {
        Ok(i) => {
            tags[i].1.messages += 1;
            tags[i].1.words += words;
        }
        Err(i) => tags.insert(i, (tag, TagStats { messages: 1, words })),
    }
}

/// The earliest non-empty stage tag any shard currently reports.
fn current_stage(censuses: &[Vec<(&'static str, u64)>]) -> Option<&'static str> {
    censuses.iter().flatten().filter(|e| e.1 > 0).map(|e| e.0).min()
}

/// One contiguous slice of the network: nodes `lo..lo + nodes.len()` plus
/// every per-port and per-node arena for that range.
struct Shard<'a, P: NodeProgram> {
    idx: usize,
    lo: usize,
    /// First global directed-port index owned by this shard.
    plo: usize,
    nodes: &'a mut [P],
    topo: &'a Topology,
    cfg: EngineCfg,
    /// Encoded-word FIFO ring per owned inbound directed port, indexed
    /// `g - plo`.
    rings: Vec<WordRing>,
    /// Per owned node: round stamp of the last mail delivery.
    mail: Vec<u64>,
    /// Nodes (global ids) with mail in the round being assembled.
    touched: Vec<NodeId>,
    actives: Vec<NodeId>,
    /// Wake heap, `(due round, node)`. Only *far* wakes (beyond the next
    /// round) live here; the overwhelmingly common "step me again next
    /// round" hint takes the O(1) [`Self::due`] path instead, so a dense
    /// always-active workload never pays the heap's O(log n) per step. An
    /// entry is live only while it matches [`Self::armed`]; superseded
    /// entries are dropped when they surface.
    wake: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// Per owned node: the round of its one live `wake` entry (`u64::MAX`
    /// = none armed).
    armed: Vec<u64>,
    /// Nodes due at the next executed round, whatever its number (a wake
    /// for round + 1 stays valid across a fast-forward: firing at a later
    /// round is exactly the heap's `w <= round` pop rule).
    due: Vec<NodeId>,
    done: u64,
    prev_done: Vec<bool>,
    prev_tag: Vec<&'static str>,
    /// Non-empty stage tags with live node counts, sorted by tag.
    census: Vec<(&'static str, u64)>,
    inbox: Vec<(PortId, P::Msg)>,
    outbox: Outbox,
}

/// Per-round bandwidth accumulator for one outbound directed edge. The
/// stamp makes resets lazy: a slot is only zeroed when the edge first
/// sends in a round, so idle edges cost nothing.
#[derive(Clone, Copy, Debug)]
struct EdgeMeter {
    /// Round this meter was last charged in (`u64::MAX` = never).
    round: u64,
    /// Encoded words charged to this edge direction during that round;
    /// the capacity checks run against this accumulator.
    charged: u64,
}

impl EdgeMeter {
    const IDLE: EdgeMeter = EdgeMeter { round: u64::MAX, charged: 0 };
}

/// The send side of one shard: what a [`RoundCtx`] writes through. Each
/// send is encoded straight into its destination shard's batch and its
/// encoded length charged to the sending edge's meter, so the length on
/// the wire is the one number every count and check uses.
#[derive(Debug)]
struct Outbox {
    cfg: EngineCfg,
    /// First global directed-port index owned by this shard.
    plo: usize,
    /// Bandwidth meter per owned outbound directed port, indexed `g - plo`.
    meters: Vec<EdgeMeter>,
    /// Outgoing encoded batches per destination shard (self entry
    /// delivered locally).
    batches: Vec<WordBatch>,
    totals: ShardTotals,
    /// The first contract violation of the current step.
    error: Option<SimError>,
}

impl Outbox {
    /// Encodes `msg` onto outbound directed port `g` of node `from` and
    /// charges its length. With `budgeted`, a message that does not fit
    /// in the edge's remaining capacity this round is taken back out of
    /// the batch and `false` is returned; every other outcome is `true`.
    fn push<M: Message>(
        &mut self,
        topo: &Topology,
        round: u64,
        from: NodeId,
        g: usize,
        msg: &M,
        budgeted: bool,
    ) -> bool {
        // Encode behind a placeholder header, patched once the length is
        // known.
        let dest = topo.peer(g);
        let batch = &mut self.batches[topo.port_node(dest) / self.cfg.chunk];
        let header = batch.len();
        batch.push(0);
        let len = {
            let mut w = WireWriter::new(batch);
            msg.encode(&mut w);
            w.len()
        };
        let to = || (topo.route(g) >> 32) as NodeId;
        if len == 0 {
            batch.truncate(header);
            self.error.get_or_insert(SimError::EmptyMessage {
                round,
                from,
                to: to(),
                tag: msg.tag(),
            });
            return true;
        }
        let words = len as u64;
        // dmst-analysis:allow(panic-hygiene) -- sender-side port of an owned node; in range by construction
        let slot = &mut self.meters[g - self.plo];
        if slot.round != round {
            *slot = EdgeMeter { round, charged: 0 };
        }
        if budgeted && slot.charged + words > self.cfg.capacity {
            batch.truncate(header);
            return false;
        }
        slot.charged += words;
        if self.cfg.strict && slot.charged > self.cfg.capacity {
            self.error.get_or_insert(SimError::CapacityExceeded {
                round,
                from,
                to: to(),
                words: slot.charged,
                capacity: self.cfg.capacity,
            });
        }
        batch[header] = frame_header(dest as u32, len);

        let totals = &mut self.totals;
        totals.peak_edge_words = totals.peak_edge_words.max(slot.charged);
        totals.messages += 1;
        totals.words += words;
        bump_tag_totals(&mut totals.by_tag, msg.tag(), words);
        true
    }
}

impl<'a, P: NodeProgram> Shard<'a, P> {
    fn new(idx: usize, lo: usize, nodes: &'a mut [P], topo: &'a Topology, cfg: EngineCfg) -> Self {
        let count = nodes.len();
        let plo = topo.port_lo(lo);
        let phi = topo.port_lo(lo + count);
        let mut done = 0u64;
        let mut prev_done = Vec::with_capacity(nodes.len());
        let mut prev_tag = Vec::with_capacity(nodes.len());
        let mut census: Vec<(&'static str, u64)> = Vec::new();
        for node in nodes.iter() {
            let d = node.is_done();
            prev_done.push(d);
            done += u64::from(d);
            let t = node.stage_tag();
            prev_tag.push(t);
            if !t.is_empty() {
                bump_census(&mut census, t, true);
            }
        }
        Self {
            idx,
            lo,
            plo,
            nodes,
            topo,
            cfg,
            rings: (plo..phi).map(|_| WordRing::default()).collect(),
            mail: vec![u64::MAX; count],
            touched: Vec::new(),
            actives: Vec::new(),
            wake: BinaryHeap::new(),
            armed: vec![u64::MAX; count],
            // Every node gets an initial step at the first executed round,
            // like the legacy executor; its own hints take over from there.
            due: (lo..lo + count).collect(),
            done,
            prev_done,
            prev_tag,
            census,
            inbox: Vec::new(),
            outbox: Outbox {
                cfg,
                plo,
                meters: vec![EdgeMeter::IDLE; phi - plo],
                batches: (0..cfg.num_shards).map(|_| Vec::new()).collect(),
                totals: ShardTotals::default(),
                error: None,
            },
        }
    }

    /// Appends a batch of inbound encoded frames (for the round about to
    /// execute) to the destination rings, marking receivers as mailed.
    /// Frames are routed by header word alone — payloads are copied into
    /// the rings without decoding. The batch is emptied for recycling.
    fn deliver(&mut self, round: u64, batch: &mut WordBatch) {
        let mut i = 0;
        while i < batch.len() {
            let header = batch[i];
            let g = (header & 0xFFFF_FFFF) as usize;
            let len = (header >> 32) as usize;
            let v = self.topo.port_node(g);
            let ni = v - self.lo;
            if self.mail[ni] != round {
                self.mail[ni] = round;
                self.touched.push(v);
            }
            // dmst-analysis:allow(panic-hygiene) -- g >= plo by shard ownership; frame bounds produced by our own send path
            self.rings[g - self.plo].words.extend_from_slice(&batch[i + 1..i + 1 + len]);
            i += 1 + len;
        }
        batch.clear();
    }

    /// The earliest live far wake, dropping superseded heap entries that
    /// surface on the way.
    fn live_wake(&mut self) -> Option<u64> {
        while let Some(&Reverse((w, v))) = self.wake.peek() {
            let ni = v - self.lo;
            if self.armed[ni] == w {
                return Some(w);
            }
            self.wake.pop();
        }
        None
    }

    /// Executes one round over this shard's active set.
    fn execute(&mut self, round: u64) -> RoundSummary {
        self.actives.clear();
        self.actives.append(&mut self.touched);
        self.actives.append(&mut self.due);
        while let Some(w) = self.live_wake() {
            if w > round {
                break;
            }
            if let Some(Reverse((_, v))) = self.wake.pop() {
                let ni = v - self.lo;
                self.armed[ni] = u64::MAX;
                self.actives.push(v);
            }
        }
        self.actives.sort_unstable();
        self.actives.dedup();

        let sent_before = self.outbox.totals.messages;
        let mut error = None;

        'step: for i in 0..self.actives.len() {
            let v = self.actives[i];
            let ni = v - self.lo;
            let base = self.topo.port_lo(v);
            self.inbox.clear();
            if self.mail[ni] == round {
                for &p in self.topo.drain_order(v) {
                    // dmst-analysis:allow(panic-hygiene) -- port base of an owned node; in range by construction
                    let ring = &mut self.rings[base + p as usize - self.plo];
                    debug_assert_eq!(ring.head, 0, "ring left mid-drain");
                    while ring.head < ring.words.len() {
                        let used;
                        {
                            let mut r = WireReader::new(&ring.words[ring.head..]);
                            self.inbox.push((p as PortId, P::Msg::decode(&mut r)));
                            debug_assert!(r.consumed() >= 1, "decode consumed no words");
                            used = r.consumed().max(1);
                        }
                        ring.head += used;
                    }
                    ring.words.clear();
                    ring.head = 0;
                }
            }
            let mut ctx = RoundCtx {
                round,
                id: v,
                ports: self.topo.ports(v),
                inbox: &self.inbox,
                topo: self.topo,
                base,
                outbox: &mut self.outbox,
            };
            self.nodes[ni].on_round(&mut ctx);
            if let Some(e) = self.outbox.error.take() {
                error = Some(e);
                break 'step;
            }

            let node = &self.nodes[ni];
            let d = node.is_done();
            if d != self.prev_done[ni] {
                self.prev_done[ni] = d;
                if d {
                    self.done += 1;
                } else {
                    self.done -= 1;
                }
            }
            let t = node.stage_tag();
            if t != self.prev_tag[ni] {
                if !self.prev_tag[ni].is_empty() {
                    bump_census(&mut self.census, self.prev_tag[ni], false);
                }
                if !t.is_empty() {
                    bump_census(&mut self.census, t, true);
                }
                self.prev_tag[ni] = t;
            }
            let hint = if self.cfg.wake_hints { node.next_wake(round) } else { Some(round + 1) };
            match hint {
                Some(w) if w > round + 1 => {
                    // Re-arm only when the hint moved; the entry already in
                    // the heap serves an unchanged one.
                    if self.armed[ni] != w {
                        self.armed[ni] = w;
                        self.wake.push(Reverse((w, v)));
                    }
                }
                Some(_) => {
                    self.armed[ni] = u64::MAX;
                    self.due.push(v);
                }
                None => self.armed[ni] = u64::MAX,
            }
        }

        RoundSummary {
            round_messages: self.outbox.totals.messages - sent_before,
            done: self.done,
            census: self.census.clone(),
            next_due: if self.due.is_empty() {
                // Everything <= round was popped above, so the live top is
                // the true minimum over both wake structures.
                self.live_wake()
            } else {
                Some(round + 1)
            },
            error,
        }
    }
}

/// One full round on one shard: deliver queued batches, execute, ship
/// outgoing batches. `primed` is false only before the shard's first
/// executed round (no peer has sent anything yet).
fn shard_round<P: NodeProgram>(
    shard: &mut Shard<'_, P>,
    links: &Links,
    round: u64,
    primed: bool,
) -> RoundSummary {
    let me = shard.idx;
    let mut own = std::mem::take(&mut shard.outbox.batches[me]);
    shard.deliver(round, &mut own);
    shard.outbox.batches[me] = own;
    if primed {
        for s in 0..links.from.len() {
            let Some(rx) = &links.from[s] else { continue };
            // dmst-analysis:allow(panic-hygiene) -- peer holds its sender until Halt; a closed channel is a bug
            let mut batch = rx.recv().expect("peer shard alive until halt");
            shard.deliver(round, &mut batch);
            if let Some(ret) = &links.ret_to[s] {
                let _ = ret.send(batch);
            }
        }
    }
    let summary = shard.execute(round);
    for s in 0..links.to.len() {
        let Some(tx) = &links.to[s] else { continue };
        let batch = std::mem::take(&mut shard.outbox.batches[s]);
        // dmst-analysis:allow(panic-hygiene) -- receiver outlives every round of the scope; failure is a bug
        tx.send(batch).expect("peer shard alive until halt");
        if let Some(ret) = &links.ret_from[s] {
            if let Ok(recycled) = ret.try_recv() {
                shard.outbox.batches[s] = recycled;
            }
        }
    }
    summary
}

fn worker_loop<P: NodeProgram>(
    mut shard: Shard<'_, P>,
    links: Links,
    decisions: Receiver<Decision>,
    summaries: Sender<RoundSummary>,
    totals: Sender<ShardTotals>,
) {
    let mut primed = false;
    while let Ok(Decision::Round(round)) = decisions.recv() {
        let summary = shard_round(&mut shard, &links, round, primed);
        primed = true;
        if summaries.send(summary).is_err() {
            return; // coordinator gone (panic unwinding elsewhere)
        }
    }
    let _ = totals.send(std::mem::take(&mut shard.outbox.totals));
}

/// A network of nodes executing a [`NodeProgram`] over a [`Topology`].
#[derive(Debug)]
pub struct Network<P: NodeProgram> {
    topo: Topology,
    nodes: Vec<P>,
}

impl<P: NodeProgram> Network<P> {
    /// Instantiates one program per node via `factory`, called in node-id
    /// order with that node's [`NodeInfo`].
    pub fn new<F>(topo: Topology, mut factory: F) -> Self
    where
        F: FnMut(NodeInfo<'_>) -> P,
    {
        let nodes = (0..topo.num_nodes())
            .map(|id| factory(NodeInfo { id, ports: topo.ports(id) }))
            .collect();
        Self { topo, nodes }
    }

    /// The topology this network runs on.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Read access to all node programs (e.g. to extract final states).
    #[inline]
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consumes the network, returning the node programs.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// Runs rounds until quiescence (every node done, no messages in
    /// flight) or an error. See the module docs for the execution model;
    /// [`RunConfig::shards`] picks sequential vs. sharded execution with
    /// bit-identical results.
    ///
    /// # Errors
    ///
    /// * [`SimError::CapacityExceeded`] under [`CapacityMode::Strict`] when a
    ///   round oversubscribes an edge direction.
    /// * [`SimError::EmptyMessage`] when a message encodes to zero words.
    /// * [`SimError::MaxRoundsExceeded`] when `config.max_rounds` is hit.
    pub fn run(&mut self, config: &RunConfig) -> Result<RunStats, SimError>
    where
        P: Send,
        P::Msg: Send,
    {
        let n = self.topo.num_nodes();
        if n == 0 {
            return Ok(RunStats::default());
        }
        let requested = match config.shards {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            s => s as usize,
        };
        let chunk = n.div_ceil(requested.clamp(1, n));
        let num_shards = n.div_ceil(chunk);
        let cfg = EngineCfg {
            capacity: config.capacity_words(),
            strict: config.capacity == CapacityMode::Strict,
            wake_hints: config.wake_hints,
            chunk,
            num_shards,
        };

        let topo = &self.topo;
        let mut shards: Vec<Shard<'_, P>> = Vec::with_capacity(num_shards);
        {
            let mut rest: &mut [P] = &mut self.nodes;
            for s in 0..num_shards {
                let len = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(len);
                rest = tail;
                shards.push(Shard::new(s, s * chunk, head, topo, cfg));
            }
        }

        // Cross-shard plumbing: batch + recycle channels per ordered pair,
        // decision/summary/totals channels per worker. With one shard the
        // links stay empty and no thread is spawned.
        let mut links: Vec<Links> = (0..num_shards).map(|_| Links::empty(num_shards)).collect();
        for a in 0..num_shards {
            for b in 0..num_shards {
                if a == b {
                    continue;
                }
                let (tx, rx) = mpsc::channel();
                links[a].to[b] = Some(tx);
                links[b].from[a] = Some(rx);
                let (rtx, rrx) = mpsc::channel();
                links[b].ret_to[a] = Some(rtx);
                links[a].ret_from[b] = Some(rrx);
            }
        }

        let mut done_total: u64 = shards.iter().map(|s| s.done).sum();
        let mut censuses: Vec<Vec<(&'static str, u64)>> =
            shards.iter().map(|s| s.census.clone()).collect();
        let mut next_dues: Vec<Option<u64>> = vec![Some(0); num_shards];
        let mut inflight: u64 = 0;
        let max_rounds = config.max_rounds;

        let mut shard_iter = shards.into_iter();
        // dmst-analysis:allow(panic-hygiene) -- num_shards >= 1 is asserted at partitioning
        let mut shard0 = shard_iter.next().expect("at least one shard");
        let mut links_iter = links.into_iter();
        // dmst-analysis:allow(panic-hygiene) -- same length as shards by construction
        let links0 = links_iter.next().expect("at least one shard");

        std::thread::scope(|scope| {
            let mut decision_txs = Vec::with_capacity(num_shards - 1);
            let mut summary_rxs = Vec::with_capacity(num_shards - 1);
            let mut totals_rxs = Vec::with_capacity(num_shards - 1);
            for (shard, link) in shard_iter.zip(links_iter) {
                let (dtx, drx) = mpsc::channel();
                let (stx, srx) = mpsc::channel();
                let (ttx, trx) = mpsc::channel();
                decision_txs.push(dtx);
                summary_rxs.push(srx);
                totals_rxs.push(trx);
                scope.spawn(move || worker_loop(shard, link, drx, stx, ttx));
            }

            let mut stats = RunStats::default();
            let mut round: u64 = 0;
            let mut primed = false;
            let outcome: Result<(), SimError> = loop {
                if inflight == 0 && done_total == n as u64 {
                    break Ok(());
                }
                if round >= max_rounds {
                    break Err(SimError::MaxRoundsExceeded {
                        max_rounds,
                        pending_nodes: (n as u64 - done_total) as usize,
                    });
                }
                if inflight == 0 {
                    // Globally idle: fast-forward to the earliest due wake
                    // (or the round cap), attributing the skipped rounds to
                    // the frozen stage census — nothing can transition while
                    // no node steps and no message is in flight.
                    let due = next_dues.iter().filter_map(|&d| d).min();
                    let target = due.unwrap_or(max_rounds).min(max_rounds);
                    if target > round {
                        if let Some(tag) = current_stage(&censuses) {
                            *stats.rounds_by_stage.entry(tag).or_insert(0) += target - round;
                        }
                        round = target;
                        continue;
                    }
                }

                for dtx in &decision_txs {
                    // dmst-analysis:allow(panic-hygiene) -- workers only exit after Halt; a dead worker is a bug
                    dtx.send(Decision::Round(round)).expect("worker alive");
                }
                let s0 = shard_round(&mut shard0, &links0, round, primed);
                primed = true;

                let mut round_messages = s0.round_messages;
                done_total = s0.done;
                next_dues[0] = s0.next_due;
                censuses[0] = s0.census;
                let mut error = s0.error;
                for (s, srx) in summary_rxs.iter().enumerate() {
                    // dmst-analysis:allow(panic-hygiene) -- worker sends one summary per Round decision
                    let summary = srx.recv().expect("worker alive");
                    round_messages += summary.round_messages;
                    done_total += summary.done;
                    // dmst-analysis:allow(panic-hygiene) -- slot s + 1 exists: next_dues holds num_shards entries
                    next_dues[s + 1] = summary.next_due;
                    // dmst-analysis:allow(panic-hygiene) -- slot s + 1 exists: censuses holds num_shards entries
                    censuses[s + 1] = summary.census;
                    if error.is_none() {
                        error = summary.error;
                    }
                }
                if let Some(e) = error {
                    break Err(e);
                }
                inflight = round_messages;
                stats.peak_round_messages = stats.peak_round_messages.max(round_messages);
                if let Some(tag) = current_stage(&censuses) {
                    *stats.rounds_by_stage.entry(tag).or_insert(0) += 1;
                }
                round += 1;
            };

            for dtx in &decision_txs {
                let _ = dtx.send(Decision::Halt);
            }
            let mut all_totals = vec![std::mem::take(&mut shard0.outbox.totals)];
            for trx in &totals_rxs {
                // dmst-analysis:allow(panic-hygiene) -- every worker sends its totals before exiting
                all_totals.push(trx.recv().expect("worker exits cleanly"));
            }
            outcome.map(|()| {
                for t in all_totals {
                    stats.messages += t.messages;
                    stats.words += t.words;
                    stats.peak_edge_words = stats.peak_edge_words.max(t.peak_edge_words);
                    for (tag, ts) in t.by_tag {
                        let entry = stats.by_tag.entry(tag).or_default();
                        entry.messages += ts.messages;
                        entry.words += ts.words;
                    }
                }
                stats.wire_words = stats.words;
                stats.rounds = round;
                stats
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CapacityMode, RunConfig};

    /// Counts rounds until it has seen `wait_for` messages, echoing each.
    struct Echo {
        to_send: u32,
        seen: u32,
        wait_for: u32,
    }

    impl NodeProgram for Echo {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u64>) {
            for _ in 0..self.to_send {
                ctx.send(0, 42);
            }
            self.to_send = 0;
            self.seen += ctx.inbox().len() as u32;
        }
        fn is_done(&self) -> bool {
            self.seen >= self.wait_for
        }
    }

    fn pair() -> Topology {
        Topology::new(2, &[(0, 1, 1)]).unwrap()
    }

    #[test]
    fn delivers_next_round_and_counts() {
        let mut net = Network::new(pair(), |i| Echo {
            to_send: u32::from(i.id == 0),
            seen: 0,
            wait_for: u32::from(i.id == 1),
        });
        let stats = net.run(&RunConfig::congest()).unwrap();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.words, 1);
        assert_eq!(stats.wire_words, 1);
        // Round 0: node 0 sends. Round 1: node 1 receives; quiescent after.
        assert_eq!(stats.rounds, 2);
        assert_eq!(net.nodes()[1].seen, 1);
    }

    #[test]
    fn strict_capacity_rejects_oversend() {
        // b = 1 with 8 words/unit allows 8 one-word messages; send 9.
        let mut net = Network::new(pair(), |i| Echo {
            to_send: if i.id == 0 { 9 } else { 0 },
            seen: 0,
            wait_for: u32::from(i.id == 1),
        });
        let err = net.run(&RunConfig::congest()).unwrap_err();
        assert!(matches!(err, SimError::CapacityExceeded { round: 0, from: 0, to: 1, .. }));
    }

    #[test]
    fn unchecked_capacity_allows_oversend() {
        let mut net = Network::new(pair(), |i| Echo {
            to_send: if i.id == 0 { 9 } else { 0 },
            seen: 0,
            wait_for: if i.id == 1 { 9 } else { 0 },
        });
        let cfg = RunConfig { capacity: CapacityMode::Unchecked, ..RunConfig::congest() };
        let stats = net.run(&cfg).unwrap();
        assert_eq!(stats.messages, 9);
        assert_eq!(stats.peak_edge_words, 9);
    }

    #[test]
    fn higher_bandwidth_admits_more() {
        let mut net = Network::new(pair(), |i| Echo {
            to_send: if i.id == 0 { 9 } else { 0 },
            seen: 0,
            wait_for: if i.id == 1 { 9 } else { 0 },
        });
        let stats = net.run(&RunConfig::congest_b(2)).unwrap();
        assert_eq!(stats.messages, 9);
    }

    /// Node 0 drains `queue` through `try_send` on port 0, after `plain`
    /// plain sends of `filler` each round, logging how many queued
    /// messages went out per round and every message `try_send` handed
    /// back. Node 1 only listens.
    struct Drip<M> {
        queue: std::collections::VecDeque<M>,
        filler: M,
        plain: u32,
        per_round: Vec<usize>,
        bounced: Vec<M>,
    }

    impl<M: Message> NodeProgram for Drip<M> {
        type Msg = M;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, M>) {
            if self.queue.is_empty() {
                return;
            }
            for _ in 0..self.plain {
                ctx.send(0, self.filler.clone());
            }
            let mut sent = 0;
            while let Some(m) = self.queue.pop_front() {
                if let Err(m) = ctx.try_send(0, m) {
                    self.bounced.push(m.clone());
                    self.queue.push_front(m);
                    break;
                }
                sent += 1;
            }
            self.per_round.push(sent);
        }
        fn is_done(&self) -> bool {
            self.queue.is_empty()
        }
    }

    /// Runs [`Drip`] with 20 queued messages `make(0..20)` and checks the
    /// `try_send` contract; returns the stats for cross-shard comparison.
    fn check_drip<M: Message + PartialEq + std::fmt::Debug + Send>(
        make: impl Fn(u64) -> M,
        bandwidth: u32,
        plain: u32,
        shards: u32,
    ) -> RunStats {
        const TOTAL: usize = 20;
        let mut net = Network::new(pair(), |i| Drip {
            queue: if i.id == 0 {
                (0..TOTAL as u64).map(&make).collect()
            } else {
                Default::default()
            },
            filler: make(u64::MAX),
            plain,
            per_round: Vec::new(),
            bounced: Vec::new(),
        });
        let cfg = RunConfig { bandwidth, shards, ..RunConfig::congest() };
        let stats = net.run(&cfg).expect("try_send never oversubscribes in strict mode");
        let mut buf = Vec::new();
        make(0).encode(&mut WireWriter::new(&mut buf));
        let len = buf.len() as u64;
        let per_round = (cfg.capacity_words() / len - u64::from(plain)) as usize;
        let node = &net.nodes()[0];
        // Exactly the remaining budget's worth goes out each round, the
        // budget resets every round, and the tail goes out last.
        let expected: Vec<usize> =
            (0..TOTAL).step_by(per_round).map(|s| per_round.min(TOTAL - s)).collect();
        assert_eq!(node.per_round, expected, "b = {bandwidth}, {len}-word messages");
        // Every full round bounced the next queued message, unchanged.
        let bounced: Vec<M> =
            (per_round..TOTAL).step_by(per_round).map(|k| make(k as u64)).collect();
        assert_eq!(node.bounced, bounced);
        assert_eq!(stats.peak_edge_words, cfg.capacity_words());
        stats
    }

    #[test]
    fn try_send_fills_exactly_the_remaining_budget() {
        for bandwidth in [1, 2] {
            for plain in [0, 3] {
                let single = check_drip(|i| i, bandwidth, plain, 1);
                assert_eq!(single, check_drip(|i| i, bandwidth, plain, 2));
                let double = check_drip(|i| (i, !i), bandwidth, plain, 1);
                assert_eq!(double, check_drip(|i| (i, !i), bandwidth, plain, 2));
            }
        }
    }

    #[test]
    fn nonterminating_protocol_hits_round_cap() {
        struct Spin;
        impl NodeProgram for Spin {
            type Msg = ();
            fn on_round(&mut self, _: &mut RoundCtx<'_, ()>) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let mut net = Network::new(pair(), |_| Spin);
        let cfg = RunConfig { max_rounds: 10, ..RunConfig::congest() };
        assert!(matches!(
            net.run(&cfg),
            Err(SimError::MaxRoundsExceeded { max_rounds: 10, pending_nodes: 2 })
        ));
    }

    #[test]
    fn sleeping_nonterminating_protocol_hits_round_cap() {
        /// Never done, never acts: promises a wake far past the cap.
        struct DeepSleep;
        impl NodeProgram for DeepSleep {
            type Msg = ();
            fn on_round(&mut self, _: &mut RoundCtx<'_, ()>) {}
            fn is_done(&self) -> bool {
                false
            }
            fn next_wake(&self, _: u64) -> Option<u64> {
                Some(1_000_000)
            }
        }
        let mut net = Network::new(pair(), |_| DeepSleep);
        let cfg = RunConfig { max_rounds: 10, ..RunConfig::congest() };
        // The fast-forward must stop at the cap, not sail past it.
        assert!(matches!(
            net.run(&cfg),
            Err(SimError::MaxRoundsExceeded { max_rounds: 10, pending_nodes: 2 })
        ));
    }

    #[test]
    fn immediate_quiescence_is_zero_rounds() {
        struct Done;
        impl NodeProgram for Done {
            type Msg = ();
            fn on_round(&mut self, _: &mut RoundCtx<'_, ()>) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let mut net = Network::new(pair(), |_| Done);
        let stats = net.run(&RunConfig::congest()).unwrap();
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let topo = Topology::new(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]).unwrap();
            let mut net = Network::new(topo, |i| Echo {
                to_send: if i.id == 0 { 2 } else { 0 },
                seen: 0,
                wait_for: u32::from(i.id == 1) * 2,
            });
            net.run(&RunConfig::congest()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn messages_arrive_with_correct_reverse_port() {
        /// Node 1 records the port a message arrives on.
        struct PortCheck {
            got: Option<PortId>,
            fire: bool,
        }
        impl NodeProgram for PortCheck {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) {
                if self.fire {
                    self.fire = false;
                    ctx.send(0, ());
                }
                if let Some(&(p, _)) = ctx.inbox().first() {
                    self.got = Some(p);
                }
            }
            fn is_done(&self) -> bool {
                !self.fire
            }
        }
        // Node 2's ports: port 0 -> 0 (edge 1), port 1 -> 1 (edge 2).
        let topo = Topology::new(3, &[(0, 1, 1), (0, 2, 1), (1, 2, 1)]).unwrap();
        let mut net = Network::new(topo, |i| PortCheck { got: None, fire: i.id == 1 });
        // Node 1 sends on its port 0, which is edge (0,1) -> node 0 hears on
        // its own port 0.
        net.run(&RunConfig::congest()).unwrap();
        assert_eq!(net.nodes()[0].got, Some(0));
    }

    /// Sleeps (accurate hint) until `fire_at`, acts once, then is done.
    struct Napper {
        fire_at: u64,
        fired: bool,
    }
    impl NodeProgram for Napper {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) {
            if ctx.round() == self.fire_at {
                self.fired = true;
            }
        }
        fn is_done(&self) -> bool {
            self.fired
        }
        fn stage_tag(&self) -> &'static str {
            "z"
        }
        fn next_wake(&self, _: u64) -> Option<u64> {
            if self.fired {
                None
            } else {
                Some(self.fire_at)
            }
        }
    }

    #[test]
    fn fast_forward_skips_idle_rounds_and_attributes_them() {
        let mut net = Network::new(pair(), |_| Napper { fire_at: 5, fired: false });
        let stats = net.run(&RunConfig::congest()).unwrap();
        // Rounds 1-4 are skipped wholesale but still counted + attributed.
        assert_eq!(stats.rounds, 6);
        assert_eq!(stats.rounds_in_stage("z"), 6);
        assert_eq!(stats.messages, 0);
        assert!(net.nodes().iter().all(|n| n.fired));
    }

    /// Sleeps toward `wake`; each delivery pushes the wake 3 rounds later.
    /// Sends one message to port 0 at round `send_at`, if set.
    struct Mover {
        wake: u64,
        send_at: Option<u64>,
        stepped: Vec<u64>,
    }
    impl NodeProgram for Mover {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) {
            self.stepped.push(ctx.round());
            if self.send_at == Some(ctx.round()) {
                self.send_at = None;
                ctx.send(0, ());
            }
            if !ctx.inbox().is_empty() {
                self.wake += 3;
            }
        }
        fn is_done(&self) -> bool {
            self.send_at.is_none() && self.stepped.last().is_some_and(|&r| r >= self.wake)
        }
        fn next_wake(&self, after: u64) -> Option<u64> {
            (after < self.wake).then_some(self.wake)
        }
    }

    #[test]
    fn superseded_far_wake_never_fires() {
        for shards in [1, 2] {
            // Node 0 sleeps toward round 5; node 1's message (sent in round
            // 2, delivered in round 3) moves that hint to round 8.
            let mut net = Network::new(pair(), |i| Mover {
                wake: if i.id == 0 { 5 } else { 2 },
                send_at: (i.id == 1).then_some(2),
                stepped: Vec::new(),
            });
            let stats = net.run(&RunConfig { shards, ..RunConfig::congest() }).unwrap();
            assert_eq!(stats.rounds, 9);
            // Not stepped at the stale round 5.
            assert_eq!(net.nodes()[0].stepped, [0, 3, 8], "shards = {shards}");
            assert_eq!(net.nodes()[1].stepped, [0, 2], "shards = {shards}");
        }
    }

    #[test]
    fn wake_hints_do_not_change_results() {
        let run = |hints: bool, shards: u32| {
            let mut net = Network::new(pair(), |_| Napper { fire_at: 9, fired: false });
            let cfg = RunConfig { wake_hints: hints, shards, ..RunConfig::congest() };
            net.run(&cfg).unwrap()
        };
        let baseline = run(false, 1);
        assert_eq!(baseline, run(true, 1));
        assert_eq!(baseline, run(true, 2));
        assert_eq!(baseline, run(false, 2));
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let run = |shards: u32| {
            let topo = Topology::new(
                5,
                &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 0, 5), (1, 3, 6)],
            )
            .unwrap();
            let mut net = Network::new(topo, |i| Echo {
                to_send: if i.id == 0 { 3 } else { 0 },
                seen: 0,
                wait_for: u32::from(i.id == 1) * 3,
            });
            let stats = net.run(&RunConfig { shards, ..RunConfig::congest() }).unwrap();
            let seen: Vec<u32> = net.nodes().iter().map(|n| n.seen).collect();
            (stats, seen)
        };
        let seq = run(1);
        for s in [2, 3, 4, 5, 8] {
            assert_eq!(seq, run(s), "shards = {s} diverged");
        }
    }
}
