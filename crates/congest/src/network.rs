//! The round-driven network executor.
//!
//! The executor advances the network in synchronous rounds over flat arena
//! state indexed by the topology's CSR port numbering. In-flight messages
//! live in one `u64` **mailbox** per receiving node, in their wire
//! encoding (no `Msg` values are stored — sends [`Message::encode`] into a
//! word batch, drains [`Message::decode`] back out), and bandwidth is
//! metered per *step*: a node sends only while it is being stepped, so a
//! scratch of per-local-port charges, reset after each step, meters every
//! edge direction exactly. Per-node stamps track termination, wakes and
//! stage-tag transitions incrementally. The executor keeps no state per
//! directed edge, and per-round cost is proportional to the nodes that
//! act and the messages that move — never to `n` itself.
//!
//! # Sharded execution
//!
//! [`RunConfig::shards`] `> 1` partitions nodes into contiguous id ranges
//! and runs each on a worker thread of its own, while the calling thread
//! only coordinates the rounds. Each shard exclusively owns its nodes and
//! their mailboxes; every send, local or not, is framed into a
//! per-destination-shard *word batch* (`[dest_port | len << 32,
//! payload..]` frames), and cross-shard batches travel over channels.
//! Delivery copies whole frames into the receivers' mailboxes without
//! decoding them, taking the batches in ascending source-shard order (the
//! shard's own batch at its own index). Shards are ascending id ranges
//! and each steps its nodes in ascending id order, so every mailbox fills
//! in exactly the sequential executor's inbox order — messages grouped per
//! sender in FIFO blocks, senders in ascending id order — whatever the
//! shard count. Results are therefore bit-identical for every shard count;
//! the dual-executor proptests in `tests/` hold the engine to that
//! contract. (After an *error* return the node states of shards past the
//! offending one may have advanced further than under sequential
//! execution; successful runs are always identical.)
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
use std::sync::mpsc::{self, Receiver, SyncSender};

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
    /// is encoded on the spot and its encoded length is charged to port
    /// `p` for this step — the edge direction's budget for the round, as
    /// a node is stepped at most once per round; under
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
        self.outbox.push(self.topo, self.round, self.base, p, &msg, false);
    }

    /// Sends `msg` over port `p` only if its encoding fits in what remains
    /// of [`RunConfig::capacity_words`] on that edge direction this round,
    /// counting every earlier send on the port in this step (the only
    /// sends the edge direction carries this round); otherwise sends nothing
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
        if self.outbox.push(self.topo, self.round, self.base, p, &msg, true) {
            Ok(())
        } else {
            Err(msg)
        }
    }
}

/// Encoded messages in flight, as a flat word block of
/// `[header, payload...]*` frames. The header word holds the destination
/// global directed port in bits `0..32` and the payload length in words
/// in bits `32..64`. A shard's outgoing batch to one destination shard
/// and a node's mailbox share this format, so delivery moves frames
/// without decoding them and the drain decodes each message from exactly
/// its own frame.
type WordBatch = Vec<u64>;

/// Builds one frame header (see [`WordBatch`]).
#[inline]
fn frame_header(dest_port: u32, len: usize) -> u64 {
    u64::from(dest_port) | ((len as u64) << 32)
}

/// Splits a frame header into the destination global port and the
/// payload length.
#[inline]
fn frame_parts(header: u64) -> (usize, usize) {
    ((header & 0xFFFF_FFFF) as usize, (header >> 32) as usize)
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
/// backwards, so exactly two buffers circulate per ordered pair. Entry
/// `s` talks to shard `s`; the self entry is `None`.
/// Batches are plain `u64` blocks, so the links are independent of the
/// protocol's message type.
struct Links {
    to: Vec<Option<SyncSender<WordBatch>>>,
    from: Vec<Option<Receiver<WordBatch>>>,
    ret_to: Vec<Option<SyncSender<WordBatch>>>,
    ret_from: Vec<Option<Receiver<WordBatch>>>,
}

/// A bounded channel for a sharded run. At most two messages are ever in
/// flight on one (a batch may be sent before the peer has taken the
/// previous one), so sends never wait; and unlike an unbounded channel it
/// allocates nothing per message, so no channel block allocated by one
/// thread is freed by another while the run is under way.
fn link<T>() -> (SyncSender<T>, Receiver<T>) {
    mpsc::sync_channel(2)
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
/// every per-node arena for that range.
struct Shard<'a, P: NodeProgram> {
    lo: usize,
    nodes: &'a mut [P],
    topo: &'a Topology,
    cfg: EngineCfg,
    /// Per owned node: the frames delivered for the round about to run
    /// (see [`WordBatch`]), in inbox order; emptied by the node's step.
    mailboxes: Vec<WordBatch>,
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

/// The send side of one shard: what a [`RoundCtx`] writes through. Each
/// send is encoded straight into its destination shard's batch and its
/// encoded length charged to the sending port, so the length on the wire
/// is the one number every count and check uses.
#[derive(Debug)]
struct Outbox {
    cfg: EngineCfg,
    /// Words charged to each local port of the node being stepped, sized
    /// to the shard's largest degree. A node sends only inside its own
    /// step and is stepped at most once per round, so "this port this
    /// step" is "this edge direction this round". All zero between steps.
    charged: Vec<u64>,
    /// The local ports charged in the current step, to reset after it.
    dirty: Vec<PortId>,
    /// Outgoing encoded batches per destination shard (self entry
    /// delivered locally).
    batches: Vec<WordBatch>,
    totals: ShardTotals,
    /// The first contract violation of the current step.
    error: Option<SimError>,
}

impl Outbox {
    /// Encodes `msg` onto local port `p` of the node being stepped (whose
    /// port 0 is global port `base`) and charges its length. With
    /// `budgeted`, a message that does not fit in the port's remaining
    /// capacity this step is taken back out of the batch and `false` is
    /// returned; every other outcome is `true`.
    fn push<M: Message>(
        &mut self,
        topo: &Topology,
        round: u64,
        base: usize,
        p: PortId,
        msg: &M,
        budgeted: bool,
    ) -> bool {
        // Encode behind a placeholder header, patched once the length is
        // known.
        let from = || topo.port_node(base);
        let dest = topo.peer(base + p);
        let to = topo.port_node(dest);
        let batch = &mut self.batches[to / self.cfg.chunk];
        let header = batch.len();
        batch.push(0);
        let len = {
            let mut w = WireWriter::new(batch);
            msg.encode(&mut w);
            w.len()
        };
        if len == 0 {
            batch.truncate(header);
            self.error.get_or_insert(SimError::EmptyMessage {
                round,
                from: from(),
                to,
                tag: msg.tag(),
            });
            return true;
        }
        let words = len as u64;
        let charged = &mut self.charged[p];
        if budgeted && *charged + words > self.cfg.capacity {
            batch.truncate(header);
            return false;
        }
        if *charged == 0 {
            self.dirty.push(p);
        }
        *charged += words;
        let charged = *charged;
        if self.cfg.strict && charged > self.cfg.capacity {
            self.error.get_or_insert(SimError::CapacityExceeded {
                round,
                from: from(),
                to,
                words: charged,
                capacity: self.cfg.capacity,
            });
        }
        batch[header] = frame_header(dest as u32, len);

        let totals = &mut self.totals;
        totals.peak_edge_words = totals.peak_edge_words.max(charged);
        totals.messages += 1;
        totals.words += words;
        bump_tag_totals(&mut totals.by_tag, msg.tag(), words);
        true
    }

    /// Clears the charges of the step that just ended.
    fn end_step(&mut self) {
        for p in self.dirty.drain(..) {
            self.charged[p] = 0;
        }
    }
}

impl<'a, P: NodeProgram> Shard<'a, P> {
    fn new(lo: usize, nodes: &'a mut [P], topo: &'a Topology, cfg: EngineCfg) -> Self {
        let count = nodes.len();
        let max_degree = (lo..lo + count).map(|v| topo.degree(v)).max().unwrap_or(0);
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
            lo,
            nodes,
            topo,
            cfg,
            mailboxes: (0..count).map(|_| Vec::new()).collect(),
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
                charged: vec![0; max_degree],
                dirty: Vec::new(),
                batches: (0..cfg.num_shards).map(|_| Vec::new()).collect(),
                totals: ShardTotals::default(),
                error: None,
            },
        }
    }

    /// Appends a batch of inbound frames (for the round about to execute)
    /// to the receivers' mailboxes, marking a receiver as mailed when its
    /// mailbox was empty. Frames move whole, by header word alone — no
    /// payload is decoded. The batch is emptied for recycling.
    fn deliver(&mut self, batch: &mut WordBatch) {
        let mut i = 0;
        while i < batch.len() {
            let (g, len) = frame_parts(batch[i]);
            let v = self.topo.port_node(g);
            let ni = v - self.lo;
            let mailbox = &mut self.mailboxes[ni];
            if mailbox.is_empty() {
                self.touched.push(v);
            }
            // dmst-analysis:allow(panic-hygiene) -- frame bounds produced by our own send path
            mailbox.extend_from_slice(&batch[i..i + 1 + len]);
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
            let mailbox = &mut self.mailboxes[ni];
            let mut at = 0;
            while at < mailbox.len() {
                let (g, len) = frame_parts(mailbox[at]);
                // dmst-analysis:allow(panic-hygiene) -- frame bounds produced by our own send path
                let mut r = WireReader::new(&mailbox[at + 1..at + 1 + len]);
                self.inbox.push((g - base, P::Msg::decode(&mut r)));
                debug_assert_eq!(r.consumed(), len, "decode must consume exactly its frame");
                at += 1 + len;
            }
            mailbox.clear();
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
            self.outbox.end_step();
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
    // Ascending source shards, this shard's own batch at its own index:
    // senders arrive in ascending id order, which makes each mailbox the
    // node's inbox in order.
    for s in 0..links.from.len() {
        match &links.from[s] {
            None => {
                let mut own = std::mem::take(&mut shard.outbox.batches[s]);
                shard.deliver(&mut own);
                shard.outbox.batches[s] = own;
            }
            Some(rx) if primed => {
                // dmst-analysis:allow(panic-hygiene) -- peer holds its sender until Halt; a closed channel is a bug
                let mut batch = rx.recv().expect("peer shard alive until halt");
                shard.deliver(&mut batch);
                if let Some(ret) = &links.ret_to[s] {
                    let _ = ret.send(batch);
                }
            }
            Some(_) => {}
        }
    }
    let summary = shard.execute(round);
    for s in 0..links.to.len() {
        let Some(tx) = &links.to[s] else { continue };
        let batch = std::mem::take(&mut shard.outbox.batches[s]);
        // dmst-analysis:allow(panic-hygiene) -- receiver outlives every round of the scope; failure is a bug
        tx.send(batch).expect("peer shard alive until halt");
        // The peer hands last round's batch back as soon as it has
        // delivered it this round. Waiting for it (instead of growing a
        // fresh buffer whenever it is late) keeps the allocations of a
        // run independent of thread timing.
        if let (true, Some(ret)) = (primed, &links.ret_from[s]) {
            // dmst-analysis:allow(panic-hygiene) -- the peer returns every batch it delivers; failure is a bug
            shard.outbox.batches[s] = ret.recv().expect("peer shard alive until halt");
        }
    }
    summary
}

/// A worker shard, built on its own thread so that the thread allocates
/// and frees only its own state: reports its starting `done` count and
/// census, runs rounds until `Halt`, and returns its run totals.
fn worker_loop<P: NodeProgram>(
    mut shard: Shard<'_, P>,
    links: Links,
    decisions: Receiver<Decision>,
    summaries: SyncSender<RoundSummary>,
) -> ShardTotals {
    let start = RoundSummary {
        round_messages: 0,
        done: shard.done,
        census: shard.census.clone(),
        next_due: Some(0),
        error: None,
    };
    if summaries.send(start).is_err() {
        return ShardTotals::default(); // coordinator gone
    }
    let mut primed = false;
    while let Ok(Decision::Round(round)) = decisions.recv() {
        let summary = shard_round(&mut shard, &links, round, primed);
        primed = true;
        if summaries.send(summary).is_err() {
            break; // coordinator gone (panic unwinding elsewhere)
        }
    }
    std::mem::take(&mut shard.outbox.totals)
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
        let mut parts: Vec<&mut [P]> = Vec::with_capacity(num_shards);
        {
            let mut rest: &mut [P] = &mut self.nodes;
            for _ in 0..num_shards {
                let len = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(len);
                rest = tail;
                parts.push(head);
            }
        }

        // Cross-shard plumbing: batch + recycle channels per ordered pair,
        // decision/summary channels per worker. With one shard the links
        // stay empty and no thread is spawned.
        let mut links: Vec<Links> = (0..num_shards).map(|_| Links::empty(num_shards)).collect();
        for a in 0..num_shards {
            for b in 0..num_shards {
                if a == b {
                    continue;
                }
                let (tx, rx) = link();
                links[a].to[b] = Some(tx);
                links[b].from[a] = Some(rx);
                let (rtx, rrx) = link();
                links[b].ret_to[a] = Some(rtx);
                links[a].ret_from[b] = Some(rrx);
            }
        }

        // One shard runs on this thread. Several run on worker threads
        // of their own, shard 0 included, while this thread only
        // coordinates: a worker builds its shard on its own thread, so
        // every executor buffer that grows during the run is allocated,
        // grown and freed by one worker, and none of them lands in the
        // caller's heap between the caller's own allocations.
        let mut inline = None;
        let mut censuses: Vec<Vec<(&'static str, u64)>> = vec![Vec::new(); num_shards];
        let mut done_total: u64 = 0;
        let mut next_dues: Vec<Option<u64>> = vec![Some(0); num_shards];
        let mut inflight: u64 = 0;
        let max_rounds = config.max_rounds;

        std::thread::scope(|scope| {
            let mut decision_txs = Vec::with_capacity(num_shards);
            let mut summary_rxs = Vec::with_capacity(num_shards);
            let mut workers = Vec::with_capacity(num_shards);
            for (s, (part, links)) in parts.into_iter().zip(links).enumerate() {
                if num_shards == 1 {
                    let shard = Shard::new(0, part, topo, cfg);
                    done_total = shard.done;
                    censuses[0] = shard.census.clone();
                    inline = Some((shard, links));
                    continue;
                }
                let (dtx, drx) = link();
                let (stx, srx) = link();
                decision_txs.push(dtx);
                summary_rxs.push(srx);
                let lo = s * chunk;
                let worker = move || worker_loop(Shard::new(lo, part, topo, cfg), links, drx, stx);
                workers.push(scope.spawn(worker));
            }
            for (s, srx) in summary_rxs.iter().enumerate() {
                // dmst-analysis:allow(panic-hygiene) -- a worker reports its start before any round
                let start = srx.recv().expect("worker alive");
                done_total += start.done;
                censuses[s] = start.census;
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
                let mut round_messages = 0;
                let mut error = None;
                done_total = 0;
                let mut absorb = |s: usize, summary: RoundSummary| {
                    round_messages += summary.round_messages;
                    done_total += summary.done;
                    next_dues[s] = summary.next_due;
                    censuses[s] = summary.census;
                    if error.is_none() {
                        error = summary.error;
                    }
                };
                if let Some((shard, links)) = &mut inline {
                    absorb(0, shard_round(shard, links, round, primed));
                    primed = true;
                }
                for (s, srx) in summary_rxs.iter().enumerate() {
                    // dmst-analysis:allow(panic-hygiene) -- worker sends one summary per Round decision
                    absorb(s, srx.recv().expect("worker alive"));
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

            let mut all_totals = Vec::with_capacity(num_shards);
            if let Some((shard, _)) = &mut inline {
                all_totals.push(std::mem::take(&mut shard.outbox.totals));
            }
            for dtx in &decision_txs {
                let _ = dtx.send(Decision::Halt);
            }
            // Joining (not just collecting a result) means each worker
            // thread has freed everything it held, and returned its
            // allocator arena, before this thread allocates again.
            for worker in workers {
                match worker.join() {
                    Ok(t) => all_totals.push(t),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
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

    /// Drains one queue per port through `try_send`, after `plain` plain
    /// sends of `filler` on each such port every round, logging per port
    /// how many queued messages went out per round and every message
    /// `try_send` handed back. A node with no queues only listens.
    struct Drip<M> {
        queues: Vec<std::collections::VecDeque<M>>,
        filler: M,
        plain: u32,
        per_round: Vec<Vec<usize>>,
        bounced: Vec<Vec<M>>,
    }

    impl<M: Message> NodeProgram for Drip<M> {
        type Msg = M;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, M>) {
            for (p, queue) in self.queues.iter_mut().enumerate() {
                if queue.is_empty() {
                    continue;
                }
                for _ in 0..self.plain {
                    ctx.send(p, self.filler.clone());
                }
                let mut sent = 0;
                while let Some(m) = queue.pop_front() {
                    if let Err(m) = ctx.try_send(p, m) {
                        self.bounced[p].push(m.clone());
                        queue.push_front(m);
                        break;
                    }
                    sent += 1;
                }
                self.per_round[p].push(sent);
            }
        }
        fn is_done(&self) -> bool {
            self.queues.iter().all(|q| q.is_empty())
        }
    }

    /// Runs [`Drip`] on `n` nodes joined by `edges`, with 20 queued
    /// messages `make(0..20)` on every `(node, port)` in `senders`, and
    /// checks the `try_send` contract on each of them; returns the stats
    /// for cross-shard comparison.
    fn check_drip<M: Message + PartialEq + std::fmt::Debug + Send>(
        (n, edges): (usize, &[(NodeId, NodeId, u64)]),
        senders: &[(NodeId, PortId)],
        make: impl Fn(u64) -> M,
        bandwidth: u32,
        plain: u32,
        shards: u32,
    ) -> RunStats {
        const TOTAL: usize = 20;
        let topo = Topology::new(n, edges).unwrap();
        let mut net = Network::new(topo, |i| {
            let queue = |p| -> std::collections::VecDeque<M> {
                if senders.contains(&(i.id, p)) {
                    (0..TOTAL as u64).map(&make).collect()
                } else {
                    Default::default()
                }
            };
            Drip {
                queues: (0..i.ports.len()).map(queue).collect(),
                filler: make(u64::MAX),
                plain,
                per_round: vec![Vec::new(); i.ports.len()],
                bounced: vec![Vec::new(); i.ports.len()],
            }
        });
        let cfg = RunConfig { bandwidth, shards, ..RunConfig::congest() };
        let stats = net.run(&cfg).expect("try_send never oversubscribes in strict mode");
        let mut buf = Vec::new();
        make(0).encode(&mut WireWriter::new(&mut buf));
        let len = buf.len() as u64;
        let per_round = (cfg.capacity_words() / len - u64::from(plain)) as usize;
        // Exactly the remaining budget's worth goes out on every port each
        // round, whatever the node's other ports or the shard's other
        // senders were charged; the budget resets every step, and the
        // tail goes out last.
        let expected: Vec<usize> =
            (0..TOTAL).step_by(per_round).map(|s| per_round.min(TOTAL - s)).collect();
        // Every full round bounced the next queued message, unchanged.
        let bounced: Vec<M> =
            (per_round..TOTAL).step_by(per_round).map(|k| make(k as u64)).collect();
        for &(v, p) in senders {
            let node = &net.nodes()[v];
            let at = format!("node {v} port {p}, b = {bandwidth}, {len}-word messages");
            assert_eq!(node.per_round[p], expected, "{at}");
            assert_eq!(node.bounced[p], bounced, "{at}");
        }
        assert_eq!(stats.peak_edge_words, cfg.capacity_words());
        stats
    }

    /// Sends `burst[p]` one-word messages on each port `p` in round 0.
    struct Burst {
        burst: Vec<u32>,
    }

    impl NodeProgram for Burst {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u64>) {
            for (p, k) in self.burst.drain(..).enumerate() {
                for _ in 0..k {
                    ctx.send(p, 7);
                }
            }
        }
        fn is_done(&self) -> bool {
            self.burst.is_empty()
        }
    }

    #[test]
    fn try_send_fills_exactly_the_remaining_budget() {
        let pair: &[(NodeId, NodeId, u64)] = &[(0, 1, 1)];
        // Node 0 drains both of its ports in one step (fan-out), or nodes
        // 0 and 1, stepped in the same round and in the same shard at
        // shards 1 and 2, each fill their own port 0 (fan-in to node 2).
        let fan_out: &[(NodeId, NodeId, u64)] = &[(0, 1, 1), (0, 2, 1)];
        let fan_in: &[(NodeId, NodeId, u64)] = &[(0, 2, 1), (1, 2, 1)];
        let cases = [
            ((2, pair), &[(0, 0)][..]),
            ((3, fan_out), &[(0, 0), (0, 1)][..]),
            ((3, fan_in), &[(0, 0), (1, 0)][..]),
        ];
        for (topo, senders) in cases {
            for bandwidth in [1, 2] {
                for plain in [0, 3] {
                    let single = check_drip(topo, senders, |i| i, bandwidth, plain, 1);
                    assert_eq!(single, check_drip(topo, senders, |i| i, bandwidth, plain, 2));
                    let double = check_drip(topo, senders, |i| (i, !i), bandwidth, plain, 1);
                    assert_eq!(double, check_drip(topo, senders, |i| (i, !i), bandwidth, plain, 2));
                }
            }
        }
        // A strict overrun names the overrun edge direction, not another
        // port of the same sender or another sender's port with the same
        // local index. b = 1 admits 8 one-word messages per port.
        for shards in [1, 2] {
            let cfg = RunConfig { shards, ..RunConfig::congest() };
            let bursts = [
                (fan_out, [vec![8, 9], vec![], vec![]], 0),
                (fan_out, [vec![9, 8], vec![], vec![]], 0),
                (fan_in, [vec![8], vec![9], vec![]], 1),
            ];
            for (edges, burst, from) in bursts {
                let topo = Topology::new(3, edges).unwrap();
                let to =
                    topo.ports(from)[burst[from].iter().position(|&k| k == 9).unwrap()].neighbor;
                let mut net = Network::new(topo, |i| Burst { burst: burst[i.id].clone() });
                let err = net.run(&cfg).unwrap_err();
                assert_eq!(
                    err,
                    SimError::CapacityExceeded { round: 0, from, to, words: 9, capacity: 8 },
                    "shards = {shards}"
                );
            }
        }
    }

    #[test]
    fn inbox_lists_senders_ascending_fifo_within_each() {
        /// Every node but `RECEIVER` sends `(id, k)` for `k = 0, 1, 2` on
        /// its one port in round 0; the receiver logs its inbox.
        const RECEIVER: NodeId = 3;
        struct Fanin {
            id: NodeId,
            sent: bool,
            got: Vec<(PortId, (u64, u64))>,
        }
        impl NodeProgram for Fanin {
            type Msg = (u64, u64);
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, (u64, u64)>) {
                if !self.sent && self.id != RECEIVER {
                    for k in 0..3 {
                        ctx.send(0, (self.id as u64, k));
                    }
                }
                self.sent = true;
                self.got.extend_from_slice(ctx.inbox());
            }
            fn is_done(&self) -> bool {
                self.sent
            }
        }
        // The receiver's ports list its neighbors descending (6, 5, ..., 0),
        // so port order disagrees with the required sender order.
        let n = 7;
        let edges: Vec<(NodeId, NodeId, u64)> =
            (0..n).rev().filter(|&v| v != RECEIVER).map(|v| (RECEIVER, v, 1)).collect();
        let senders: Vec<NodeId> = (0..n).filter(|&v| v != RECEIVER).collect();
        for shards in [1, 2, 3, n as u32] {
            let topo = Topology::new(n, &edges).unwrap();
            let ports = topo.ports(RECEIVER).to_vec();
            let mut net = Network::new(topo, |i| Fanin { id: i.id, sent: false, got: Vec::new() });
            net.run(&RunConfig { shards, ..RunConfig::congest() }).unwrap();
            let got = &net.nodes()[RECEIVER].got;
            let expected: Vec<(NodeId, (u64, u64))> =
                senders.iter().flat_map(|&v| (0..3).map(move |k| (v, (v as u64, k)))).collect();
            let seen: Vec<(NodeId, (u64, u64))> =
                got.iter().map(|&(p, m)| (ports[p].neighbor, m)).collect();
            assert_eq!(seen, expected, "shards = {shards}");
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
