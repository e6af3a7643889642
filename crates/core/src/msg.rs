//! The wire protocol: every message Elkin's algorithm sends.
//!
//! Word counts follow the model of the paper's Section 2: one word is one
//! `O(log n)`-bit quantity (vertex id, fragment id, edge weight, small
//! counter). The largest message ([`Msg::Candidate`]) carries 6 words, under
//! the 8-word unit-message budget enforced by the simulator.
//!
//! A message's size is its encoding: every variant has an exact
//! [`Message::encode`]/[`Message::decode`] pair (see the `TAG_*`
//! discriminants below), and the simulator charges the words `encode`
//! writes. The `wire_roundtrip` proptests pin that every encoding is
//! self-delimiting and between 1 and `UNIT_WORDS` words long.
//! Quantities bounded by the vertex count (ids, slots, colors, phases —
//! `Topology` caps `n` at `u32::MAX`) ride in the tag word's packed half;
//! only full-range edge weights always occupy whole words.

use congest_sim::{Message, WireReader, WireWriter};

use crate::candidate::{CandKey, Candidate};

// Wire discriminants, one per variant, in declaration order. `decode`
// matches on these; a tag outside the table is a wire-corruption bug.
const TAG_BFS: u8 = 0;
const TAG_BFS_CHILD: u8 = 1;
const TAG_SIZE_UP: u8 = 2;
const TAG_PARAMS: u8 = 3;
const TAG_FRAG_ANNOUNCE: u8 = 4;
const TAG_PROBE: u8 = 5;
const TAG_MWOE_UP: u8 = 6;
const TAG_PARTICIPATE: u8 = 7;
const TAG_MWOE_PATH: u8 = 8;
const TAG_CONNECT_REQ: u8 = 9;
const TAG_KIDS_UP: u8 = 10;
const TAG_COLOR_DOWN: u8 = 11;
const TAG_COLOR_CROSS: u8 = 12;
const TAG_COLOR_UP: u8 = 13;
const TAG_UNMATCHED_UP: u8 = 14;
const TAG_ACCEPT_PATH: u8 = 15;
const TAG_ACCEPT_CROSS: u8 = 16;
const TAG_MATCHED_UP: u8 = 17;
const TAG_STATUS_DOWN: u8 = 18;
const TAG_STATUS_CROSS: u8 = 19;
const TAG_MERGE_PATH: u8 = 20;
const TAG_MERGE_CROSS: u8 = 21;
const TAG_NEW_FRAG: u8 = 22;
const TAG_FLOOD_ACK: u8 = 23;
const TAG_SYNC_NO_FLOOD: u8 = 24;
const TAG_SYNC_UP: u8 = 25;
const TAG_SYNC_START: u8 = 26;
const TAG_REGISTER: u8 = 27;
const TAG_REG_DONE: u8 = 28;
const TAG_INIT_COARSE: u8 = 29;
const TAG_COARSE_ANNOUNCE: u8 = 30;
const TAG_FRAG_MWOE_UP: u8 = 31;
const TAG_CANDIDATE: u8 = 32;
const TAG_UP_DONE: u8 = 33;
const TAG_ASSIGN: u8 = 34;
const TAG_NEW_COARSE: u8 = 35;
const TAG_MARK_PATH: u8 = 36;
const TAG_MARK_CROSS: u8 = 37;

/// Writes a [`CandKey`] as three full words (the weight needs all 64
/// bits; the endpoints get whole words so the key stays one fixed shape
/// everywhere it is embedded).
fn encode_key(w: &mut WireWriter<'_>, k: &CandKey) {
    w.word(k.weight);
    w.word(k.lo);
    w.word(k.hi);
}

/// Mirror of [`encode_key`].
fn decode_key(r: &mut WireReader<'_>) -> CandKey {
    CandKey { weight: r.word(), lo: r.word(), hi: r.word() }
}

/// Protocol messages, grouped by stage. The stage/phase a message belongs to
/// is implicit in the (synchronized) round schedule for Stage B and in the
/// explicit control flow for Stages A, C, D.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    // ---- Stage A: BFS tree, sizes, parameter broadcast ----
    /// BFS wave from the root; receivers adopt the sender as parent.
    Bfs,
    /// "You are my BFS parent" — lets parents learn their child ports.
    BfsChild,
    /// Convergecast of `(subtree size, subtree height)` toward the BFS root.
    SizeUp {
        /// Number of vertices in the sender's BFS subtree.
        size: u64,
        /// Height of that subtree (max depth below the sender).
        height: u64,
    },
    /// Root broadcast of the globally agreed parameters, carrying each
    /// receiver's routing interval on the way down.
    Params {
        /// Number of vertices.
        n: u64,
        /// Height of the BFS tree (so `H <= D <= 2H`).
        h: u64,
        /// Base-forest parameter `k` (paper §3: `sqrt(n/b)` or `H`).
        k: u64,
        /// Absolute round at which Stage B begins.
        t0: u64,
        /// First slot of the receiver's interval (its own slot); the
        /// interval's length is the receiver's BFS subtree size.
        start: u64,
    },

    // ---- Stage B: Controlled-GHS (paper §4) ----
    /// Per-phase refresh of `(fragment id, sender id)` to all neighbors.
    FragAnnounce {
        /// Sender's current fragment id.
        frag: u64,
        /// Sender's vertex id (teaches neighbors our identity — clean model).
        me: u64,
    },
    /// Depth-budgeted broadcast from the fragment root; participation test.
    Probe {
        /// Remaining hops the probe may still descend.
        ttl: u32,
    },
    /// Convergecast response to [`Msg::Probe`].
    MwoeUp {
        /// Best outgoing-edge candidate key in the subtree, if any.
        cand: Option<CandKey>,
        /// Whether the subtree extends beyond the probe's depth budget
        /// (fragment too tall to participate this phase).
        overflow: bool,
    },
    /// Root tells its (participating) fragment that the phase is on.
    Participate,
    /// Downcast along the argmin path toward the MWOE endpoint.
    MwoePath,
    /// Sent across the MWOE to the foreign endpoint, registering the sender's
    /// fragment as a "foreign child" (paper §4).
    ConnectReq {
        /// The child fragment's id.
        child_frag: u64,
    },
    /// Convergecast: does any vertex of this fragment host a foreign child?
    KidsUp {
        /// OR-aggregate over the subtree.
        has: bool,
    },
    /// Fragment-internal broadcast of the fragment's current CV color.
    ColorDown {
        /// The color.
        color: u64,
    },
    /// Color forwarded across a cross edge to a foreign child's endpoint.
    ColorCross {
        /// Parent fragment's color.
        color: u64,
    },
    /// Color routed up from the MWOE endpoint to the fragment root.
    ColorUp {
        /// Parent fragment's color.
        color: u64,
    },
    /// Matching convergecast: smallest unmatched foreign-child fragment id.
    UnmatchedUp {
        /// Argmin over the subtree, if any unmatched child exists.
        child: Option<u64>,
    },
    /// Downcast along the argmin path toward the chosen child's cross edge.
    AcceptPath,
    /// Acceptance sent across the cross edge: "your fragment is matched".
    AcceptCross {
        /// The accepting (parent) fragment's id.
        parent_frag: u64,
    },
    /// The child fragment routes the acceptance up to its root.
    MatchedUp {
        /// The partner (parent) fragment's id.
        partner: u64,
    },
    /// Fragment-internal broadcast: "we are matched".
    StatusDown,
    /// Matched-status notification over a cross edge (to foreign children
    /// and to the fragment's own MWOE parent).
    StatusCross,
    /// Downcast along the argmin path: unmatched fragment merges via MWOE.
    MergePath,
    /// Merge request across the MWOE; the receiver's side absorbs the sender.
    MergeCross,
    /// Flood establishing the merged fragment: new id + re-orientation.
    NewFrag {
        /// Id of the merged fragment (its new root's vertex id).
        id: u64,
    },

    // ---- Stage B adaptive phase ends (tag `b:sync`; sync-ended phases of
    // `ScheduleMode::Adaptive` only — see `schedule.rs`) ----
    /// Ack retracing a [`Msg::NewFrag`] edge: the sender's entire flood
    /// subtree has been re-oriented and is quiet.
    FloodAck {
        /// Phase the ack belongs to (consistency check).
        phase: u32,
    },
    /// Old-fragment-root broadcast down its fragment tree: no merge flood
    /// will enter this fragment this phase; settle immediately.
    SyncNoFlood {
        /// Phase the signal belongs to (consistency check).
        phase: u32,
    },
    /// BFS-tree convergecast: every vertex of my BFS subtree has settled
    /// (merge flood processed and acked, or provably not coming).
    SyncUp {
        /// Phase the report belongs to (consistency check).
        phase: u32,
    },
    /// BFS-root broadcast ending a sync phase: window scheduling resumes
    /// with phase `phase` at absolute round `start` (a `phase` equal to the
    /// phase count means Stage B is over and Stage C begins at `start`).
    SyncStart {
        /// The next phase index.
        phase: u32,
        /// Absolute round at which it starts, everywhere simultaneously.
        start: u64,
    },

    // ---- Stage C: fragment registration (paper §3). The intervals
    // themselves ride Stage A's `Params`; the tag keeps its historical
    // name `c:intervals`, which perfbench's tag table reports. ----
    /// Base-fragment root registers `(its slot)` with the BFS root;
    /// pipelined up the BFS tree.
    Register {
        /// Slot of the registering fragment root.
        slot: u64,
    },
    /// Pipeline completion marker for the registration upcast.
    RegDone,
    /// Base-fragment root tells its vertices their initial coarse id.
    /// Receiving it (or owning a slot, at fragment roots) *is* the start
    /// of Borůvka phase 0 — there is no separate start broadcast.
    InitCoarse {
        /// Initial coarse fragment id (the root's slot).
        id: u64,
    },

    // ---- Stage D: Boruvka on top of the base forest (paper §3).
    //
    // Phases are event-driven and fused: no per-phase barrier messages
    // exist. A vertex announces phase `j` as soon as its coarse id for `j`
    // is current, aggregates its fragment subtree as soon as all of its
    // *own* neighbors' announcements have landed, and starts phase `j+1`
    // the moment the phase-`j` answer (`Assign`/`NewCoarse`, which carry
    // the next phase) reaches it. Neighboring vertices are never more
    // than one phase apart (the per-phase `UpDone` convergecast gates the
    // root merge on every vertex), so receivers classify `CoarseAnnounce`
    // / `Candidate` / `UpDone` by per-port FIFO counting. ----
    /// Per-phase refresh of `(coarse id, sender id)` to all neighbors.
    /// Sent exactly once per phase in phase order, so the receiver infers
    /// the phase from its per-port receive count (per-edge FIFO).
    CoarseAnnounce {
        /// Sender's current coarse fragment id.
        coarse: u64,
        /// Sender's vertex id.
        me: u64,
    },
    /// Event-driven base-fragment convergecast of the best candidate
    /// w.r.t. the coarse partition: sent to the fragment parent as soon
    /// as the sender is locally ready (all neighbor announcements in) and
    /// its fragment subtree has reported. Always matches the receiver's
    /// current phase (the subtree cannot outrun its own fragment root).
    FragMwoeUp {
        /// Best candidate in the subtree (key + coarse ids), if any.
        cand: Option<(CandKey, u64, u64)>,
    },
    /// A candidate record in the pipelined, filtered upcast to the BFS root.
    Candidate {
        /// The record.
        rec: Candidate,
    },
    /// Pipeline completion marker for the candidate upcast: sent once per
    /// phase in phase order (receivers count per port, like
    /// [`Msg::CoarseAnnounce`]).
    UpDone,
    /// Interval-routed answer to one base fragment (pipelined downcast).
    /// Carries the *next* phase index: receipt is the start-of-phase
    /// signal, so fragments re-announce immediately.
    Assign {
        /// Destination slot (the base fragment root's interval start).
        dest_slot: u64,
        /// The base fragment's new coarse id.
        new_coarse: u64,
        /// Whether this base fragment's candidate was chosen as an MST edge.
        chosen: bool,
        /// Whether the algorithm is globally finished after this phase.
        done: bool,
        /// The phase the destination fragment starts on receipt (answered
        /// phase + 1).
        next: u64,
    },
    /// Base-fragment-internal broadcast of the new coarse id (+ done flag
    /// + next phase): the fragment-local leg of [`Msg::Assign`].
    NewCoarse {
        /// New coarse id.
        id: u64,
        /// Global termination flag.
        done: bool,
        /// The phase the receiver starts immediately (answered phase + 1).
        next: u64,
    },
    /// Downcast along the remembered argmin path: mark the candidate edge.
    /// Travels the same fragment-tree edges as the same phase's
    /// [`Msg::NewCoarse`] and is always sent *before* it, so per-edge FIFO
    /// guarantees it reaches each hop's `DScratch` before the phase rolls.
    MarkPath,
    /// Marks the far endpoint of a chosen MST edge across the edge itself.
    MarkCross,
}

impl Message for Msg {
    fn tag(&self) -> &'static str {
        match self {
            Msg::Bfs | Msg::BfsChild | Msg::SizeUp { .. } | Msg::Params { .. } => "a:bfs",
            Msg::FragAnnounce { .. } => "b:announce",
            Msg::Probe { .. } | Msg::MwoeUp { .. } => "b:mwoe",
            Msg::Participate | Msg::MwoePath | Msg::ConnectReq { .. } | Msg::KidsUp { .. } => {
                "b:connect"
            }
            Msg::ColorDown { .. } | Msg::ColorCross { .. } | Msg::ColorUp { .. } => "b:color",
            Msg::UnmatchedUp { .. }
            | Msg::AcceptPath
            | Msg::AcceptCross { .. }
            | Msg::MatchedUp { .. }
            | Msg::StatusDown
            | Msg::StatusCross => "b:match",
            Msg::MergePath | Msg::MergeCross | Msg::NewFrag { .. } => "b:merge",
            Msg::FloodAck { .. }
            | Msg::SyncNoFlood { .. }
            | Msg::SyncUp { .. }
            | Msg::SyncStart { .. } => "b:sync",
            Msg::Register { .. } | Msg::RegDone | Msg::InitCoarse { .. } => "c:intervals",
            Msg::CoarseAnnounce { .. } => "d:announce",
            Msg::FragMwoeUp { .. } => "d:fragmwoe",
            Msg::Candidate { .. } | Msg::UpDone => "d:upcast",
            Msg::Assign { .. } => "d:downcast",
            Msg::NewCoarse { .. } | Msg::MarkPath | Msg::MarkCross => "d:newcoarse",
        }
    }

    fn encode(&self, w: &mut WireWriter<'_>) {
        match self {
            Msg::Bfs => w.tag(TAG_BFS),
            Msg::BfsChild => w.tag(TAG_BFS_CHILD),
            Msg::SizeUp { size, height } => {
                w.tag(TAG_SIZE_UP);
                w.pack(*size); // subtree size <= n
                w.word(*height);
            }
            Msg::Params { n, h, k, t0, start } => {
                w.tag(TAG_PARAMS);
                w.pack(*n);
                w.word(*h);
                w.word(*k);
                w.word(*t0);
                w.word(*start);
            }
            Msg::FragAnnounce { frag, me } => {
                w.tag(TAG_FRAG_ANNOUNCE);
                w.pack(*frag); // fragment ids are vertex ids
                w.word(*me);
            }
            Msg::Probe { ttl } => {
                w.tag(TAG_PROBE);
                w.pack(u64::from(*ttl));
            }
            Msg::MwoeUp { cand, overflow } => {
                w.tag(TAG_MWOE_UP);
                w.flag(0, cand.is_some());
                w.flag(1, *overflow);
                encode_key(w, &cand.unwrap_or(CandKey { weight: 0, lo: 0, hi: 0 }));
            }
            Msg::Participate => w.tag(TAG_PARTICIPATE),
            Msg::MwoePath => w.tag(TAG_MWOE_PATH),
            Msg::ConnectReq { child_frag } => {
                w.tag(TAG_CONNECT_REQ);
                w.pack(*child_frag);
            }
            Msg::KidsUp { has } => {
                w.tag(TAG_KIDS_UP);
                w.flag(0, *has);
            }
            Msg::ColorDown { color } => {
                w.tag(TAG_COLOR_DOWN);
                w.pack(*color);
            }
            Msg::ColorCross { color } => {
                w.tag(TAG_COLOR_CROSS);
                w.pack(*color);
            }
            Msg::ColorUp { color } => {
                w.tag(TAG_COLOR_UP);
                w.pack(*color);
            }
            Msg::UnmatchedUp { child } => {
                w.tag(TAG_UNMATCHED_UP);
                w.flag(0, child.is_some());
                w.pack(child.unwrap_or(0)); // child fragment id < n
            }
            Msg::AcceptPath => w.tag(TAG_ACCEPT_PATH),
            Msg::AcceptCross { parent_frag } => {
                w.tag(TAG_ACCEPT_CROSS);
                w.pack(*parent_frag);
            }
            Msg::MatchedUp { partner } => {
                w.tag(TAG_MATCHED_UP);
                w.pack(*partner);
            }
            Msg::StatusDown => w.tag(TAG_STATUS_DOWN),
            Msg::StatusCross => w.tag(TAG_STATUS_CROSS),
            Msg::MergePath => w.tag(TAG_MERGE_PATH),
            Msg::MergeCross => w.tag(TAG_MERGE_CROSS),
            Msg::NewFrag { id } => {
                w.tag(TAG_NEW_FRAG);
                w.pack(*id);
            }
            Msg::FloodAck { phase } => {
                w.tag(TAG_FLOOD_ACK);
                w.word(u64::from(*phase));
            }
            Msg::SyncNoFlood { phase } => {
                w.tag(TAG_SYNC_NO_FLOOD);
                w.word(u64::from(*phase));
            }
            Msg::SyncUp { phase } => {
                w.tag(TAG_SYNC_UP);
                w.word(u64::from(*phase));
            }
            Msg::SyncStart { phase, start } => {
                w.tag(TAG_SYNC_START);
                w.word(u64::from(*phase));
                w.word(*start);
            }
            Msg::Register { slot } => {
                w.tag(TAG_REGISTER);
                w.pack(*slot);
            }
            Msg::RegDone => w.tag(TAG_REG_DONE),
            Msg::InitCoarse { id } => {
                w.tag(TAG_INIT_COARSE);
                w.pack(*id);
            }
            Msg::CoarseAnnounce { coarse, me } => {
                w.tag(TAG_COARSE_ANNOUNCE);
                w.pack(*coarse); // coarse ids are interval slots < n
                w.word(*me);
            }
            Msg::FragMwoeUp { cand } => {
                w.tag(TAG_FRAG_MWOE_UP);
                w.flag(0, cand.is_some());
                let (key, src, dst) = cand.unwrap_or((CandKey { weight: 0, lo: 0, hi: 0 }, 0, 0));
                w.pack(src);
                encode_key(w, &key);
                w.word(dst);
            }
            Msg::Candidate { rec } => {
                w.tag(TAG_CANDIDATE);
                w.pack(rec.src_slot);
                encode_key(w, &rec.key);
                w.word(rec.src_coarse);
                w.word(rec.dst_coarse);
            }
            Msg::UpDone => w.tag(TAG_UP_DONE),
            Msg::Assign { dest_slot, new_coarse, chosen, done, next } => {
                w.tag(TAG_ASSIGN);
                w.flag(0, *chosen);
                w.flag(1, *done);
                w.word(*dest_slot);
                w.word(*new_coarse);
                w.word(*next);
            }
            Msg::NewCoarse { id, done, next } => {
                w.tag(TAG_NEW_COARSE);
                w.flag(0, *done);
                w.word(*id);
                w.word(*next);
            }
            Msg::MarkPath => w.tag(TAG_MARK_PATH),
            Msg::MarkCross => w.tag(TAG_MARK_CROSS),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.tag() {
            TAG_BFS => Msg::Bfs,
            TAG_BFS_CHILD => Msg::BfsChild,
            TAG_SIZE_UP => Msg::SizeUp { size: r.packed(), height: r.word() },
            TAG_PARAMS => Msg::Params {
                n: r.packed(),
                h: r.word(),
                k: r.word(),
                t0: r.word(),
                start: r.word(),
            },
            TAG_FRAG_ANNOUNCE => Msg::FragAnnounce { frag: r.packed(), me: r.word() },
            TAG_PROBE => Msg::Probe { ttl: r.packed() as u32 },
            TAG_MWOE_UP => {
                let some = r.flag(0);
                let overflow = r.flag(1);
                let key = decode_key(r);
                Msg::MwoeUp { cand: some.then_some(key), overflow }
            }
            TAG_PARTICIPATE => Msg::Participate,
            TAG_MWOE_PATH => Msg::MwoePath,
            TAG_CONNECT_REQ => Msg::ConnectReq { child_frag: r.packed() },
            TAG_KIDS_UP => Msg::KidsUp { has: r.flag(0) },
            TAG_COLOR_DOWN => Msg::ColorDown { color: r.packed() },
            TAG_COLOR_CROSS => Msg::ColorCross { color: r.packed() },
            TAG_COLOR_UP => Msg::ColorUp { color: r.packed() },
            TAG_UNMATCHED_UP => Msg::UnmatchedUp { child: r.flag(0).then_some(r.packed()) },
            TAG_ACCEPT_PATH => Msg::AcceptPath,
            TAG_ACCEPT_CROSS => Msg::AcceptCross { parent_frag: r.packed() },
            TAG_MATCHED_UP => Msg::MatchedUp { partner: r.packed() },
            TAG_STATUS_DOWN => Msg::StatusDown,
            TAG_STATUS_CROSS => Msg::StatusCross,
            TAG_MERGE_PATH => Msg::MergePath,
            TAG_MERGE_CROSS => Msg::MergeCross,
            TAG_NEW_FRAG => Msg::NewFrag { id: r.packed() },
            TAG_FLOOD_ACK => Msg::FloodAck { phase: r.word() as u32 },
            TAG_SYNC_NO_FLOOD => Msg::SyncNoFlood { phase: r.word() as u32 },
            TAG_SYNC_UP => Msg::SyncUp { phase: r.word() as u32 },
            TAG_SYNC_START => Msg::SyncStart { phase: r.word() as u32, start: r.word() },
            TAG_REGISTER => Msg::Register { slot: r.packed() },
            TAG_REG_DONE => Msg::RegDone,
            TAG_INIT_COARSE => Msg::InitCoarse { id: r.packed() },
            TAG_COARSE_ANNOUNCE => Msg::CoarseAnnounce { coarse: r.packed(), me: r.word() },
            TAG_FRAG_MWOE_UP => {
                let some = r.flag(0);
                let src = r.packed();
                let key = decode_key(r);
                let dst = r.word();
                Msg::FragMwoeUp { cand: some.then_some((key, src, dst)) }
            }
            TAG_CANDIDATE => {
                let src_slot = r.packed();
                let key = decode_key(r);
                Msg::Candidate {
                    rec: Candidate { key, src_coarse: r.word(), dst_coarse: r.word(), src_slot },
                }
            }
            TAG_UP_DONE => Msg::UpDone,
            TAG_ASSIGN => {
                let chosen = r.flag(0);
                let done = r.flag(1);
                Msg::Assign {
                    dest_slot: r.word(),
                    new_coarse: r.word(),
                    chosen,
                    done,
                    next: r.word(),
                }
            }
            TAG_NEW_COARSE => Msg::NewCoarse { id: r.word(), done: r.flag(0), next: r.word() },
            TAG_MARK_PATH => Msg::MarkPath,
            TAG_MARK_CROSS => Msg::MarkCross,
            other => unreachable!("unknown Msg wire tag {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{CandKey, Candidate};

    fn encoded_len(m: &Msg) -> usize {
        let mut buf = Vec::new();
        m.encode(&mut congest_sim::WireWriter::new(&mut buf));
        buf.len()
    }

    #[test]
    fn all_messages_fit_one_unit() {
        let rec =
            Candidate { key: CandKey::new(1, 2, 3), src_coarse: 4, dst_coarse: 5, src_slot: 6 };
        let samples = [
            Msg::Bfs,
            Msg::SizeUp { size: 1, height: 2 },
            Msg::Params { n: 1, h: 2, k: 3, t0: 4, start: 5 },
            Msg::FragAnnounce { frag: 1, me: 2 },
            Msg::MwoeUp { cand: Some(CandKey::new(1, 2, 3)), overflow: false },
            Msg::FragMwoeUp { cand: Some((CandKey::new(1, 2, 3), 4, 5)) },
            Msg::Candidate { rec },
            Msg::Assign { dest_slot: 1, new_coarse: 2, chosen: true, done: false, next: 3 },
            Msg::NewCoarse { id: 2, done: false, next: 3 },
        ];
        for m in samples {
            let len = encoded_len(&m);
            assert!(
                len >= 1 && len <= congest_sim::UNIT_WORDS as usize,
                "{m:?} out of unit budget"
            );
            assert!(!m.tag().is_empty());
        }
    }

    #[test]
    fn register_is_one_word() {
        // Regression (PR 3): `Register` used to drag a dead `height` field
        // that doubled its cost against the per-edge word budget.
        assert_eq!(encoded_len(&Msg::Register { slot: 9 }), 1);
    }

    #[test]
    fn tags_group_by_stage() {
        assert_eq!(Msg::Bfs.tag(), "a:bfs");
        assert_eq!(Msg::NewFrag { id: 3 }.tag(), "b:merge");
        assert_eq!(Msg::Register { slot: 0 }.tag(), "c:intervals");
        assert_eq!(Msg::UpDone.tag(), "d:upcast");
        for m in [
            Msg::FloodAck { phase: 1 },
            Msg::SyncNoFlood { phase: 1 },
            Msg::SyncUp { phase: 1 },
            Msg::SyncStart { phase: 2, start: 99 },
        ] {
            assert_eq!(m.tag(), "b:sync");
            assert!(encoded_len(&m) <= 3);
        }
    }

    #[test]
    fn tag_guards_mirror_tags() {
        // One representative per wire tag; a new tag that lands without a
        // row here *and* in `node::TAG_GUARDS` fails both this test and the
        // `dmst-analysis` tag-guard rule.
        let reps = [
            Msg::Bfs,
            Msg::FragAnnounce { frag: 1, me: 2 },
            Msg::MwoeUp { cand: None, overflow: false },
            Msg::Participate,
            Msg::ColorUp { color: 7 },
            Msg::StatusCross,
            Msg::MergePath,
            Msg::SyncUp { phase: 1 },
            Msg::Register { slot: 0 },
            Msg::CoarseAnnounce { coarse: 1, me: 2 },
            Msg::FragMwoeUp { cand: None },
            Msg::UpDone,
            Msg::Assign { dest_slot: 1, new_coarse: 2, chosen: true, done: false, next: 3 },
            Msg::MarkPath,
        ];
        let guards = crate::node::TAG_GUARDS;
        assert_eq!(guards.len(), reps.len(), "one TAG_GUARDS row per wire tag");
        for m in &reps {
            let tag = m.tag();
            let row = guards
                .iter()
                .find(|(t, _, _)| *t == tag)
                .unwrap_or_else(|| panic!("tag {tag:?} missing from TAG_GUARDS"));
            assert_eq!(
                tag.chars().next(),
                Some(row.1),
                "census letter of {tag:?} must match its stage prefix"
            );
        }
        // Rows are unique and sorted, so diffs stay reviewable.
        let tags: Vec<&str> = guards.iter().map(|(t, _, _)| *t).collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(tags, sorted, "TAG_GUARDS rows must be sorted and unique");
    }
}
