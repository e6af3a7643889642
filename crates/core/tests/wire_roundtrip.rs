//! Wire-format round-trip properties for the Elkin protocol: for every
//! [`Msg`] variant, `decode(encode(m)) == m`, decode consumes exactly the
//! words encode wrote, and that count lies in `1..=UNIT_WORDS` — the
//! length contract the executor's drain checks (it decodes each message
//! from its own frame and debug-asserts that decode consumed all of it).
//! The count is the message's bandwidth charge, so a
//! message longer than one unit would be deferred by `try_send` forever at
//! `b = 1`.
//!
//! Field domains mirror the protocol's: vertex ids, fragment ids, slots,
//! colors, and coarse ids are `< 2^32` (the simulator caps `n` at
//! `u32::MAX`, and the wire format packs them into tag words); weights and
//! key components carry full words.

use congest_sim::{Message, WireReader, WireWriter, UNIT_WORDS};
use dmst_core::{CandKey, Candidate, Msg};
use proptest::prelude::*;

/// Encode, check the encoded length, decode, check identity and that the
/// reader consumed exactly the encoded span (the frame length).
fn check(m: &Msg) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    let mut w = WireWriter::new(&mut buf);
    m.encode(&mut w);
    let len = w.len();
    prop_assert!((1..=UNIT_WORDS as usize).contains(&len), "{:?} encodes to {} words", m, len);
    let mut r = WireReader::new(&buf);
    let back = Msg::decode(&mut r);
    prop_assert_eq!(&back, m);
    prop_assert_eq!(r.consumed(), buf.len(), "decode consumed a different span for {:?}", m);
    Ok(())
}

/// Deterministically builds one of the 38 variants from raw components.
/// `small*` feed packed (tag-word) fields, `big*` feed full-word fields.
#[allow(clippy::too_many_arguments)]
fn build(
    sel: usize,
    small: u32,
    small2: u32,
    big: u64,
    big2: u64,
    big3: u64,
    flag: bool,
    flag2: bool,
) -> Msg {
    let id = u64::from(small);
    let id2 = u64::from(small2);
    let key = CandKey::new(big, big2, big3);
    match sel {
        0 => Msg::Bfs,
        1 => Msg::BfsChild,
        2 => Msg::SizeUp { size: id, height: big },
        3 => Msg::Params { n: id, h: big, k: big2, t0: big3, start: id2 },
        4 => Msg::FragAnnounce { frag: id, me: big },
        5 => Msg::Probe { ttl: small },
        6 => Msg::MwoeUp { cand: flag.then_some(key), overflow: flag2 },
        7 => Msg::Participate,
        8 => Msg::MwoePath,
        9 => Msg::ConnectReq { child_frag: id },
        10 => Msg::KidsUp { has: flag },
        11 => Msg::ColorDown { color: id },
        12 => Msg::ColorCross { color: id },
        13 => Msg::ColorUp { color: id },
        14 => Msg::UnmatchedUp { child: flag.then_some(id) },
        15 => Msg::AcceptPath,
        16 => Msg::AcceptCross { parent_frag: id },
        17 => Msg::MatchedUp { partner: id },
        18 => Msg::StatusDown,
        19 => Msg::StatusCross,
        20 => Msg::MergePath,
        21 => Msg::MergeCross,
        22 => Msg::NewFrag { id },
        23 => Msg::FloodAck { phase: small },
        24 => Msg::SyncNoFlood { phase: small },
        25 => Msg::SyncUp { phase: small },
        26 => Msg::SyncStart { phase: small, start: big },
        27 => Msg::Register { slot: id },
        28 => Msg::RegDone,
        29 => Msg::InitCoarse { id },
        30 => Msg::CoarseAnnounce { coarse: id, me: big },
        31 => Msg::FragMwoeUp { cand: flag.then_some((key, id2, big)) },
        32 => Msg::Candidate {
            rec: Candidate { key, src_coarse: big, dst_coarse: big2, src_slot: id },
        },
        33 => Msg::UpDone,
        34 => {
            Msg::Assign { dest_slot: big, new_coarse: big2, chosen: flag, done: flag2, next: big3 }
        }
        35 => Msg::NewCoarse { id: big, done: flag, next: big2 },
        36 => Msg::MarkPath,
        _ => Msg::MarkCross,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Every variant survives one encode/decode cycle and encodes to
    /// between one and `UNIT_WORDS` words.
    #[test]
    fn msg_roundtrip(
        sel in 0usize..38,
        small in any::<u32>(),
        small2 in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        big3 in any::<u64>(),
        flag in any::<bool>(),
        flag2 in any::<bool>(),
    ) {
        check(&build(sel, small, small2, big, big2, big3, flag, flag2))?;
    }

    /// Self-delimiting: messages encoded back-to-back into one buffer (no
    /// per-message framing) decode sequentially to the original sequence,
    /// each consuming its own span.
    #[test]
    fn msg_ring_roundtrip(
        sels in proptest::collection::vec(0usize..38, 1..8),
        small in any::<u32>(),
        small2 in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        big3 in any::<u64>(),
        flag in any::<bool>(),
        flag2 in any::<bool>(),
    ) {
        let msgs: Vec<Msg> =
            sels.iter().map(|&s| build(s, small, small2, big, big2, big3, flag, flag2)).collect();
        let mut ring = Vec::new();
        for m in &msgs {
            let mut w = WireWriter::new(&mut ring);
            m.encode(&mut w);
            prop_assert!(!w.is_empty());
        }
        let mut head = 0usize;
        for m in &msgs {
            let mut r = WireReader::new(&ring[head..]);
            prop_assert_eq!(&Msg::decode(&mut r), m);
            head += r.consumed();
        }
        prop_assert_eq!(head, ring.len());
    }
}
