//! Seeded violation: a Msg variant absent from both encode() and
//! decode(), plus a wildcard arm in encode() that would hide the
//! omission on the wire. The tag mirror is complete so only
//! encode-exhaustive fires.

pub enum Msg {
    Ping,
    Pong { weight: u64 },
    Probe(u64),
}

impl Message for Msg {
    fn tag(&self) -> &'static str {
        "a:bfs"
    }

    fn encode(&self, w: &mut WireWriter<'_>) {
        match self {
            Msg::Ping => w.tag(0),
            Msg::Pong { weight } => {
                w.tag(1);
                w.word(*weight);
            }
            _ => w.tag(9),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.tag() {
            0 => Msg::Ping,
            1 => Msg::Pong { weight: r.word() },
            other => unreachable!("unknown tag {other}"),
        }
    }
}

pub(crate) const TAG_GUARDS: &[(&str, char, &str)] = &[("a:bfs", 'a', "next_wake")];

pub struct Node;

impl Node {
    fn stage_tag(&self) -> &'static str {
        "a"
    }

    fn next_wake(&self) -> Option<u64> {
        None
    }
}
