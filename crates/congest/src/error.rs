//! Simulation errors.

use std::error::Error;
use std::fmt;

use crate::topology::NodeId;

/// Errors raised while constructing a topology or running a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The edge list did not describe a simple graph on `n` nodes.
    InvalidTopology(String),
    /// In [`CapacityMode::Strict`](crate::CapacityMode::Strict), a node sent
    /// more words over one edge direction in one round than the budget
    /// allows. This indicates a protocol bug, not congestion.
    CapacityExceeded {
        /// Round in which the violation occurred.
        round: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Words enqueued on this direction this round, including the
        /// violating message.
        words: u64,
        /// Allowed words per direction per round.
        capacity: u64,
    },
    /// A message encoded to zero words. Every message occupies the
    /// channel, so its encoding must write at least one word; an empty one
    /// would ride the edge for free. This indicates a protocol bug.
    EmptyMessage {
        /// Round of the send.
        round: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message's [`Message::tag`](crate::Message::tag).
        tag: &'static str,
    },
    /// The run exceeded [`RunConfig::max_rounds`](crate::RunConfig).
    MaxRoundsExceeded {
        /// The configured cap.
        max_rounds: u64,
        /// Nodes still not done when the cap was hit.
        pending_nodes: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            SimError::CapacityExceeded { round, from, to, words, capacity } => write!(
                f,
                "bandwidth exceeded at round {round} on edge {from} -> {to}: \
                 {words} words sent, {capacity} allowed"
            ),
            SimError::EmptyMessage { round, from, to, tag } => write!(
                f,
                "empty message at round {round} on edge {from} -> {to}: \
                 tag {tag:?} encoded to zero words"
            ),
            SimError::MaxRoundsExceeded { max_rounds, pending_nodes } => write!(
                f,
                "simulation did not terminate within {max_rounds} rounds \
                 ({pending_nodes} nodes still running)"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::CapacityExceeded { round: 3, from: 1, to: 2, words: 9, capacity: 8 };
        let s = e.to_string();
        assert!(s.contains("round 3"));
        assert!(s.contains("1 -> 2"));
        let e = SimError::EmptyMessage { round: 5, from: 0, to: 1, tag: "ping" };
        assert!(e.to_string().contains("\"ping\" encoded to zero words"));
    }
}
