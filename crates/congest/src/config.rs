//! Run-time configuration of a simulation.

/// Default number of words in one unit message.
///
/// A unit message in our protocols carries at most ~6 fields (a tag, a
/// weight, two endpoint ids, two fragment ids); 8 gives slack while
/// staying `O(1)` words = `O(log n)` bits. Protocol code that must stay
/// within the per-round word budget sends through
/// [`RoundCtx::try_send`](crate::RoundCtx::try_send), which reads it from
/// [`RunConfig::capacity_words`]; code that needs the number itself derives
/// it from `UNIT_WORDS` instead of re-stating the unit size as a literal —
/// the `dmst-analysis` `drifting-literal` rule enforces this.
pub const UNIT_WORDS: u32 = 8;

/// What to do when a round's sends over one edge direction exceed the
/// bandwidth budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CapacityMode {
    /// Abort the run with [`SimError::CapacityExceeded`](crate::SimError).
    /// This is the faithful CONGEST semantics and the default: a protocol
    /// that oversends is *wrong*, not slow.
    #[default]
    Strict,
    /// Count words but deliver everything a plain
    /// [`send`](crate::RoundCtx::send) offers (a
    /// [`try_send`](crate::RoundCtx::try_send) still keeps to the budget).
    /// Useful for ablations that deliberately break the model (e.g.
    /// measuring how many messages a naive variant *would* need).
    Unchecked,
}

/// Configuration for [`Network::run`](crate::Network::run).
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The `b` of `CONGEST(b log n)`: how many unit messages each edge
    /// direction carries per round. The standard CONGEST model is `b = 1`.
    pub bandwidth: u32,
    /// Words per unit message. One word is one `O(log n)`-bit quantity; the
    /// paper's model allows a message to carry "`O(1)` edge weights and/or
    /// identity numbers", so a unit message is a small constant number of
    /// words. The per-edge-direction budget per round is
    /// `bandwidth * words_per_unit` words.
    pub words_per_unit: u32,
    /// Enforcement policy for the bandwidth budget.
    pub capacity: CapacityMode,
    /// Hard cap on rounds; exceeding it aborts with
    /// [`SimError::MaxRoundsExceeded`](crate::SimError). Guards against
    /// non-terminating protocols in tests.
    pub max_rounds: u64,
    /// Number of executor shards (worker threads). `1` (the default) runs
    /// the whole network on the calling thread; `0` asks for one shard per
    /// available CPU. The shard count is a *performance* knob only: results
    /// — [`RunStats`](crate::RunStats) and final node states — are
    /// bit-identical for every value (see the executor docs on the per-port
    /// FIFO determinism contract).
    pub shards: u32,
    /// Whether the executor may honor
    /// [`NodeProgram::next_wake`](crate::NodeProgram::next_wake) hints and
    /// skip idle nodes/rounds.
    /// `false` steps every node in every round (legacy behavior); with
    /// *correct* hints the results are identical either way, which the
    /// determinism proptests exploit to cross-check the hint contract.
    pub wake_hints: bool,
}

impl RunConfig {
    /// Words available per edge direction per round.
    #[inline]
    pub fn capacity_words(&self) -> u64 {
        u64::from(self.bandwidth) * u64::from(self.words_per_unit)
    }

    /// Standard CONGEST (`b = 1`) with the default unit-message width.
    pub fn congest() -> Self {
        Self::default()
    }

    /// `CONGEST(b log n)` with the given `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn congest_b(b: u32) -> Self {
        assert!(b > 0, "bandwidth must be positive");
        Self { bandwidth: b, ..Self::default() }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            bandwidth: 1,
            words_per_unit: UNIT_WORDS,
            capacity: CapacityMode::Strict,
            max_rounds: 10_000_000,
            shards: 1,
            wake_hints: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_words_scales_with_b() {
        assert_eq!(RunConfig::congest().capacity_words(), 8);
        assert_eq!(RunConfig::congest_b(4).capacity_words(), 32);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = RunConfig::congest_b(0);
    }
}
