//! Global parameters and the round schedule of the Controlled-GHS stage.
//!
//! The synchronous model gives every vertex a shared clock, so once the BFS
//! root has broadcast `(n, H, k, t0)` (end of Stage A), every vertex computes
//! the *same* schedule locally and knows, for any absolute round, which
//! sub-step of which Controlled-GHS phase is executing. This realizes the
//! paper's implicit phase synchronization with explicit budget constants.
//!
//! # Window table and derivation
//!
//! Per phase `i` (participation radius `p = 2^i`), a participating fragment
//! has height `<= p` (that is exactly what the probe's depth budget tests),
//! so each sub-step's latency is a small multiple of `p`. The two columns
//! below are the **Fixed** (seed, deliberately padded) and **Adaptive**
//! (provably minimal) window lengths; the derivation of each adaptive
//! length is the longest message chain of the sub-step, where a message
//! sent in round `r` is processed in round `r + 1`:
//!
//! | window | fixed | adaptive | longest chain (adaptive) |
//! |---|---|---|---|
//! | Announce | `1` | `1` | one local send; delivered at the next window's offset 0 |
//! | Probe | `2p+2` | `2p+1` | descend `p` (depth-`j` vertex hears at offset `j`), ascend `p`: root hears the last `MwoeUp` at offset `2p` |
//! | Connect | `p+3` | `p+2` | `MwoePath` descends `<= p`, `ConnectReq` crosses (+1): delivered at offset `<= p+1`, the window's last round, where the mutual-MWOE tie is resolved |
//! | Kids | `p+2` | `p+1` | all vertices start at offset 0; ascend `<= p` |
//! | Exchange × X | `2p+3` | `2p+2` | `ColorDown` descends `<= p`, `ColorCross` (+1), `ColorUp` ascends `<= p`: root holds the parent color at offset `2p+1` and evaluates that round |
//! | Collect (×3) | `p+2` | `p+1` | pure convergecast, ascend `<= p` |
//! | Accept (×3) | `2p+4` | `2p+2` | `AcceptPath` descends `<= p`, `AcceptCross` (+1), `MatchedUp` ascends `<= p` |
//! | Status (×3) | `p+3` | `p+2` | `StatusDown` descends `<= p`, `StatusCross` (+1) |
//! | MergeGo | `p+2` / `2p+4` unc. | `p+2` / `2p+2` unc. | `MergePath` descends `<= p`, `MergeCross` (+1); uncontrolled adds the mutual `MatchedUp` ascent `<= p` |
//! | MergeFlood | `6p+6` / `n+2p+6` unc. | see below | flood depth `<= 5p+4`: initiator fragment `<= p`, cross (+1), partner entered anywhere so `<= 2p` internally, cross to a pendant (+1), pendant `<= 2p` |
//!
//! `X = steps_to_six(n) + 6` Cole–Vishkin iterations as before.
//!
//! # Adaptive phase ends (`ScheduleMode::Adaptive`)
//!
//! The merge flood is the one window whose worst case (`5p+4` hops, or
//! `Θ(n)` uncontrolled) is usually far from its actual depth — fragments
//! merge along short chains long before the radius saturates. Adaptive
//! mode therefore ends each phase one of two ways, chosen **per phase** by
//! a deterministic rule every vertex evaluates identically (it depends
//! only on the broadcast `(n, H)` and the phase index):
//!
//! * **Scheduled end** when the worst-case flood window is already cheaper
//!   than a tree sync (`flood_window <= 2H + 5`): sleep out the tight
//!   `5p+5` (matched) window exactly like Fixed mode, just with the
//!   minimal constant.
//! * **Sync end** otherwise (`flood_window > 2H + 5`, e.g. uncontrolled
//!   mode, or `p >> H`): the flood carries acks (`FloodAck` retraces every
//!   `NewFrag` edge), fragment roots that provably expect no flood
//!   broadcast `SyncNoFlood` down their old fragment tree, and every
//!   vertex that has settled reports `SyncUp` up the Stage A BFS tree once
//!   its BFS subtree has. When the BFS root has heard the whole tree it
//!   broadcasts `SyncStart { phase+1, t }` with `t = now + H + 1`, and the
//!   next phase's Announce window opens at the absolute round `t` at every
//!   vertex simultaneously. Cost: `O(actual flood depth + H)` instead of
//!   the worst-case window — the phase ends as soon as every fragment's
//!   merge flood has settled.
//!
//! The **uncontrolled** mode (ablation A1) skips coloring and matching
//! entirely and lets every fragment merge along its MWOE; its fixed flood
//! window must cover `Θ(n)` because without matching the fragment diameter
//! is unbounded — that blow-up is exactly what the ablation demonstrates
//! (and exactly where sync-ended phases help most).

use std::cmp::Reverse;

use crate::cv::steps_to_six;
use crate::util::{ceil_log2, div_ceil, isqrt};

/// Whether Controlled-GHS merges via maximal matching (the paper) or merges
/// every fragment along its MWOE (ablation A1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergeControl {
    /// Paper behaviour: 3-coloring + maximal matching bounds fragment
    /// diameter by `O(2^i)` per phase.
    #[default]
    Matched,
    /// Ablation: pure Borůvka merging; diameter may blow up to `Θ(n)`.
    Uncontrolled,
}

/// How Stage B rounds are scheduled (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// The seed behaviour: padded windows, every phase sleeps out its
    /// worst case, `k = max(sqrt(n/b), H)`.
    Fixed,
    /// Tightened windows, per-phase scheduled-vs-sync ends, and `k` from
    /// the round-cost model of [`choose_k_adaptive`] (usually well below
    /// `sqrt(n/b)` on low-diameter graphs; exactly `sqrt(n/b)` on
    /// high-diameter graphs and under uncontrolled merging). The default;
    /// `Fixed` stays a supported knob and remains in the conformance
    /// matrix.
    #[default]
    Adaptive,
}

/// The globally agreed parameters broadcast by the BFS root at the end of
/// Stage A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Number of vertices.
    pub n: u64,
    /// BFS tree height (`H <= D <= 2H`).
    pub h: u64,
    /// Base-forest parameter `k`.
    pub k: u64,
    /// Absolute round at which Stage B starts.
    pub t0: u64,
}

/// The paper's parameter choice (§3): `k = sqrt(n/b)` in the small-diameter
/// regime and `k = Θ(D)` in the large-diameter regime, implemented as
/// `max(sqrt(n/b), H)` with the BFS height `H` standing in for `D`
/// (`H <= D <= 2H`). Always at least 1.
pub fn choose_k(n: u64, h: u64, bandwidth: u32) -> u64 {
    sqrt_nb(n, bandwidth).max(h)
}

/// The `sqrt(n/b)` term of the paper's choice, at least 1.
pub(crate) fn sqrt_nb(n: u64, bandwidth: u32) -> u64 {
    isqrt(n / u64::from(bandwidth.max(1))).max(1)
}

/// The adaptive k ([`ScheduleMode::Adaptive`] with matched merging): the
/// `k` that minimises a fitted round-cost model of Stages B and D.
///
/// **High-diameter regime** (`H > sqrt(n/b)`, the paper's §3 split):
/// `k = sqrt(n/b)`. The paper inflates `k` to `Θ(H)` there so the Stage D
/// pipeline term `n/(kb)` stays below `D`, but once `k >= sqrt(n/b)` that
/// term is `<= sqrt(n/b) < H` anyway, while every extra Controlled-GHS
/// phase costs `Θ(2^i)` rounds. A smaller `k` does not pay either: on
/// every high-diameter graph measured, a `k` that saved rounds raised
/// messages and wire words (cliquepath 32x8, k 16 → 4: rounds -21%,
/// messages +6%, wire words +48%).
///
/// **Low-diameter regime** (`H <= sqrt(n/b)`): the two terms of the
/// paper's bound balance asymptotically at `sqrt(n/b)`, but their
/// constants are far apart — Stage B costs about 42 rounds per unit of
/// `k`, Stage D well under one round per base fragment. The candidates
/// are `k = 2^j` (`j >= 1`, `2^j < sqrt(n/b)`) plus `sqrt(n/b)` itself;
/// `k` reaches the protocol only through `ceil(log2 k)` phases. Each
/// costs
///
/// * Stage B: [`Schedule::end`] of the adaptive schedule for that `k`
///   (closed form; within 5% of the measured Stage B), plus
/// * Stage D: `c_H · H · ceil(log2 ceil(n/k)) + c_f · ceil(n/(k·b))`,
///   an `O(H)` tree traversal per Borůvka phase plus the pipelined
///   upcast of every base fragment's candidate,
///
/// with `c_H = 3/4` and `c_f = 5/8` (evaluated in eighths, integers
/// only). The argmin wins; on a tie the larger `k` (fewer base
/// fragments, less Stage D state).
///
/// The constants come from `k_override` sweeps (release, matched,
/// adaptive; Stage D rounds by `n/k`):
///
/// | graph | H | b | 8192 | 4096 | 2048 | 1152 | 1024 | 576 | 512 | 288 | 256 | 144 |
/// |---|---|---|---|---|---|---|---|---|---|---|---|---|
/// | random n=16384, 4 seeds | 7–8 | 1 | 4401–6048 | 1532–2261 | 617–935 | | 297–511 | | 229–329 | | | |
/// | random n=4096 | 6 | 1 | | | 1318 | | 439 | | 246 | | 138 | |
/// | random n=4096 | 6 | 4 | | | | | 146 | | 134 | | 127 | |
/// | random n=2304 | 5 | 1 | | | | 796 | | 248 | | 157 | | 85 |
/// | torus 48x48 | 48 | 1 | | | | 1806 | | 882 | | 474 | | 327 |
/// | snake 48x48 | 48 | 1 | | | | 871 | | 425 | | 217 | | 147 |
///
/// (random n=65536, H = 8: 16384 → 6892, 8192 → 3136, 4096 → 1341,
/// 2048 → 509.) Stage D grows faster than linearly in `n/k`, so the
/// least-squares line through these sweeps (`c_H ≈ 0.87`, `c_f ≈ 0.47`) is
/// not what ranks candidates best. The constants were instead chosen on a
/// grid (steps of 1/8 and 1/16) by how close the argmin lands to the best
/// swept `k` over the same runs; 3/4 and 5/8 sit on the broad plateau
/// where every row is within 19% of its best swept `k`. Examples: random
/// n=16384 picks 16 (1259 rounds, against 5735 at `sqrt(n) = 128` and
/// 1157 at the best `k = 8`); torus 48x48 picks 8 and random n=65536
/// picks 32, each the best swept `k`.
pub fn choose_k_adaptive(n: u64, h: u64, bandwidth: u32) -> u64 {
    let top = sqrt_nb(n, bandwidth);
    if h > top {
        return top;
    }
    let b = u64::from(bandwidth.max(1));
    let cost = |k: u64| {
        let params = Params { n, h, k, t0: 0 };
        let stage_b = Schedule::new(&params, MergeControl::Matched, ScheduleMode::Adaptive).end();
        let phases = ceil_log2(div_ceil(n, k).max(1));
        u128::from(8 * stage_b) + u128::from(6 * h * phases) + 5 * u128::from(div_ceil(n, k * b))
    };
    (1..)
        .map(|j| 1u64 << j)
        .take_while(|&k| k < top)
        .chain([top])
        .min_by_key(|&k| (cost(k), Reverse(k)))
        .unwrap_or(top)
}

/// One scheduled window of a Controlled-GHS phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// Fragment-id refresh (1 round).
    Announce,
    /// Depth-budgeted probe + MWOE convergecast.
    Probe,
    /// Participate flood, argmin downcast, cross-edge connect.
    Connect,
    /// Foreign-children existence convergecast.
    Kids,
    /// One Cole–Vishkin exchange; see [`ExchangeKind`].
    Exchange(u32),
    /// Matching: collect unmatched children (for color class `c`).
    MatchCollect(u8),
    /// Matching: accept one child (for color class `c`).
    MatchAccept(u8),
    /// Matching: propagate new matched statuses (for color class `c`).
    MatchStatus(u8),
    /// Unmatched fragments fire their MWOE.
    MergeGo,
    /// New-fragment flood: ids + re-orientation.
    MergeFlood,
}

/// Semantic classification of an exchange index within the CV reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Bit-ladder step ([`crate::cv::cv_step`]).
    Ladder,
    /// Shift-down preceding the recoloring of `class`.
    ShiftDown(u64),
    /// Recoloring of color `class` into `{0, 1, 2}`.
    Recolor(u64),
}

/// Where a round falls inside the Stage B schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Phase index `i` (participation radius `2^i`).
    pub phase: u32,
    /// The window within the phase.
    pub window: Window,
    /// Offset of this round within the window (0-based).
    pub offset: u64,
    /// Whether this is the window's final round (safe evaluation point).
    pub last: bool,
}

/// The closed-form window layout of one phase: a head of single windows
/// (Announce, Probe, Connect, and — matched only — Kids), `ex` equal
/// Cole–Vishkin exchanges, `tri` identical matching triples (Collect,
/// Accept, Status), then MergeGo and the open-ended MergeFlood. Built on
/// the fly from a handful of integers, so a lookup allocates nothing and
/// no per-vertex table exists.
#[derive(Clone, Copy, Debug)]
struct Layout {
    /// Participation radius `2^i`.
    p: u64,
    /// Per-window padding beyond the provable minimum: 0 in adaptive
    /// mode, the seed's slack in fixed mode (see the module table).
    pad: u64,
    /// Head windows: 4 matched (with Kids), 3 uncontrolled.
    head: usize,
    /// Exchange windows: `X` matched, 0 uncontrolled.
    ex: usize,
    /// Matching triples: 3 matched, 0 uncontrolled.
    tri: usize,
    /// MergeGo length.
    go: u64,
    /// Nominal MergeFlood length.
    flood: u64,
}

impl Layout {
    fn new(phase: u32, exchanges: u32, merge: MergeControl, mode: ScheduleMode, n: u64) -> Self {
        let p = 1u64 << phase;
        let pad = u64::from(mode == ScheduleMode::Fixed);
        let flood = match (merge, mode) {
            (MergeControl::Matched, ScheduleMode::Fixed) => 6 * p + 6,
            (MergeControl::Matched, ScheduleMode::Adaptive) => 5 * p + 5,
            (MergeControl::Uncontrolled, _) => n + 2 * p + 6,
        };
        match merge {
            MergeControl::Matched => {
                Self { p, pad, head: 4, ex: exchanges as usize, tri: 3, go: p + 2, flood }
            }
            MergeControl::Uncontrolled => {
                Self { p, pad, head: 3, ex: 0, tri: 0, go: 2 * p + 2 + 2 * pad, flood }
            }
        }
    }

    /// Announce, Probe, Connect, Kids.
    fn head_len(&self, i: usize) -> u64 {
        let (p, pad) = (self.p, self.pad);
        [1, 2 * p + 1 + pad, p + 2 + pad, p + 1 + pad][i]
    }

    fn exchange_len(&self) -> u64 {
        2 * self.p + 2 + self.pad
    }

    /// Collect, Accept, Status.
    fn triple_len(&self, j: usize) -> u64 {
        let (p, pad) = (self.p, self.pad);
        [p + 1 + pad, 2 * p + 2 + 2 * pad, p + 2 + pad][j]
    }

    fn triple(&self) -> u64 {
        (0..3).map(|j| self.triple_len(j)).sum()
    }

    fn ex_start(&self) -> u64 {
        (0..self.head).map(|i| self.head_len(i)).sum()
    }

    fn tri_start(&self) -> u64 {
        self.ex_start() + self.ex as u64 * self.exchange_len()
    }

    fn go_start(&self) -> u64 {
        self.tri_start() + self.tri as u64 * self.triple()
    }

    /// Total (nominal) phase length.
    fn len(&self) -> u64 {
        self.go_start() + self.go + self.flood
    }

    fn count(&self) -> usize {
        self.head + self.ex + 3 * self.tri + 2
    }

    /// `(window, start offset, length)` of window `i < count()`.
    fn at(&self, i: usize) -> (Window, u64, u64) {
        const HEAD: [Window; 4] = [Window::Announce, Window::Probe, Window::Connect, Window::Kids];
        if i < self.head {
            let start = (0..i).map(|h| self.head_len(h)).sum();
            return (HEAD[i], start, self.head_len(i));
        }
        let x = i - self.head;
        if x < self.ex {
            let len = self.exchange_len();
            return (Window::Exchange(x as u32), self.ex_start() + x as u64 * len, len);
        }
        let m = x - self.ex;
        if m < 3 * self.tri {
            let (c, j) = (m / 3, m % 3);
            let start = self.tri_start()
                + c as u64 * self.triple()
                + (0..j).map(|t| self.triple_len(t)).sum::<u64>();
            let c = c as u8;
            let w = [Window::MatchCollect(c), Window::MatchAccept(c), Window::MatchStatus(c)][j];
            return (w, start, self.triple_len(j));
        }
        if m == 3 * self.tri {
            (Window::MergeGo, self.go_start(), self.go)
        } else {
            (Window::MergeFlood, self.go_start() + self.go, self.flood)
        }
    }

    /// Index of the window holding offset `rel`; offsets past the layout
    /// stay in the (open-ended) MergeFlood window.
    fn index_of(&self, rel: u64) -> usize {
        let mut ex_start = 0;
        for i in 0..self.head {
            ex_start += self.head_len(i);
            if rel < ex_start {
                return i;
            }
        }
        let tri_start = self.tri_start();
        if rel < tri_start {
            return self.head + ((rel - ex_start) / self.exchange_len()) as usize;
        }
        let go_start = self.go_start();
        if rel < go_start {
            let (c, mut r) = ((rel - tri_start) / self.triple(), (rel - tri_start) % self.triple());
            let mut j = 0;
            while r >= self.triple_len(j) {
                r -= self.triple_len(j);
                j += 1;
            }
            return self.head + self.ex + 3 * c as usize + j;
        }
        if rel < go_start + self.go {
            self.count() - 2
        } else {
            self.count() - 1
        }
    }
}

/// The fully determined Stage B schedule, identical at every vertex.
///
/// The schedule is a pure function of the broadcast parameters: a few
/// integers, with every window position computed in closed form (no
/// table), so each vertex's copy is a handful of words. Phases are
/// addressed relative to their start round: [`Schedule::locate_rel`]
/// maps an offset to its slot and [`Schedule::next_edge`] walks the
/// remaining window edges. In [`ScheduleMode::Fixed`] phase starts are
/// nominal and [`Schedule::locate`] also maps absolute rounds. In
/// [`ScheduleMode::Adaptive`] phases that end by sync have no
/// predetermined length; the node tracks the current phase's start round,
/// with [`Schedule::sync_phase`] deciding per phase which ending applies.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    t0: u64,
    num_phases: u32,
    exchanges: u32,
    merge: MergeControl,
    mode: ScheduleMode,
    n: u64,
    h: u64,
}

impl Schedule {
    /// Builds the schedule from the broadcast parameters.
    pub fn new(params: &Params, merge: MergeControl, mode: ScheduleMode) -> Self {
        Self {
            t0: params.t0,
            num_phases: if params.k <= 1 { 0 } else { ceil_log2(params.k) as u32 },
            exchanges: steps_to_six(params.n) + 6,
            merge,
            mode,
            n: params.n,
            h: params.h,
        }
    }

    fn layout(&self, phase: u32) -> Layout {
        Layout::new(phase, self.exchanges, self.merge, self.mode, self.n)
    }

    /// Number of Controlled-GHS phases (`ceil(log2 k)`).
    pub fn num_phases(&self) -> u32 {
        self.num_phases
    }

    /// Number of CV exchange windows per phase.
    pub fn exchanges(&self) -> u32 {
        self.exchanges
    }

    /// First round of Stage B.
    pub fn start(&self) -> u64 {
        self.t0
    }

    /// First round *after* Stage B (Stage C entry point). Nominal in
    /// adaptive mode (sync-ended phases end earlier or later at run time).
    pub fn end(&self) -> u64 {
        self.t0 + (0..self.num_phases).map(|i| self.phase_len(i)).sum::<u64>()
    }

    /// The participation radius `2^i` of phase `i`.
    pub fn radius(&self, phase: u32) -> u64 {
        1u64 << phase
    }

    /// The BFS-tree height the schedule was built with.
    pub fn height(&self) -> u64 {
        self.h
    }

    /// Whether phase `i` ends by the BFS-tree sync protocol instead of a
    /// scheduled flood window (adaptive mode only; see the module docs).
    /// The rule is a pure function of broadcast data, so every vertex
    /// agrees on it without communication.
    pub fn sync_phase(&self, phase: u32) -> bool {
        self.mode == ScheduleMode::Adaptive && self.layout(phase).flood > 2 * self.h + 5
    }

    /// Total length of phase `i` in rounds (worst case; the *actual*
    /// length of a sync-ended adaptive phase is decided at run time).
    pub fn phase_len(&self, phase: u32) -> u64 {
        self.layout(phase).len()
    }

    /// Number of windows in every phase: `X + 15` matched (Announce,
    /// Probe, Connect, Kids, `X` exchanges, three matching triples,
    /// MergeGo, MergeFlood), 5 uncontrolled.
    pub fn window_count(&self) -> usize {
        self.layout(0).count()
    }

    /// Window `i < window_count()` of phase `phase` as `(window, start
    /// offset within the phase, length)`, in closed form.
    pub fn window_at(&self, phase: u32, i: usize) -> (Window, u64, u64) {
        debug_assert!(i < self.window_count(), "window index {i} out of range");
        self.layout(phase).at(i)
    }

    /// Classifies exchange window `x` as ladder / shift-down / recolor.
    pub fn exchange_kind(&self, x: u32) -> ExchangeKind {
        let ladder = self.exchanges - 6;
        if x < ladder {
            ExchangeKind::Ladder
        } else {
            let r = x - ladder;
            let class = 3 + u64::from(r / 2);
            if r.is_multiple_of(2) {
                ExchangeKind::ShiftDown(class)
            } else {
                ExchangeKind::Recolor(class)
            }
        }
    }

    /// Locates an absolute round within the Stage B schedule. `None` before
    /// `t0` or at/after [`Schedule::end`]. Only meaningful in
    /// [`ScheduleMode::Fixed`] (adaptive phase starts move at run time; use
    /// [`Schedule::locate_rel`]).
    pub fn locate(&self, round: u64) -> Option<Slot> {
        let mut rel = round.checked_sub(self.t0)?;
        for phase in 0..self.num_phases {
            let len = self.phase_len(phase);
            if rel < len {
                return Some(self.locate_rel(phase, rel));
            }
            rel -= len;
        }
        None
    }

    /// Locates round `rel` (0-based) within phase `phase`, independent of
    /// absolute time, in O(1). Offsets beyond the nominal layout stay in
    /// the (open-ended) merge-flood window — that is how sync-ended
    /// adaptive phases wait for the `SyncStart` broadcast.
    pub fn locate_rel(&self, phase: u32, rel: u64) -> Slot {
        let layout = self.layout(phase);
        let (window, start, len) = layout.at(layout.index_of(rel));
        let offset = rel - start;
        Slot { phase, window, offset, last: offset + 1 == len }
    }

    /// The first window edge — a window's first round or its final round —
    /// at a relative offset `> rel` within phase `phase` whose slot
    /// satisfies `duty`, or `None` when no such edge remains in the phase.
    /// Edges are visited in order, each once (a one-round window is a
    /// single edge with `offset == 0 && last`).
    ///
    /// [`crate::node::ElkinNode`] acts spontaneously only at window edges,
    /// so walking them with its duty predicate yields its exact Stage B
    /// wake round; `|_| true` yields the plain next window edge.
    pub fn next_edge(
        &self,
        phase: u32,
        rel: u64,
        mut duty: impl FnMut(Slot) -> bool,
    ) -> Option<u64> {
        let layout = self.layout(phase);
        let from = layout.index_of(rel.saturating_add(1));
        for i in from..layout.count() {
            let (window, start, len) = layout.at(i);
            let last = start + len - 1;
            if start > rel && duty(Slot { phase, window, offset: 0, last: len == 1 }) {
                return Some(start);
            }
            if last > start
                && last > rel
                && duty(Slot { phase, window, offset: len - 1, last: true })
            {
                return Some(last);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u64, k: u64) -> Params {
        Params { n, h: 3, k, t0: 100 }
    }

    fn fixed(n: u64, k: u64) -> Schedule {
        Schedule::new(&params(n, k), MergeControl::Matched, ScheduleMode::Fixed)
    }

    #[test]
    fn choose_k_regimes() {
        // Small diameter: k = sqrt(n).
        assert_eq!(choose_k(1024, 10, 1), 32);
        // Large diameter: k = H.
        assert_eq!(choose_k(1024, 100, 1), 100);
        // Bandwidth shrinks the sqrt term: sqrt(1024/4) = 16.
        assert_eq!(choose_k(1024, 10, 4), 16);
        // Never below 1.
        assert_eq!(choose_k(1, 0, 1), 1);
    }

    #[test]
    fn choose_k_adaptive_shrinks_on_high_diameter() {
        // H > sqrt(n/b): sqrt(n/b), not H (the paper's choice).
        assert_eq!(choose_k_adaptive(1024, 100, 1), 32);
        assert_eq!(choose_k(1024, 100, 1), 100);
        // cliquepath_9216 (H = 2303) and cliquepath 288x8 (H = 575).
        assert_eq!(choose_k_adaptive(9216, 2303, 1), 96);
        assert_eq!(choose_k_adaptive(2304, 575, 1), 48);
        // Bandwidth shrinks the sqrt term: sqrt(1024/4) = 16 < 20.
        assert_eq!(choose_k_adaptive(1024, 20, 4), 16);
        assert_eq!(choose_k_adaptive(1, 0, 1), 1);
    }

    #[test]
    fn choose_k_adaptive_model_shrinks_low_diameter() {
        // random n=16384 (H = 7): the measured best is 8, then 16.
        assert!([8, 16].contains(&choose_k_adaptive(16384, 7, 1)));
        // torus / snake 48x48 (H = 48 <= 48).
        assert!(choose_k_adaptive(2304, 48, 1) <= 16);
        // Every pick is a power of two below sqrt(n/b), or sqrt(n/b).
        for (n, h, b) in [(16384, 7, 1), (2304, 5, 1), (65536, 8, 1), (4096, 6, 8), (3, 1, 1)] {
            let k = choose_k_adaptive(n, h, b);
            let top = sqrt_nb(n, b);
            assert!(k == top || (k.is_power_of_two() && 2 <= k && k < top), "k = {k}");
        }
    }

    #[test]
    fn phases_count() {
        assert_eq!(fixed(100, 1).num_phases(), 0);
        assert_eq!(fixed(100, 2).num_phases(), 1);
        assert_eq!(fixed(100, 8).num_phases(), 3);
        assert_eq!(fixed(100, 9).num_phases(), 4);
    }

    #[test]
    fn locate_covers_every_round_exactly_once() {
        let s = fixed(64, 8);
        assert!(s.locate(99).is_none());
        assert!(s.locate(s.end()).is_none());
        let mut prev: Option<Slot> = None;
        for r in s.start()..s.end() {
            let slot = s.locate(r).expect("round inside stage B must be scheduled");
            if let Some(p) = prev {
                // Progress is monotone: same window with +1 offset, or a new window.
                if p.window == slot.window && p.phase == slot.phase {
                    assert_eq!(slot.offset, p.offset + 1);
                } else {
                    assert_eq!(slot.offset, 0);
                    assert!(p.last, "window changed before its final round");
                }
            } else {
                assert_eq!(
                    slot,
                    Slot { phase: 0, window: Window::Announce, offset: 0, last: true }
                );
            }
            prev = Some(slot);
        }
        let last = prev.unwrap();
        assert_eq!(last.phase, s.num_phases() - 1);
        assert_eq!(last.window, Window::MergeFlood);
        assert!(last.last);
    }

    #[test]
    fn adaptive_windows_are_tighter_phase_by_phase() {
        let p = params(1 << 16, 64);
        let f = Schedule::new(&p, MergeControl::Matched, ScheduleMode::Fixed);
        let a = Schedule::new(&p, MergeControl::Matched, ScheduleMode::Adaptive);
        assert_eq!(f.num_phases(), a.num_phases());
        for i in 0..f.num_phases() {
            assert!(
                a.phase_len(i) < f.phase_len(i),
                "adaptive phase {i} ({}) not tighter than fixed ({})",
                a.phase_len(i),
                f.phase_len(i)
            );
        }
    }

    #[test]
    fn locate_rel_is_total_and_open_ended() {
        let p = params(64, 8);
        let s = Schedule::new(&p, MergeControl::Matched, ScheduleMode::Adaptive);
        for phase in 0..s.num_phases() {
            let len = s.phase_len(phase);
            let mut prev: Option<Slot> = None;
            for rel in 0..len {
                let slot = s.locate_rel(phase, rel);
                assert_eq!(slot.phase, phase);
                if let Some(pv) = prev {
                    if pv.window == slot.window {
                        assert_eq!(slot.offset, pv.offset + 1);
                    } else {
                        assert!(pv.last);
                        assert_eq!(slot.offset, 0);
                    }
                }
                prev = Some(slot);
            }
            // Beyond the nominal layout: still MergeFlood, never `last`.
            let over = s.locate_rel(phase, len + 17);
            assert_eq!(over.window, Window::MergeFlood);
            assert!(!over.last);
        }
    }

    #[test]
    fn sync_rule_is_deterministic_in_broadcast_data() {
        // h = 3: matched floods are 5p+5; sync once 5p+5 > 2*3+5 = 11,
        // i.e. from p = 2 (phase 1) on.
        let s = Schedule::new(&params(64, 16), MergeControl::Matched, ScheduleMode::Adaptive);
        assert!(!s.sync_phase(0));
        assert!(s.sync_phase(1));
        assert!(s.sync_phase(3));
        // Fixed mode never syncs.
        assert!(!fixed(64, 16).sync_phase(3));
        // Uncontrolled floods are Θ(n): every adaptive phase syncs.
        let u = Schedule::new(&params(64, 16), MergeControl::Uncontrolled, ScheduleMode::Adaptive);
        assert!(u.sync_phase(0));
        // A tall BFS tree pushes the rule back toward scheduled ends.
        let tall = Params { n: 64, h: 1000, k: 16, t0: 0 };
        let t = Schedule::new(&tall, MergeControl::Matched, ScheduleMode::Adaptive);
        assert!(!t.sync_phase(3));
    }

    /// The phase layout straight from the module table, as a plain list:
    /// the reference the closed-form lookups are checked against.
    fn naive_layout(s: &Schedule, phase: u32) -> Vec<(Window, u64)> {
        let p = s.radius(phase);
        let pad = u64::from(s.mode == ScheduleMode::Fixed);
        let flood = match (s.merge, s.mode) {
            (MergeControl::Matched, ScheduleMode::Fixed) => 6 * p + 6,
            (MergeControl::Matched, ScheduleMode::Adaptive) => 5 * p + 5,
            (MergeControl::Uncontrolled, _) => s.n + 2 * p + 6,
        };
        let mut v = vec![(Window::Announce, 1), (Window::Probe, 2 * p + 1 + pad)];
        v.push((Window::Connect, p + 2 + pad));
        match s.merge {
            MergeControl::Matched => {
                v.push((Window::Kids, p + 1 + pad));
                for x in 0..s.exchanges() {
                    v.push((Window::Exchange(x), 2 * p + 2 + pad));
                }
                for c in 0..3u8 {
                    v.push((Window::MatchCollect(c), p + 1 + pad));
                    v.push((Window::MatchAccept(c), 2 * p + 2 + 2 * pad));
                    v.push((Window::MatchStatus(c), p + 2 + pad));
                }
                v.push((Window::MergeGo, p + 2));
            }
            MergeControl::Uncontrolled => v.push((Window::MergeGo, 2 * p + 2 + 2 * pad)),
        }
        v.push((Window::MergeFlood, flood));
        v
    }

    /// Every window edge of a phase as `(offset, slot)`, in order.
    fn naive_edges(s: &Schedule, phase: u32) -> Vec<(u64, Slot)> {
        let mut edges = Vec::new();
        let mut start = 0;
        for (window, len) in naive_layout(s, phase) {
            edges.push((start, Slot { phase, window, offset: 0, last: len == 1 }));
            if len > 1 {
                edges.push((start + len - 1, Slot { phase, window, offset: len - 1, last: true }));
            }
            start += len;
        }
        edges
    }

    #[test]
    fn window_at_and_locate_rel_match_naive_layout() {
        let modes = [ScheduleMode::Fixed, ScheduleMode::Adaptive];
        let merges = [MergeControl::Matched, MergeControl::Uncontrolled];
        for n in [4, 64, 1 << 16, 1 << 40] {
            for (mode, merge) in modes.iter().flat_map(|&m| merges.map(|g| (m, g))) {
                let s = Schedule::new(&params(n, 64), merge, mode);
                let tag = format!("n={n} {merge:?}/{mode:?}");
                for phase in 0..s.num_phases() {
                    let naive = naive_layout(&s, phase);
                    assert_eq!(s.window_count(), naive.len(), "{tag}: window count");
                    let mut start = 0;
                    for (i, &(window, len)) in naive.iter().enumerate() {
                        assert_eq!(
                            s.window_at(phase, i),
                            (window, start, len),
                            "{tag}: window {i}"
                        );
                        // Every offset of ordinary windows; the edges and
                        // the middle of the Θ(n) uncontrolled floods.
                        let offsets: Vec<u64> = if len <= 4096 {
                            (0..len).collect()
                        } else {
                            vec![0, 1, len / 2, len - 2, len - 1]
                        };
                        for off in offsets {
                            let last = off + 1 == len;
                            assert_eq!(
                                s.locate_rel(phase, start + off),
                                Slot { phase, window, offset: off, last },
                                "{tag}: phase {phase} offset {}",
                                start + off
                            );
                        }
                        start += len;
                    }
                    assert_eq!(s.phase_len(phase), start, "{tag}: phase {phase} length");
                    let over = s.locate_rel(phase, start + 17);
                    assert_eq!(over.window, Window::MergeFlood, "{tag}: open-ended flood");
                    assert!(!over.last);
                }
            }
        }
    }

    #[test]
    fn next_edge_matches_naive_scan() {
        for (merge, mode) in [
            (MergeControl::Matched, ScheduleMode::Fixed),
            (MergeControl::Matched, ScheduleMode::Adaptive),
            (MergeControl::Uncontrolled, ScheduleMode::Fixed),
        ] {
            let s = Schedule::new(&params(64, 8), merge, mode);
            // A round is a wake boundary iff it opens or closes a window;
            // the stage-end transition round (end()) is one as well.
            let is_boundary = |r: u64| {
                s.locate(r).map(|slot| slot.offset == 0 || slot.last).unwrap_or(r == s.end())
            };
            let mut phase_start = s.start();
            for phase in 0..s.num_phases() {
                let len = s.phase_len(phase);
                for r in phase_start..phase_start + len {
                    // The node's walk over nominal phase starts with a duty
                    // that holds everywhere: the next edge, else the phase end.
                    let nb = s
                        .next_edge(phase, r - phase_start, |_| true)
                        .map_or(phase_start + len, |e| phase_start + e);
                    assert!(
                        nb > r && is_boundary(nb),
                        "{merge:?}/{mode:?}: bad boundary {nb} after {r}"
                    );
                    for mid in (r + 1)..nb {
                        assert!(
                            !is_boundary(mid),
                            "{merge:?}/{mode:?}: missed boundary {mid} after {r}"
                        );
                    }
                }
                phase_start += len;
            }
            assert_eq!(phase_start, s.end());
        }
    }

    #[test]
    fn next_edge_walks_window_edges() {
        let s = Schedule::new(&params(64, 8), MergeControl::Matched, ScheduleMode::Adaptive);
        for phase in 0..s.num_phases() {
            let len = s.phase_len(phase);
            let edges = naive_edges(&s, phase);
            for rel in 0..len {
                // The duty sees every remaining edge exactly once, in order.
                let mut seen = Vec::new();
                let none = s.next_edge(phase, rel, |slot| {
                    seen.push(slot);
                    false
                });
                assert_eq!(none, None);
                let want: Vec<Slot> =
                    edges.iter().filter(|&&(at, _)| at > rel).map(|&(_, slot)| slot).collect();
                assert_eq!(seen, want, "phase {phase} rel {rel}: edges walked");
                // An always-true duty stops at the first of them.
                let first = edges.iter().find(|&&(at, _)| at > rel).map(|&(at, _)| at);
                assert_eq!(s.next_edge(phase, rel, |_| true), first);
                // A selective duty skips to the first edge it accepts.
                let go = |slot: Slot| slot.window == Window::MergeGo && slot.offset == 0;
                let want_go = edges.iter().find(|&&(at, sl)| at > rel && go(sl)).map(|e| e.0);
                assert_eq!(s.next_edge(phase, rel, go), want_go);
            }
            // Past the nominal layout no edge remains.
            assert_eq!(s.next_edge(phase, len - 1, |_| true), None);
            assert_eq!(s.next_edge(phase, len + 9, |_| true), None);
        }
    }

    #[test]
    fn exchange_kinds_partition() {
        let s = fixed(1 << 20, 4);
        let ladder = s.exchanges() - 6;
        assert!(matches!(s.exchange_kind(0), ExchangeKind::Ladder));
        assert_eq!(s.exchange_kind(ladder), ExchangeKind::ShiftDown(3));
        assert_eq!(s.exchange_kind(ladder + 1), ExchangeKind::Recolor(3));
        assert_eq!(s.exchange_kind(ladder + 4), ExchangeKind::ShiftDown(5));
        assert_eq!(s.exchange_kind(ladder + 5), ExchangeKind::Recolor(5));
    }

    #[test]
    fn uncontrolled_layout_has_no_matching() {
        let s = Schedule::new(&params(64, 8), MergeControl::Uncontrolled, ScheduleMode::Fixed);
        for r in s.start()..s.end() {
            let slot = s.locate(r).unwrap();
            assert!(
                !matches!(
                    slot.window,
                    Window::Kids
                        | Window::Exchange(_)
                        | Window::MatchCollect(_)
                        | Window::MatchAccept(_)
                        | Window::MatchStatus(_)
                ),
                "uncontrolled schedule contains {:?}",
                slot.window
            );
        }
        // The flood window is Θ(n).
        assert!(s.phase_len(0) > 64);
    }

    #[test]
    fn phase_budgets_grow_geometrically() {
        for mode in [ScheduleMode::Fixed, ScheduleMode::Adaptive] {
            let s = Schedule::new(&params(1 << 16, 64), MergeControl::Matched, mode);
            for i in 1..s.num_phases() {
                let a = s.phase_len(i - 1);
                let b = s.phase_len(i);
                assert!(b > a && b < 3 * a, "phase budgets should roughly double ({mode:?})");
            }
            // Total Stage B length is O(k log* n): generous constant check.
            let total = s.end() - s.start();
            let bound = 200 * 64 + 500;
            assert!(total < bound, "stage B budget {total} exceeds {bound} ({mode:?})");
        }
    }
}
