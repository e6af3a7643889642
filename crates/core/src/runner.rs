//! High-level entry points: run the algorithm on a graph, collect the MST
//! and the round/message statistics.

use std::error::Error;
use std::fmt;

use congest_sim::{Network, RunConfig, RunStats, SimError, Topology};
use dmst_graphs::{EdgeId, WeightedGraph};

use crate::config::ElkinConfig;
use crate::node::ElkinNode;

/// Errors from [`run_mst`] / [`run_forest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The input graph is not connected (the algorithm, like the paper,
    /// assumes a connected network).
    Disconnected,
    /// The configured root vertex does not exist.
    InvalidRoot {
        /// The offending root id.
        root: usize,
        /// Number of vertices.
        n: usize,
    },
    /// The simulator rejected the execution (bandwidth violation, empty
    /// message or round cap — each indicates a protocol bug, not an input
    /// problem).
    Sim(SimError),
    /// The per-vertex outputs were inconsistent (e.g. an edge marked at one
    /// endpoint only). Indicates an algorithm bug.
    BadOutput(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Disconnected => write!(f, "input graph is not connected"),
            RunError::InvalidRoot { root, n } => {
                write!(f, "root {root} out of range for {n} vertices")
            }
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::BadOutput(msg) => write!(f, "inconsistent output: {msg}"),
        }
    }
}

impl Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Where the rounds of a run went, stage by stage. Attribution is exact:
/// the simulator charges every executed round to the earliest stage any
/// vertex is still in ([`RunStats::rounds_by_stage`] via
/// `NodeProgram::stage_tag`), so boundaries reflect the *last* vertex to
/// cross each milestone and the four counts partition
/// [`RunStats::rounds`]. Stages C and D overlap per vertex under the
/// fused event-driven protocol (a vertex starts Borůvka phase 0 the
/// moment it holds its initial coarse id, while registration may still be
/// draining elsewhere); the laggard rule above keeps the partition exact
/// regardless — a round is "c" until the last vertex can announce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageProfile {
    /// Rounds spent in Stage A (BFS + sizes + parameter broadcast).
    pub stage_a: u64,
    /// Rounds spent in Stage B (Controlled-GHS).
    pub stage_b: u64,
    /// Rounds spent in Stage C (registration): the height of the deepest
    /// base-fragment tree, which `InitCoarse` floods down.
    pub stage_c: u64,
    /// Rounds spent in Stage D (Borůvka phases) until global quiescence.
    pub stage_d: u64,
}

/// Result of a full distributed MST computation.
#[derive(Clone, Debug)]
pub struct MstRun {
    /// MST edge ids, sorted ascending (canonical form, comparable to
    /// `dmst_graphs::mst::MstResult::edges`).
    pub edges: Vec<EdgeId>,
    /// Total raw weight of the tree.
    pub total_weight: u128,
    /// Rounds, messages, words, per-tag breakdown.
    pub stats: RunStats,
    /// The base-forest parameter the run settled on.
    pub k: u64,
    /// BFS tree height measured by Stage A (`H <= D <= 2H`).
    pub bfs_height: u64,
    /// Per-stage round breakdown.
    pub profile: StageProfile,
}

/// Result of a standalone Controlled-GHS run (Theorem 4.3).
#[derive(Clone, Debug)]
pub struct ForestRun {
    /// Fragment id of every vertex.
    pub fragment_of: Vec<u64>,
    /// Fragment-tree parent (as a *neighbor vertex id*) of every vertex;
    /// `None` at fragment roots.
    pub parent_of: Vec<Option<usize>>,
    /// BFS-tree parent (vertex id) of every vertex; `None` at the BFS root.
    /// Lets follow-up protocols (e.g. the GKP Pipeline baseline) reuse the
    /// auxiliary tree Stage A built.
    pub bfs_parent_of: Vec<Option<usize>>,
    /// Rounds, messages, words, per-tag breakdown.
    pub stats: RunStats,
    /// The parameter `k` used.
    pub k: u64,
    /// BFS tree height measured by Stage A.
    pub bfs_height: u64,
}

fn network_for(g: &WeightedGraph, cfg: &ElkinConfig) -> Result<Network<ElkinNode>, RunError> {
    if cfg.root >= g.num_nodes().max(1) {
        return Err(RunError::InvalidRoot { root: cfg.root, n: g.num_nodes() });
    }
    if !g.is_connected() {
        return Err(RunError::Disconnected);
    }
    let topo = Topology::new(g.num_nodes(), g.edges())
        .map_err(|e| RunError::BadOutput(format!("graph/topology mismatch: {e}")))?;
    let cfg = *cfg;
    Ok(Network::new(topo, move |info| ElkinNode::new(info, cfg)))
}

fn sim_config(g: &WeightedGraph, cfg: &ElkinConfig) -> RunConfig {
    RunConfig {
        bandwidth: cfg.bandwidth,
        // Generous but finite: Stage B budgets are O(k log* n) <= O(n), each
        // Boruvka phase is O(n), and there are O(log n) of them.
        max_rounds: 1_000_000 + 600 * g.num_nodes() as u64,
        shards: cfg.shards,
        ..RunConfig::default()
    }
}

/// Runs Elkin's deterministic distributed MST algorithm on `g` and returns
/// the canonical MST together with the measured complexity.
///
/// # Errors
///
/// See [`RunError`]; notably the graph must be connected.
///
/// ```
/// use dmst_core::{run_mst, ElkinConfig};
/// use dmst_graphs::{generators, mst};
///
/// let g = generators::random_connected(40, 80, &mut generators::WeightRng::new(5));
/// let run = run_mst(&g, &ElkinConfig::default())?;
/// assert_eq!(run.edges, mst::kruskal(&g).edges);
/// # Ok::<(), dmst_core::RunError>(())
/// ```
pub fn run_mst(g: &WeightedGraph, cfg: &ElkinConfig) -> Result<MstRun, RunError> {
    let mut cfg = *cfg;
    cfg.stop_after_forest = false;
    let mut net = network_for(g, &cfg)?;
    let stats = net.run(&sim_config(g, &cfg))?;

    // Assemble the edge set and insist on symmetric marking.
    let topo = net.topology();
    let mut marks: Vec<u8> = vec![0; g.num_edges()];
    for (v, node) in net.nodes().iter().enumerate() {
        for p in node.mst_ports() {
            marks[topo.ports(v)[p].edge] += 1;
        }
    }
    let mut edges = Vec::new();
    for (e, &m) in marks.iter().enumerate() {
        match m {
            0 => {}
            2 => edges.push(e),
            _ => {
                return Err(RunError::BadOutput(format!(
                    "edge {e} marked at {m} endpoint(s), expected 0 or 2"
                )))
            }
        }
    }
    if g.num_nodes() > 0 && edges.len() != g.num_nodes() - 1 {
        return Err(RunError::BadOutput(format!(
            "{} MST edges for {} vertices",
            edges.len(),
            g.num_nodes()
        )));
    }

    let sample = &net.nodes()[cfg.root];
    let k = sample.chosen_k().unwrap_or(1);
    let bfs_height = net.nodes().iter().map(|nd| nd.bfs_depth()).max().unwrap_or(0);
    let total_weight = g.total_weight(edges.iter().copied());

    // Per-round stage attribution from the simulator: exact by
    // construction (every ElkinNode reports a tag every round, so the four
    // counts partition stats.rounds).
    let profile = StageProfile {
        stage_a: stats.rounds_in_stage("a"),
        stage_b: stats.rounds_in_stage("b"),
        stage_c: stats.rounds_in_stage("c"),
        stage_d: stats.rounds_in_stage("d"),
    };
    debug_assert_eq!(
        profile.stage_a + profile.stage_b + profile.stage_c + profile.stage_d,
        stats.rounds,
        "stage attribution must partition the run"
    );
    Ok(MstRun { edges, total_weight, stats, k, bfs_height, profile })
}

/// Runs only Stages A+B (BFS + Controlled-GHS) and returns the
/// `(O(n/k), O(k))` base MST forest — the standalone object of the paper's
/// Theorem 4.3.
///
/// # Errors
///
/// See [`RunError`].
pub fn run_forest(g: &WeightedGraph, cfg: &ElkinConfig) -> Result<ForestRun, RunError> {
    let mut cfg = *cfg;
    cfg.stop_after_forest = true;
    let mut net = network_for(g, &cfg)?;
    let stats = net.run(&sim_config(g, &cfg))?;

    let topo = net.topology();
    let fragment_of: Vec<u64> = net.nodes().iter().map(ElkinNode::base_fragment).collect();
    let parent_of: Vec<Option<usize>> = net
        .nodes()
        .iter()
        .enumerate()
        .map(|(v, nd)| nd.fragment_parent().map(|p| topo.ports(v)[p].neighbor))
        .collect();
    let bfs_parent_of: Vec<Option<usize>> = net
        .nodes()
        .iter()
        .enumerate()
        .map(|(v, nd)| nd.bfs_parent_port().map(|p| topo.ports(v)[p].neighbor))
        .collect();
    let sample = &net.nodes()[cfg.root];
    let k = sample.chosen_k().unwrap_or(1);
    let bfs_height = net.nodes().iter().map(|nd| nd.bfs_depth()).max().unwrap_or(0);
    Ok(ForestRun { fragment_of, parent_of, bfs_parent_of, stats, k, bfs_height })
}
