//! Wake hints on the real algorithm: `ElkinNode::next_wake` must be
//! invisible in every result and tight in the step count.
//!
//! * **Hinted ≡ unhinted.** The executor steps a hinted node only on mail
//!   or at its hint; `RunConfig { wake_hints: false }` steps every node
//!   every round. Both must give bit-identical [`RunStats`] and the same
//!   MST marks at every vertex, on one shard and on two, for both schedule
//!   modes and for uncontrolled merging. A hint that is too late changes
//!   message timing and shows up here as a diff.
//! * **Step pins.** A hint that is too early costs only host time, so it
//!   would pass every count pin. The Stage B step counts of
//!   [`StepCounter`] are pinned instead, with the standard 10% slack of
//!   [`dmst::testkit::RoundBudget`], so a loss of hint precision fails
//!   `cargo test`.
//!
//! The n = 2304 trio and the n = 16384 step ceiling are `#[ignore]`d for
//! debug runs; CI runs them in release with `--include-ignored`.

use dmst::congest::{Network, PortId, RunConfig, RunStats, Topology};
use dmst::core::util::isqrt;
use dmst::core::{ElkinConfig, ElkinNode, MergeControl};
use dmst::graphs::{generators as gen, WeightedGraph};
use dmst::testkit::{assert_within_slack, total_steps, StepCounter, STANDARD_SLACK};
use dmst_bench::standard_trio;

/// The simulator settings `run_mst` uses, with the two executor knobs
/// under test exposed.
fn sim_config(g: &WeightedGraph, cfg: &ElkinConfig, wake_hints: bool, shards: u32) -> RunConfig {
    RunConfig {
        bandwidth: cfg.bandwidth,
        max_rounds: 1_000_000 + 600 * g.num_nodes() as u64,
        shards,
        wake_hints,
        ..RunConfig::default()
    }
}

fn topology(g: &WeightedGraph) -> Topology {
    Topology::new(g.num_nodes(), g.edges()).expect("generated graphs are valid topologies")
}

/// One run of `Network<ElkinNode>`: its stats and every vertex's MST ports.
fn run_elkin(
    g: &WeightedGraph,
    cfg: ElkinConfig,
    wake_hints: bool,
    shards: u32,
) -> (RunStats, Vec<Vec<PortId>>) {
    let mut net = Network::new(topology(g), |info| ElkinNode::new(info, cfg));
    let stats = net.run(&sim_config(g, &cfg, wake_hints, shards)).expect("run succeeds");
    (stats, net.nodes().iter().map(ElkinNode::mst_ports).collect())
}

/// Stage B steps of a hinted single-shard run.
fn stage_b_steps(g: &WeightedGraph, cfg: ElkinConfig) -> u64 {
    let mut net = Network::new(topology(g), |info| StepCounter::new(ElkinNode::new(info, cfg)));
    net.run(&sim_config(g, &cfg, true, 1)).expect("run succeeds");
    total_steps(net.nodes(), "b")
}

fn uncontrolled() -> ElkinConfig {
    ElkinConfig { merge_control: MergeControl::Uncontrolled, ..ElkinConfig::adaptive() }
}

fn assert_hints_invisible(n: usize, configs: &[(&str, ElkinConfig)]) {
    for w in standard_trio(n, 0x51) {
        for &(name, cfg) in configs {
            let baseline = run_elkin(&w.graph, cfg, false, 1);
            for (hints, shards) in [(false, 2), (true, 1), (true, 2)] {
                assert!(
                    run_elkin(&w.graph, cfg, hints, shards) == baseline,
                    "{} / {name}: wake_hints={hints} shards={shards} diverged from the \
                     unhinted sequential run",
                    w.name
                );
            }
        }
    }
}

#[test]
fn hinted_equals_unhinted_t1_trio_256() {
    assert_hints_invisible(
        256,
        &[
            ("adaptive", ElkinConfig::adaptive()),
            ("fixed", ElkinConfig::fixed()),
            ("uncontrolled", uncontrolled()),
        ],
    );
}

#[test]
#[ignore = "release-scale: run with --release -- --include-ignored"]
fn hinted_equals_unhinted_t1_trio_2304() {
    assert_hints_invisible(2304, &[("adaptive", ElkinConfig::adaptive())]);
}

/// The adaptive schedule at `k = sqrt(n)`. The step pins measure hint
/// precision, so they hold `k` fixed rather than follow the automatic
/// choice, which runs far fewer Stage B phases on these graphs.
fn adaptive_sqrt_k(g: &WeightedGraph) -> ElkinConfig {
    ElkinConfig { k_override: Some(isqrt(g.num_nodes() as u64)), ..ElkinConfig::adaptive() }
}

/// Golden adaptive Stage B steps at `k = 16` on the n = 256 trio (torus,
/// random, cliquepath, snake). Waking every vertex at both edges of every
/// window took 61696 / 63649 / 60041 / 62901.
#[test]
fn adaptive_stage_b_step_pins() {
    let pins = [28805, 30945, 27062, 30598];
    let trio = standard_trio(256, 0x51);
    assert_eq!(trio.len(), pins.len(), "pins are ordered for the 4-workload trio");
    for (w, pin) in trio.iter().zip(pins) {
        let steps = stage_b_steps(&w.graph, adaptive_sqrt_k(&w.graph));
        assert_within_slack("adaptive Stage B steps", &w.name, steps, pin, STANDARD_SLACK);
    }
}

/// The wallclock gate graph, `random_connected(16384, 32768)` with seed
/// 0x5CA1E, at `k = 128` (waking every vertex at every window edge took
/// 7643708 steps).
#[test]
#[ignore = "release-scale: run with --release -- --include-ignored"]
fn random_16384_stage_b_steps() {
    let g = gen::random_connected(16_384, 32_768, &mut gen::WeightRng::new(0x5CA1E));
    let steps = stage_b_steps(&g, adaptive_sqrt_k(&g));
    assert!(steps <= 3_600_000, "Stage B took {steps} node steps on random n=16384");
    assert_within_slack(
        "adaptive Stage B steps",
        "random n=16384",
        steps,
        3_399_193,
        STANDARD_SLACK,
    );
}
