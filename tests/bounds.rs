//! Complexity-bound tests: measured rounds and messages must stay inside
//! the paper's asymptotic formulas with explicit, fixed constants. These
//! are the theorem statements turned into assertions.

use dmst::congest::{CapacityMode, Network, RunConfig, Topology};
use dmst::core::util::{ceil_log2, log_star};
use dmst::core::{run_forest, run_mst, ElkinConfig, ElkinNode};
use dmst::graphs::{analysis, generators as gen, mst, WeightedGraph};
use dmst_bench::standard_trio;

/// Constant in front of `(D + sqrt(n/b)) log n` that every measured run
/// must respect. Stage B's fixed windows carry the largest constant
/// (~2 * exchanges per radius unit), so this is necessarily generous —
/// what matters is that ONE constant covers every family and size.
const ROUND_C: f64 = 60.0;
/// Constant in front of `m log n + n log n log* n`.
const MSG_C: f64 = 4.0;

fn assert_bounds(g: &WeightedGraph, b: u32, label: &str) {
    let n = g.num_nodes() as u64;
    let m = g.num_edges() as u64;
    let d = u64::from(analysis::diameter_exact(g)).max(1);
    let run =
        run_mst(g, &ElkinConfig::with_bandwidth(b)).unwrap_or_else(|e| panic!("{label}: {e}"));

    let lg = ceil_log2(n.max(2)) as f64;
    let ls = log_star(n.max(2)) as f64;
    let round_bound = ROUND_C * (d as f64 + ((n / u64::from(b)).max(1) as f64).sqrt()) * lg;
    let msg_bound = MSG_C * ((m as f64) * lg + (n as f64) * lg * ls);

    assert!(
        (run.stats.rounds as f64) < round_bound,
        "{label}: rounds {} exceed {ROUND_C}*(D+sqrt(n/b))*lg n = {round_bound:.0}",
        run.stats.rounds
    );
    assert!(
        (run.stats.messages as f64) < msg_bound,
        "{label}: messages {} exceed {MSG_C}*(m lg n + n lg n lg* n) = {msg_bound:.0}",
        run.stats.messages
    );
}

#[test]
fn theorem_3_1_bounds_across_families() {
    let r = &mut gen::WeightRng::new(31);
    assert_bounds(&gen::torus_2d(12, 12, r), 1, "torus");
    assert_bounds(&gen::random_connected(150, 450, r), 1, "random");
    assert_bounds(&gen::path(150, r), 1, "path");
    assert_bounds(&gen::path_of_cliques(24, 6, r), 1, "cliquepath");
    assert_bounds(&gen::snake_torus(12, 12, r), 1, "snake");
    assert_bounds(&gen::complete(40, r), 1, "complete");
}

#[test]
fn theorem_3_2_bounds_with_bandwidth() {
    let r = &mut gen::WeightRng::new(32);
    let g = gen::random_connected(200, 600, r);
    for b in [1u32, 2, 4, 8] {
        assert_bounds(&g, b, &format!("random b={b}"));
    }
}

#[test]
fn theorem_3_2_rounds_shrink_with_bandwidth() {
    // On a low-diameter graph, b = 16 must beat b = 1 on rounds while
    // messages stay within a small factor.
    let r = &mut gen::WeightRng::new(33);
    let g = gen::random_connected(800, 2400, r);
    let r1 = run_mst(&g, &ElkinConfig::with_bandwidth(1)).unwrap();
    let r16 = run_mst(&g, &ElkinConfig::with_bandwidth(16)).unwrap();
    assert!(
        r16.stats.rounds * 3 < r1.stats.rounds * 2,
        "b=16 ({}) should cut rounds by >= 1/3 vs b=1 ({})",
        r16.stats.rounds,
        r1.stats.rounds
    );
    assert!(r16.stats.messages < 2 * r1.stats.messages);
}

#[test]
fn theorem_4_3_forest_bounds() {
    let r = &mut gen::WeightRng::new(43);
    let g = gen::random_connected(300, 900, r);
    let (n, m) = (g.num_nodes() as u64, g.num_edges() as u64);
    let ls = log_star(n) as f64;
    for k in [2u64, 8, 32] {
        let run = run_forest(&g, &ElkinConfig::with_k(k)).unwrap();
        let lk = ceil_log2(k.max(2)) as f64;
        let round_bound = 120.0 * (k as f64) * ls + 200.0;
        let msg_bound = 4.0 * ((m as f64) * lk + (n as f64) * lk * ls);
        assert!(
            (run.stats.rounds as f64) < round_bound,
            "k={k}: rounds {} exceed {round_bound:.0}",
            run.stats.rounds
        );
        assert!(
            (run.stats.messages as f64) < msg_bound,
            "k={k}: messages {} exceed {msg_bound:.0}",
            run.stats.messages
        );
    }
}

#[test]
fn strict_bandwidth_is_respected() {
    // The simulator runs in strict mode by default; a completed run is
    // itself the proof, but double-check the recorded peak.
    let r = &mut gen::WeightRng::new(44);
    let g = gen::torus_2d(10, 10, r);
    for b in [1u32, 4] {
        let run = run_mst(&g, &ElkinConfig::with_bandwidth(b)).unwrap();
        assert!(
            run.stats.peak_edge_words <= u64::from(8 * b),
            "peak edge words {} exceed the CONGEST({b}) budget",
            run.stats.peak_edge_words
        );
    }
}

#[test]
fn pipelines_follow_words_per_unit() {
    // The Stage C/D pipelines drain through `RoundCtx::try_send`, so they
    // spend whatever per-edge budget the simulator grants. With 16-word
    // units on the n = 256 cliquepath, where the candidate and downcast
    // queues back up, some edge must carry more than one default unit of
    // 8 words in a round — and the strict run must still succeed.
    let g = standard_trio(256, 0x51)
        .into_iter()
        .find(|w| w.name.starts_with("cliquepath"))
        .expect("trio contains a cliquepath")
        .graph;
    let cfg = ElkinConfig::default();
    let topo = Topology::new(g.num_nodes(), g.edges()).expect("valid topology");
    let mut net = Network::new(topo, |info| ElkinNode::new(info, cfg));
    let sim = RunConfig {
        words_per_unit: 16,
        capacity: CapacityMode::Strict,
        max_rounds: 1_000_000,
        ..RunConfig::default()
    };
    let stats = net.run(&sim).expect("strict run with 16-word units succeeds");

    let topo = net.topology();
    let mut marks = vec![0u8; g.num_edges()];
    for (v, node) in net.nodes().iter().enumerate() {
        for p in node.mst_ports() {
            marks[topo.ports(v)[p].edge] += 1;
        }
    }
    assert!(marks.iter().all(|&m| m == 0 || m == 2), "MST edge marked at one endpoint only");
    let edges: Vec<usize> = (0..marks.len()).filter(|&e| marks[e] == 2).collect();
    assert_eq!(edges, mst::kruskal(&g).edges, "MST differs from Kruskal");
    assert!(
        stats.peak_edge_words > 8,
        "peak edge words {} never exceeded the default unit: the pipelines ignore \
         words_per_unit",
        stats.peak_edge_words
    );
}

/// Stage C is only the `InitCoarse` flood down each base fragment (every
/// vertex holds its routing interval from Stage A), so it lasts exactly
/// as many rounds as the deepest base-fragment tree.
#[test]
fn stage_c_lasts_the_deepest_fragment_tree() {
    let mut graphs: Vec<(String, WeightedGraph)> =
        standard_trio(256, 0x51).into_iter().map(|w| (w.name, w.graph)).collect();
    graphs.push((
        "cliquepath 128x8".into(),
        gen::path_of_cliques(128, 8, &mut gen::WeightRng::new(0x51)),
    ));
    for cfg in [ElkinConfig::default(), ElkinConfig::fixed()] {
        for (label, g) in &graphs {
            let forest = run_forest(g, &cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
            let depth_of = |mut v: usize| {
                let mut d = 0;
                while let Some(p) = forest.parent_of[v] {
                    v = p;
                    d += 1;
                }
                d
            };
            let deepest = (0..g.num_nodes()).map(depth_of).max().unwrap_or(0);
            let run = run_mst(g, &cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                run.profile.stage_c, deepest,
                "{label} ({:?}): Stage C rounds vs deepest base-fragment tree",
                cfg.schedule_mode
            );
        }
    }
}
