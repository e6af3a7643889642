//! Regression check of the adaptive `k` choice (`choose_k_adaptive`): on
//! the T1 trio, the default configuration must use no more rounds and no
//! more messages than the paper's `k = sqrt(n)` under the same schedule,
//! and must still return Kruskal's tree. The cliquepath rows sit in the
//! high-diameter regime, where both runs use `k = sqrt(n)` and tie.
//!
//! The n = 2304 trio is `#[ignore]`d for debug runs; CI runs it in
//! release with `--include-ignored`.

use dmst::core::util::isqrt;
use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::mst;
use dmst_bench::standard_trio;

fn assert_no_worse_than_sqrt_k(n: usize) {
    for w in standard_trio(n, 0x51) {
        let g = &w.graph;
        let truth = mst::kruskal(g).edges;
        let auto = run_mst(g, &ElkinConfig::default()).expect("default run");
        let sqrt = run_mst(g, &ElkinConfig::with_k(isqrt(n as u64))).expect("k = sqrt(n) run");
        assert_eq!(auto.edges, truth, "{}: default k = {} gave a wrong MST", w.name, auto.k);
        assert_eq!(sqrt.edges, truth, "{}: k = sqrt(n) gave a wrong MST", w.name);
        for (what, a, s) in [
            ("rounds", auto.stats.rounds, sqrt.stats.rounds),
            ("messages", auto.stats.messages, sqrt.stats.messages),
        ] {
            assert!(
                a <= s,
                "{}: default k = {} took {a} {what}, more than {s} at k = sqrt(n) = {}",
                w.name,
                auto.k,
                sqrt.k
            );
        }
    }
}

#[test]
fn default_k_no_worse_than_sqrt_n_trio_256() {
    assert_no_worse_than_sqrt_k(256);
}

#[test]
#[ignore = "release-scale: run with --release -- --include-ignored"]
fn default_k_no_worse_than_sqrt_n_trio_2304() {
    assert_no_worse_than_sqrt_k(2304);
}
