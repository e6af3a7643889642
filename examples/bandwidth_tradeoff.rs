//! The `CONGEST(b log n)` trade-off (Theorem 3.2): more per-edge bandwidth
//! buys rounds, while the message count stays put.
//!
//! Scenario: you operate a sensor mesh and can provision link bandwidth in
//! multiples of the base `O(log n)` packet. How much latency does each
//! multiple buy for a spanning-tree recomputation? The paper predicts
//! rounds `~ (D + sqrt(n/b)) log n`: the sqrt term shrinks with `b` until
//! the diameter floor takes over. (At `b = 1` this torus has
//! `H <= sqrt(n)`, where the default adaptive `k` comes from a round-cost
//! model instead, so that row is faster than the paper's curve.)
//!
//! ```text
//! cargo run --release --example bandwidth_tradeoff
//! ```

use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::{analysis, generators};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = generators::WeightRng::new(7);
    let g = generators::torus_2d(24, 24, &mut rng); // n = 576, D = 24
    let d = analysis::diameter_exact(&g);
    println!("torus 24x24: n = {}, m = {}, D = {d}", g.num_nodes(), g.num_edges());
    println!("\n{:>4} {:>8} {:>10} {:>10} {:>6}", "b", "rounds", "messages", "words", "k");

    let mut base_rounds = None;
    for b in [1u32, 2, 4, 8, 16, 32] {
        let run = run_mst(&g, &ElkinConfig::with_bandwidth(b))?;
        let base = *base_rounds.get_or_insert(run.stats.rounds);
        let speedup = base as f64 / run.stats.rounds.max(1) as f64;
        println!(
            "{b:>4} {:>8} {:>10} {:>10} {:>6}   ({speedup:.2}x vs b=1)",
            run.stats.rounds, run.stats.messages, run.stats.words, run.k
        );
    }

    println!(
        "\nreading: from b = 2 on, H = 24 exceeds sqrt(n/b), so k stays at\n\
         sqrt(n/b) and rounds fall with b until the D*log(n) term dominates;\n\
         messages barely move — the shape of Theorem 3.2. At b = 1 (H <=\n\
         sqrt(n)) the adaptive round-cost model picks a much smaller k, which\n\
         is why b = 1 beats b = 2..16."
    );
    Ok(())
}
