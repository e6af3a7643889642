//! The benchmark's contract: workloads and metrics. `BENCHMARK.json` at
//! the repository root is [`render`]'s output (`-- --spec`), and the
//! self-test keeps the two identical, so this file is the one source of
//! truth for names, units, bounds and the reason each workload exists.

use dmst_graphs::{generators as gen, WeightedGraph};

/// The graph family of a workload, at full size.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `random_connected(n, extra)`.
    Random { n: usize, extra: usize },
    /// `path_of_cliques(count, size)`.
    CliquePath { count: usize, size: usize },
}

impl Shape {
    /// The same family at 1/64 of the vertices, for the self-test.
    #[cfg(test)]
    pub fn tiny(self) -> Shape {
        match self {
            Shape::Random { n, extra } => Shape::Random { n: n / 64, extra: extra / 64 },
            Shape::CliquePath { count, size } => Shape::CliquePath { count: count / 64, size },
        }
    }

    pub fn generate(self, seed: u64) -> WeightedGraph {
        let rng = &mut gen::WeightRng::new(seed);
        match self {
            Shape::Random { n, extra } => gen::random_connected(n, extra, rng),
            Shape::CliquePath { count, size } => gen::path_of_cliques(count, size, rng),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    /// Generator seed at `--seed 0`; `--seed s` uses `default_seed + s`.
    pub default_seed: u64,
    /// `RunConfig::shards` of every timed solve. Never 0 (auto), so the
    /// thread count is the same on every machine.
    pub shards: u32,
}

const RANDOM_16384: Shape = Shape::Random { n: 16_384, extra: 32_768 };

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "random_16384",
        why: "wallclock gate graph: Stage B holds 94% of rounds and traffic is dense, so it \
              stresses the executor's per-message path and Controlled-GHS (b = 1, one shard)",
        shape: RANDOM_16384,
        default_seed: 0x5CA1E,
        shards: 1,
    },
    Workload {
        name: "cliquepath_9216",
        why: "path_of_cliques(1152, 8): high diameter, sparse traffic; per-round executor cost \
              and Stages A/C/D dominate, the per-message path is bypassed",
        shape: Shape::CliquePath { count: 1152, size: 8 },
        default_seed: 0x51,
        shards: 1,
    },
    Workload {
        name: "random_16384_shards2",
        why: "random_16384 on two shards: adds cross-shard word batches, channels and the \
              per-round barrier, so a sequential gain that costs the parallel layer shows",
        shape: RANDOM_16384,
        default_seed: 0x5CA1E,
        shards: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, printed by `--trace 0`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    // Median of many set-ups per run; the loosest bound, since it is a
    // few tens of milliseconds and moves with the machine.
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    // Raw wall time moves with the machine between processes (about 10%
    // on a 2-vCPU VM), so it gets the loosest bound too.
    EndToEnd { name: "solve_s", unit: "s", better: Lower, bound: 0.25 },
    // solve_s over the interleaved calibration pass: the metric a speed
    // claim names.
    EndToEnd { name: "solve_per_calib", unit: "ratio", better: Lower, bound: 0.2 },
    // Exact for a given graph; the spread is between the seeds' graphs (up
    // to 6% on cliquepath_9216's wire words).
    EndToEnd { name: "rounds", unit: "count", better: Lower, bound: 0.2 },
    EndToEnd { name: "messages", unit: "count", better: Lower, bound: 0.2 },
    EndToEnd { name: "wire_words", unit: "words", better: Lower, bound: 0.2 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Lower, bound: 0.15 },
];

/// A per-layer metric, printed by `--trace 1`, with the end-to-end metric
/// (and workload) it should move.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

fn layer(name: &str, unit: &'static str, better: Better, moves: &'static str) -> PerLayer {
    PerLayer { name: name.to_string(), unit, better, moves }
}

const ALL: &str = "all workloads";
const RANDOM: &str = "solve_per_calib on random_16384";
const CLIQUES: &str = "solve_per_calib on cliquepath_9216";
const STAGE_B: &str = "messages on random_16384";
const STAGE_CD: &str = "messages on cliquepath_9216";

/// Wire tags of `dmst_core::Msg`, as `stage:tag`. A traced run that meets
/// a tag missing here is not `correct`, so a new tag lands here first.
pub const TAGS: &[&str] = &[
    "a:bfs",
    "b:announce",
    "b:color",
    "b:connect",
    "b:match",
    "b:merge",
    "b:mwoe",
    "b:sync",
    "c:intervals",
    "d:announce",
    "d:downcast",
    "d:fragmwoe",
    "d:newcoarse",
    "d:upcast",
];

/// `core.msgs.<stage>.<tag>` for a wire tag `stage:tag`.
pub fn tag_metric(tag: &str) -> String {
    format!("core.msgs.{}", tag.replace(':', "."))
}

pub fn per_layer() -> Vec<PerLayer> {
    let mut out = vec![
        layer("graphs.generate_s", "s", Lower, "setup_s, all workloads"),
        layer("graphs.kruskal_s", "s", Lower, "setup_s, all workloads"),
        layer("congest.topology_s", "s", Lower, "solve_per_calib and peak_rss_mib, all workloads"),
        layer("core.init_s", "s", Lower, "solve_per_calib and peak_rss_mib, all workloads"),
        layer("core.extract_s", "s", Lower, "solve_per_calib and peak_rss_mib, all workloads"),
        layer("congest.run_s", "s", Lower, RANDOM),
        layer("congest.ns_per_msg", "ns", Lower, RANDOM),
        layer("congest.ns_per_round", "ns", Lower, CLIQUES),
        layer("congest.flood_ns_per_msg", "ns", Lower, "executor floor, all workloads"),
        layer("congest.flood_ns_per_node_round", "ns", Lower, "executor floor, all workloads"),
        layer("congest.peak_round_messages", "count", Lower, "wire_words and peak_rss_mib"),
        layer("congest.peak_edge_words", "words", Lower, "wire_words and peak_rss_mib"),
        layer("congest.words_per_msg", "words", Lower, "wire_words and peak_rss_mib"),
        layer("congest.word_drift", "words", Lower, "wire_words (expected 0)"),
        layer("core.forest_s", "s", Lower, RANDOM),
        layer("core.cd_s", "s", Lower, CLIQUES),
        layer("core.rounds.a", "count", Lower, "rounds on cliquepath_9216"),
        layer("core.rounds.b", "count", Lower, "rounds on random_16384"),
        layer("core.rounds.c", "count", Lower, "rounds on cliquepath_9216"),
        layer("core.rounds.d", "count", Lower, "rounds on cliquepath_9216"),
        layer("core.k", "count", Lower, "rounds, all workloads"),
        layer("core.bfs_height", "count", Lower, "rounds, all workloads"),
    ];
    for tag in TAGS {
        let moves = if tag.starts_with("b:") { STAGE_B } else { STAGE_CD };
        out.push(layer(&tag_metric(tag), "count", Lower, moves));
    }
    out.extend([
        layer("parallel.speedup", "ratio", Higher, "solve_per_calib on random_16384_shards2"),
        layer("parallel.busy_share", "ratio", Higher, "solve_per_calib on random_16384_shards2"),
        layer("trace.overhead_share", "ratio", Lower, ALL),
        layer("trace.uncovered_share", "ratio", Lower, ALL),
    ]);
    out
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 40;

/// `BENCHMARK.json`, byte for byte.
pub fn render() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
          \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"perfbench\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n"));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s += &format!("  \"end_to_end\": [\n{}\n  ],\n", rows.join(",\n"));
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s += &format!("  \"per_layer\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
    s
}
