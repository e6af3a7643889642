//! Benchmark of Elkin's MST (`dmst_core::run_mst`), end to end and layer
//! by layer. One process runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload random_16384 --seed 0 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` times whole solves, each right after a calibration pass,
//! and prints the end-to-end metrics; `--trace 1` replays `run_mst`
//! through its public pieces inside spans and prints the per-layer
//! metrics. The last line of standard output is the JSON result;
//! `--spec` prints `BENCHMARK.json` instead.

mod machine;
mod spec;
mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use congest_sim::{Message, Network, NodeProgram, RoundCtx, RunConfig, RunStats, Topology};
use dmst_core::{run_forest, run_mst, ElkinConfig, ElkinNode, MstRun, RunError};
use dmst_graphs::{mst, mst::MstResult, WeightedGraph};

use machine::Calibrator;
use spec::{Shape, Workload};
use trace::Tracer;

/// Set-ups before each timed solve (or traced iteration); `setup_s` is
/// the median over the run.
const SETUPS_PER_SOLVE: usize = 3;
/// Fewest timed solves a `--trace 0` run makes, whatever
/// `--seconds` says.
const MIN_SOLVES: usize = 3;
/// Flood runs per traced iteration; the flood metrics take their median.
const FLOOD_REPS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, spec::RUN_SECONDS, false);
    while let Some(flag) = argv.next() {
        if flag == "--spec" {
            return Ok(None);
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec::workload(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds: seconds as f64, trace }))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::render());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "perfbench: {e}\nusage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
                 | --spec",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let out = run(w, w.shape, args.seed, args.seconds, args.trace);
    for line in &out.report {
        println!("{line}");
    }
    if args.trace {
        print!("{}", out.tracer.self_time_table());
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{}-spans.json", w.name, args.seed);
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, out.tracer.to_json()))
        {
            Ok(()) => println!("spans: {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}

/// Solves attempted and failed, and why each failure counted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `RunStats` of the first good solve; every later solve of the same
    /// graph, on any shard count and through any path, must equal it.
    stats: Option<RunStats>,
}

impl Tally {
    /// Counts one solve: an `Err`, an MST other than Kruskal's, or
    /// `RunStats` that differ from the first solve's make it a failure.
    fn solve<'r>(
        &mut self,
        what: &str,
        res: &'r Result<MstRun, RunError>,
        oracle: &MstResult,
    ) -> Option<&'r MstRun> {
        self.attempted += 1;
        match res {
            Ok(run) => self.check(what, &run.stats, &run.edges, oracle).then_some(run),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// The checks of [`Tally::solve`] on an attempted solve's output.
    fn check(&mut self, what: &str, stats: &RunStats, edges: &[usize], oracle: &MstResult) -> bool {
        let problem = if edges != oracle.edges {
            "MST differs from Kruskal's"
        } else {
            match &self.stats {
                None => {
                    self.stats = Some(stats.clone());
                    return true;
                }
                Some(first) if first != stats => "RunStats differ from the first solve's",
                Some(_) => return true,
            }
        };
        self.fail(format!("{what}: {problem}"));
        false
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

struct Outcome {
    tally: Tally,
    metrics: BTreeMap<String, f64>,
    trace: bool,
    report: Vec<String>,
    tracer: Tracer,
}

impl Outcome {
    /// Every metric of this mode, in `BENCHMARK.json` order, with its unit.
    fn named_metrics(&self) -> Vec<(String, &'static str, Option<f64>)> {
        let list: Vec<(String, &'static str)> = if self.trace {
            spec::per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect()
        };
        list.into_iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(&name).copied();
                (name, unit, value)
            })
            .collect()
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.tally.problems.is_empty()
            && self.named_metrics().iter().all(|(_, _, v)| v.is_some_and(f64::is_finite))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .named_metrics()
            .iter()
            .map(|(name, unit, value)| {
                let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A run's graph and its Kruskal reference, made afresh
/// [`SETUPS_PER_SOLVE`] times before every timed solve (or traced
/// iteration), so that `setup_s` samples the machine over the whole run
/// just as the solves do.
struct Inputs {
    shape: Shape,
    seed: u64,
    current: Option<(WeightedGraph, MstResult)>,
    setup: Vec<f64>,
    generate: Vec<f64>,
    kruskal: Vec<f64>,
}

impl Inputs {
    fn new(shape: Shape, seed: u64) -> Self {
        Self { shape, seed, current: None, setup: vec![], generate: vec![], kruskal: vec![] }
    }

    fn refresh(&mut self, t: &mut Tracer) -> (&WeightedGraph, &MstResult) {
        for _ in 0..SETUPS_PER_SOLVE {
            self.current = None;
            let id = t.open("setup", None);
            let (graph, gen_s) =
                t.time("graphs.generate", Some(id), || self.shape.generate(self.seed));
            let (oracle, kr_s) = t.time("graphs.kruskal", Some(id), || mst::kruskal(&graph));
            self.setup.push(t.close(id));
            self.generate.push(gen_s);
            self.kruskal.push(kr_s);
            self.current = Some((graph, oracle));
        }
        let (graph, oracle) = self.current.as_ref().expect("SETUPS_PER_SOLVE > 0");
        (graph, oracle)
    }
}

/// One run of workload `w` on `shape` (its own, or the self-test's tiny
/// one) with `--seed seed`.
fn run(w: &'static Workload, shape: Shape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let graph_seed = w.default_seed.wrapping_add(seed);
    let mut calib = Calibrator::new(w.shards as usize);
    let calib_ns = calib.run() * 1e9;
    let mut inputs = Inputs::new(shape, graph_seed);
    let mut out = Outcome {
        tally: Tally::default(),
        metrics: BTreeMap::new(),
        trace,
        report: vec![],
        tracer: Tracer::new(w.name),
    };
    if trace {
        traced(w, &mut inputs, seconds, &mut out);
    } else {
        end_to_end(w, &mut inputs, &mut calib, seconds, &mut out);
    }
    let (g, _) = inputs.current.as_ref().expect("at least one set-up ran");
    let t = &out.tally;
    let mut report = vec![
        format!(
            "perfbench {} seed {seed} (graph seed {graph_seed:#x}): n={} m={} shards={} trace={}",
            w.name,
            g.num_nodes(),
            g.num_edges(),
            w.shards,
            u8::from(trace)
        ),
        format!(
            "fingerprint: nproc={} profile={} calib_ns={calib_ns:.0}",
            machine::nproc(),
            machine::build_profile(),
        ),
        format!(
            "setup: median of {}: {:.6} s (generate {:.6} s, kruskal {:.6} s)",
            inputs.setup.len(),
            median(&inputs.setup),
            median(&inputs.generate),
            median(&inputs.kruskal)
        ),
        format!(
            "solves: {} attempted, {} failed, fail_rate {}",
            t.attempted,
            t.failed,
            t.failed as f64 / t.attempted.max(1) as f64
        ),
    ];
    if let Some(st) = &t.stats {
        report.push(format!(
            "counts: rounds {} messages {} wire_words {}",
            st.rounds, st.messages, st.wire_words
        ));
    }
    report.extend(t.problems.iter().map(|p| format!("problem: {p}")));
    report.append(&mut out.report);
    out.report = report;
    out
}

fn elkin(shards: u32) -> ElkinConfig {
    ElkinConfig { shards, ..ElkinConfig::default() }
}

/// `--trace 0`: timed `run_mst` calls, each right after a calibration
/// pass on as many threads as the solve uses, until `seconds` are spent.
/// `solve_per_calib` is the median solve over the median pass.
fn end_to_end(
    w: &Workload,
    inputs: &mut Inputs,
    calib: &mut Calibrator,
    seconds: f64,
    out: &mut Outcome,
) {
    let cfg = elkin(w.shards);
    let (mut solve, mut calibration) = (vec![], vec![]);
    let started = Instant::now();
    loop {
        let (g, oracle) = inputs.refresh(&mut out.tracer);
        let c = calib.run();
        let (res, dt) = out.tracer.time("run_mst", None, || run_mst(black_box(g), &cfg));
        out.tally.solve("run_mst", &res, oracle);
        solve.push(dt);
        calibration.push(c);
        if solve.len() >= MIN_SOLVES && started.elapsed().as_secs_f64() + c + dt > seconds {
            break;
        }
    }
    // A ratio of medians: one noisy calibration pass moves it less than
    // it moves its own solve's ratio.
    let per_calib = median(&solve) / median(&calibration);
    let st = out.tally.stats.clone().unwrap_or_default();
    let m = &mut out.metrics;
    m.insert("setup_s".into(), median(&inputs.setup));
    m.insert("solve_s".into(), median(&solve));
    m.insert("solve_per_calib".into(), per_calib);
    m.insert("rounds".into(), st.rounds as f64);
    m.insert("messages".into(), st.messages as f64);
    m.insert("wire_words".into(), st.wire_words as f64);
    m.insert("peak_rss_mib".into(), machine::peak_rss_mib());
    out.report.push(format!(
        "solve_s median {:.6} s, calibration median {:.6} s, solve_per_calib {per_calib:.4}, \
         over {} solves (no tail percentile: fewer than 100 samples)",
        median(&solve),
        median(&calibration),
        solve.len()
    ));
}

/// The `RunConfig` `run_mst` builds for `g`; a drift shows up as replayed
/// `RunStats` that differ from `run_mst`'s.
fn sim_config(g: &WeightedGraph, cfg: &ElkinConfig) -> RunConfig {
    RunConfig {
        bandwidth: cfg.bandwidth,
        max_rounds: 1_000_000 + 600 * g.num_nodes() as u64,
        shards: cfg.shards,
        ..RunConfig::default()
    }
}

/// `run_mst`'s edge assembly: edges marked at both endpoints.
fn extract(net: &Network<ElkinNode>, num_edges: usize) -> Vec<usize> {
    let topo = net.topology();
    let mut marks = vec![0u8; num_edges];
    for (v, node) in net.nodes().iter().enumerate() {
        for p in node.mst_ports() {
            marks[topo.ports(v)[p].edge] += 1;
        }
    }
    (0..num_edges).filter(|&e| marks[e] == 2).collect()
}

/// A token flood from vertex 0: the executor with no protocol work.
struct Flood {
    seen: bool,
    origin: bool,
}

#[derive(Clone)]
struct Token;

impl Message for Token {
    fn encode(&self, out: &mut congest_sim::WireWriter<'_>) {
        out.word(0);
    }
    fn decode(r: &mut congest_sim::WireReader<'_>) -> Self {
        r.word();
        Token
    }
}

impl NodeProgram for Flood {
    type Msg = Token;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) {
        if !self.seen && (self.origin || !ctx.inbox().is_empty()) {
            self.seen = true;
            for p in 0..ctx.degree() {
                ctx.send(p, Token);
            }
        }
    }
    fn is_done(&self) -> bool {
        self.seen
    }
}

/// `--trace 1`: per iteration, an untraced `run_mst`, its replay through
/// the public pieces inside spans, `run_forest`, a solve on the other
/// shard count and the flood floor. Each metric is the median over the
/// iterations that fit in `seconds` (at least one).
fn traced(w: &Workload, inputs: &mut Inputs, seconds: f64, out: &mut Outcome) {
    let mut rows: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    let mut iterations = 0;
    loop {
        let t0 = started.elapsed().as_secs_f64();
        let (g, oracle) = inputs.refresh(&mut out.tracer);
        for (name, value) in traced_iteration(w.shards, g, oracle, out) {
            rows.entry(name).or_default().push(value);
        }
        iterations += 1;
        let t1 = started.elapsed().as_secs_f64();
        if t1 + (t1 - t0) > seconds {
            break;
        }
    }
    out.metrics = rows.iter().map(|(k, v)| (k.clone(), median(v))).collect();
    out.metrics.insert("graphs.generate_s".into(), median(&inputs.generate));
    out.metrics.insert("graphs.kruskal_s".into(), median(&inputs.kruskal));
    if let Some(st) = &out.tally.stats {
        for tag in st.by_tag.keys().filter(|t| !spec::TAGS.contains(t)) {
            out.tally.problems.push(format!("wire tag {tag} is not in spec::TAGS"));
        }
    }
    out.report.push(format!("traced iterations: {iterations}"));
    for m in spec::per_layer() {
        let v = out.metrics.get(&m.name).copied().unwrap_or(f64::NAN);
        out.report.push(format!("  {:<34} {:>16.6} {:<6} -> {}", m.name, v, m.unit, m.moves));
    }
}

fn traced_iteration(
    shards: u32,
    g: &WeightedGraph,
    oracle: &MstResult,
    out: &mut Outcome,
) -> Vec<(String, f64)> {
    let (cfg, other) = (elkin(shards), elkin(if shards == 1 { 2 } else { 1 }));
    let (t, tally) = (&mut out.tracer, &mut out.tally);
    let it = t.open("iteration", None);
    let mut m: Vec<(String, f64)> = vec![];

    let cpu0 = machine::process_cpu_s();
    let (base, solve_s) = t.time("run_mst", Some(it), || run_mst(black_box(g), &cfg));
    let cpu_solve = machine::process_cpu_s() - cpu0;
    let base = tally.solve("run_mst", &base, oracle).cloned();

    // run_mst, replayed through its public pieces.
    let rid = t.open("replay", Some(it));
    let (connected, _) = t.time("graphs.is_connected", Some(rid), || g.is_connected());
    let (topo, topology_s) = t.time("congest.topology", Some(rid), || {
        Topology::new(g.num_nodes(), g.edges()).expect("generated graphs are valid")
    });
    let (mut net, init_s) =
        t.time("core.init", Some(rid), || Network::new(topo, |info| ElkinNode::new(info, cfg)));
    let (stats, run_s) = t.time("congest.run", Some(rid), || net.run(&sim_config(g, &cfg)));
    let (edges, extract_s) = t.time("core.extract", Some(rid), || extract(&net, g.num_edges()));
    let replay_s = t.close(rid);
    let uncovered = (replay_s - t.covered(rid)) / replay_s;
    let topo = net.topology().clone();
    drop(net);
    tally.attempted += 1;
    match stats {
        Ok(stats) if connected => {
            if tally.check("replay", &stats, &edges, oracle) {
                let msgs = stats.messages.max(1) as f64;
                m.push(("congest.ns_per_msg".into(), run_s * 1e9 / msgs));
                m.push(("congest.ns_per_round".into(), run_s * 1e9 / stats.rounds.max(1) as f64));
                m.push(("congest.peak_round_messages".into(), stats.peak_round_messages as f64));
                m.push(("congest.peak_edge_words".into(), stats.peak_edge_words as f64));
                m.push(("congest.words_per_msg".into(), stats.words as f64 / msgs));
                let drift = stats.wire_words as f64 - stats.words as f64;
                m.push(("congest.word_drift".into(), drift));
                for tag in spec::TAGS {
                    m.push((spec::tag_metric(tag), stats.messages_with_tag(tag) as f64));
                }
            }
        }
        Ok(_) => tally.fail("replay: generated graph is disconnected".into()),
        Err(e) => tally.fail(format!("replay: {e}")),
    }
    m.push(("congest.topology_s".into(), topology_s));
    m.push(("core.init_s".into(), init_s));
    m.push(("congest.run_s".into(), run_s));
    m.push(("core.extract_s".into(), extract_s));
    m.push(("trace.overhead_share".into(), replay_s / solve_s - 1.0));
    m.push(("trace.uncovered_share".into(), uncovered));

    // Stages A+B alone; C+D are the rest of the untraced solve.
    let (forest, forest_s) = t.time("run_forest", Some(it), || run_forest(black_box(g), &cfg));
    if let Err(e) = forest {
        tally.problems.push(format!("run_forest: {e}"));
    }
    m.push(("core.forest_s".into(), forest_s));
    m.push(("core.cd_s".into(), solve_s - forest_s));

    // The same solve on the other shard count.
    let cpu0 = machine::process_cpu_s();
    let (res, other_s) = t.time("run_mst.other_shards", Some(it), || run_mst(black_box(g), &other));
    let cpu_other = machine::process_cpu_s() - cpu0;
    tally.solve("run_mst.other_shards", &res, oracle);
    let (one, two, cpu_two) =
        if shards == 1 { (solve_s, other_s, cpu_other) } else { (other_s, solve_s, cpu_solve) };
    m.push(("parallel.speedup".into(), one / two));
    m.push(("parallel.busy_share".into(), cpu_two / (two * 2.0)));

    if let Some(run) = base {
        let p = run.profile;
        for (stage, rounds) in
            [("a", p.stage_a), ("b", p.stage_b), ("c", p.stage_c), ("d", p.stage_d)]
        {
            m.push((format!("core.rounds.{stage}"), rounds as f64));
        }
        m.push(("core.k".into(), run.k as f64));
        m.push(("core.bfs_height".into(), run.bfs_height as f64));
    }

    // The executor's floor on this topology: a flood with no protocol work.
    let (mut per_msg, mut per_node_round) = (vec![], vec![]);
    for _ in 0..FLOOD_REPS {
        let mut net =
            Network::new(topo.clone(), |info| Flood { seen: false, origin: info.id == 0 });
        let (res, dt) = t.time("congest.flood", Some(it), || net.run(&RunConfig::default()));
        match res {
            Ok(st) => {
                per_msg.push(dt * 1e9 / st.messages.max(1) as f64);
                per_node_round.push(dt * 1e9 / (st.rounds.max(1) as f64 * g.num_nodes() as f64));
            }
            Err(e) => tally.problems.push(format!("flood: {e}")),
        }
    }
    m.push(("congest.flood_ns_per_msg".into(), median(&per_msg)));
    m.push(("congest.flood_ns_per_node_round".into(), median(&per_node_round)));
    t.close(it);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is exactly what `--spec` prints, and within the
    /// contract's limits.
    #[test]
    fn benchmark_json_is_the_spec() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, spec::render(), "regenerate BENCHMARK.json with -- --spec");
        for w in spec::WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why has {} chars", w.name, w.why.len());
        }
        let names: Vec<String> = spec::END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(spec::per_layer().into_iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name} is too long");
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name} is used twice");
        }
    }

    /// A tiny instance of each workload, through the same code in both
    /// modes: every metric prints with its unit, nothing fails, and the
    /// traced replay matches `run_mst`.
    #[test]
    fn tiny_workloads_report_every_metric() {
        for w in spec::WORKLOADS {
            for trace in [false, true] {
                let out = run(w, w.shape.tiny(), 0, 0.0, trace);
                let report = out.report.join("\n");
                assert_eq!(out.tally.failed, 0, "{} trace={trace}:\n{report}", w.name);
                assert!(out.tally.attempted >= MIN_SOLVES as u64, "{}: {report}", w.name);
                assert!(out.correct(), "{} trace={trace}:\n{report}", w.name);
                let json = out.json();
                for (name, unit, _) in out.named_metrics() {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert!(json.contains(&entry), "{}: {name} missing from {json}", w.name);
                    assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
                }
                assert_eq!(
                    out.named_metrics().len(),
                    if trace { spec::per_layer().len() } else { spec::END_TO_END.len() }
                );
                if trace {
                    assert_eq!(out.metrics["congest.word_drift"], 0.0);
                }
            }
        }
    }
}
