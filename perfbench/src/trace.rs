//! In-memory spans recorded around the benchmark's calls into each layer.
//! Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Self { workload, epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its length in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Runs `f` inside a leaf span; returns its result and length.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Seconds of span `id` covered by its direct children. Children run
    /// one after another, so their lengths add up.
    pub fn covered(&self, id: usize) -> f64 {
        self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::seconds).sum()
    }

    /// Per span name: count, total seconds and self seconds (total minus
    /// the time direct children cover).
    pub fn self_time_table(&self) -> String {
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.seconds();
            row.2 += s.seconds() - self.covered(id);
        }
        let mut out = format!("{:<24} {:>6} {:>12} {:>12}\n", "span", "count", "total_s", "self_s");
        for (name, (count, total, own)) in rows {
            let _ = writeln!(out, "{name:<24} {count:>6} {total:>12.6} {own:>12.6}");
        }
        out
    }

    /// Every span as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                     \"workload\": \"{}\"}}",
                    s.name, s.start_ns, s.end_ns, parent, self.workload
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
