//! What the benchmark reads about the machine: a calibration loop that
//! calls no repository code, the machine fingerprint, peak RSS and process
//! CPU time.

use std::hint::black_box;
use std::time::Instant;

/// Vertices and out-degree of the calibration graph: 2.75 MiB of
/// CSR offsets, targets and values, resident in a typical L3.
const CALIB_NODES: usize = 1 << 16;
const CALIB_DEGREE: usize = 6;
/// Sweeps per calibration pass (about 0.1 s on a 2-vCPU x86-64 VM).
const CALIB_SWEEPS: usize = 32;

/// Sweeps of a gather over a random sparse graph, with a data-dependent
/// branch per edge — indirect loads and branchy integer work, as in the
/// executor's per-port reads — timed on as many threads as the solve it is
/// paired with. On a 2-vCPU VM, of the kernels tried (dependent walks over
/// 128 KiB and 4 MiB, a 4 MiB scatter, an integer loop, a gather over a
/// 36 MiB graph, and sums of them), this one's ratio to the solve moved
/// least between one-minute windows on both workload shapes.
pub struct Calibrator {
    graphs: Vec<Gather>,
}

struct Gather {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    x: Vec<u64>,
    y: Vec<u64>,
}

impl Calibrator {
    pub fn new(threads: usize) -> Self {
        Self { graphs: (0..threads.max(1) as u64).map(Gather::new).collect() }
    }

    /// Wall seconds of one calibration pass on every thread at once.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        match self.graphs.as_mut_slice() {
            [one] => {
                black_box(one.sweeps());
            }
            many => std::thread::scope(|s| {
                for g in many {
                    s.spawn(move || black_box(g.sweeps()));
                }
            }),
        }
        start.elapsed().as_secs_f64()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Gather {
    fn new(seed: u64) -> Self {
        let mut r = (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let targets: Vec<u32> = (0..CALIB_NODES * CALIB_DEGREE)
            .map(|_| (xorshift(&mut r) % CALIB_NODES as u64) as u32)
            .collect();
        let offsets = (0..=CALIB_NODES).map(|v| (v * CALIB_DEGREE) as u32).collect();
        Self { offsets, targets, x: (0..CALIB_NODES as u64).collect(), y: vec![0; CALIB_NODES] }
    }

    fn sweeps(&mut self) -> u64 {
        for _ in 0..CALIB_SWEEPS {
            for v in 0..CALIB_NODES {
                let edges = self.offsets[v] as usize..self.offsets[v + 1] as usize;
                let mut acc = self.x[v];
                for &u in &self.targets[edges] {
                    let w = self.x[u as usize];
                    acc = if w & 3 != 0 {
                        acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ w
                    } else {
                        acc.rotate_left(7).wrapping_add(w)
                    };
                }
                self.y[v] = acc;
            }
            std::mem::swap(&mut self.x, &mut self.y);
        }
        self.x[0]
    }
}

/// `nproc`, as the standard library sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// User plus system CPU seconds of the whole process, every thread that
/// ever ran in it included (`/proc/self/stat` fields 14 and 15, in
/// `USER_HZ` = 100 ticks per second, fixed by the Linux ABI).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    // `rest` starts at field 3 (state), so fields 14/15 are at 11/12.
    (ticks(11) + ticks(12)) / 100.0
}
