//! The host's speed, measured by a fixed reference computation that
//! belongs to the benchmark, not to the program.
//!
//! The machine the benchmark was defined on shares its cores and last
//! level cache with other tenants. In their busy spells, which last
//! from under a second to minutes, the reference below takes up to 1.8
//! times as long, and a simulator run up to 1.9 times. The reference is
//! ordered-map and heap churn over a few MiB, the access pattern of an
//! event-driven simulator. Timed next to each engine run, it scales
//! that run's host-time figures to the speed of a quiet host, so that
//! a change to the program moves them and the neighbours mostly do not.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// The reference's wall time on a quiet core of the machine the
/// benchmark was defined on ("Intel(R) Xeon(R) Processor", 2 vCPUs).
pub const NOMINAL_S: f64 = 0.0275;

/// The flag under which this binary takes one sample for
/// [`slowdown_apart`] and prints it.
pub const SAMPLE_FLAG: &str = "--host-sample";

/// Reference runs per speed sample, at least; the sample is their
/// median.
const MIN_RUNS: usize = 3;
/// A sample also runs the reference for at least this share of the
/// engine run it scales, so that a long run gets a long sample.
const SHARE_OF_RUN: f64 = 0.1;

/// One run of the reference computation, in seconds.
fn reference_s() -> f64 {
    let t = Instant::now();
    let mut map: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
    let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
    let (mut y, mut acc) = (0x1234_5678_u64, 0_u64);
    for i in 0..120_000_u64 {
        y = y
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(y >> 44, [i, y, i ^ y, 0]);
        heap.push(((y >> 20) & 0xffff_ffff, i as u32));
        if i % 3 == 0 {
            if let Some((k, _)) = heap.pop() {
                acc = acc.wrapping_add(k);
            }
            if let Some((_, v)) = map.range((y >> 30) & 0xf_ffff..).next() {
                acc ^= v[1];
            }
        }
    }
    black_box((acc, map.len(), heap.len()));
    t.elapsed().as_secs_f64()
}

/// How much slower than quiet the host runs now: the median of the
/// reference's runs over [`NOMINAL_S`], taken right after an engine
/// run of `engine_s` seconds. Divide a wall time by it, or multiply a
/// rate by it, to state the figure at quiet-host speed.
pub fn slowdown(engine_s: f64) -> f64 {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < engine_s * SHARE_OF_RUN {
        runs.push(reference_s());
    }
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2] / NOMINAL_S
}

/// [`slowdown`], taken in a child process of this binary, so that the
/// reference's heap does not count in this process's peak memory.
pub fn slowdown_apart(engine_s: f64) -> f64 {
    let exe = std::env::current_exe().expect("path of the benchmark binary");
    let out = Command::new(exe)
        .args([SAMPLE_FLAG, &engine_s.to_string()])
        .output()
        .expect("run a host-speed sample");
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(v) if out.status.success() => v,
        _ => panic!("host-speed sample failed: {}", out.status),
    }
}
