//! The repository benchmark. One command runs one workload through the
//! public entry points (`fleet::run_fleet_with`, `geo::run_geo_with`,
//! `exec::serve::serve` + `fleet::FleetHandler`), checks the outputs,
//! prints every metric by name with its unit, and ends with one JSON
//! line:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_day --seed 20170529 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that measures the per-layer metrics and writes its
//! spans under `perfbench/out/`. `--held-out` replaces the seed with
//! the held-out seed, on which only the seed-independent checks run.
//! See `perfbench/README.md` for the workloads and metrics.

mod host;
mod serve;
mod sim;
mod stats;
mod trace;

use std::process::{Command, ExitCode};
use trace::Tracer;

/// The seed whose report digests are pinned (the experiments' default).
pub const DEFAULT_SEED: u64 = 20170529;
/// A second fixed seed, kept out of tuning, for re-checking a claim.
pub const HELD_OUT_SEED: u64 = 0x0dd5_eed5;

const WORKLOADS: [&str; 4] = [
    "fleet_overload",
    "fleet_day",
    "geo_regions",
    "serve_offload",
];

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("offload_p50_ms", "ms"),
    ("offload_p95_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not reach reads 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("router.calls", "count"),
    ("router.ring_walks", "count"),
    ("router.busy_s", "s"),
    ("router.ns_per_call", "ns"),
    ("router.wall_share", "ratio"),
    ("router.affinity_frac", "ratio"),
    ("router.rebuild_s", "s"),
    ("admission.shed_frac", "ratio"),
    ("admission.spill_frac", "ratio"),
    ("fleet.crash_reroutes", "count"),
    ("fleet.migrations_completed_frac", "ratio"),
    ("geo.cross_region_frac", "ratio"),
    ("geo.bursts", "count"),
    ("geo.migrations_completed", "count"),
    ("geo.wan_request_bytes", "bytes"),
    ("geo.double_admissions", "count"),
    ("geo.router.busy_s", "s"),
    ("shard.threads_wall_s", "s"),
    ("shard.threads_over_serial", "ratio"),
    ("obsv.traced_over_untraced", "ratio"),
    ("obsv.events", "count"),
    ("obsv.events.rattrap", "count"),
    ("obsv.events.simkit", "count"),
    ("obsv.events.netsim", "count"),
    ("obsv.events.hostkernel", "count"),
    ("obsv.events.virt", "count"),
    ("obsv.events.containerfs", "count"),
    ("obsv.events.bench", "count"),
    ("obsv.events.fleet", "count"),
    ("obsv.events.geo", "count"),
    ("report.records", "count"),
    ("report.summarize_s", "s"),
    ("report.digest_s", "s"),
    ("setup.s_per_host", "s"),
    ("serve.json_parse_us", "us"),
    ("serve.handler_us", "us"),
    ("serve.net_us", "us"),
    ("exec.kernel_ms.ocr", "ms"),
    ("exec.kernel_ms.chessgame", "ms"),
    ("exec.kernel_ms.virusscan", "ms"),
    ("exec.kernel_ms.linpack", "ms"),
    ("handler.affinity_frac", "ratio"),
    ("serve.conns", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("bench.self_s", "s"),
    ("setup.self_s", "s"),
    ("engine.self_s", "s"),
    ("check.self_s", "s"),
    ("router.self_s", "s"),
    ("geo.self_s", "s"),
    ("report.self_s", "s"),
    ("obsv.self_s", "s"),
    ("shard.self_s", "s"),
    ("serve.self_s", "s"),
    ("loadgen.self_s", "s"),
    ("json.self_s", "s"),
    ("handler.self_s", "s"),
    ("exec.self_s", "s"),
];

/// Metric values by name, in the order they were put.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What one run measured and whether its outputs were right.
#[derive(Debug)]
pub struct Measured {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures, described.
    pub problems: Vec<String>,
    /// Human-readable context printed above the result.
    pub notes: Vec<String>,
}

/// Where and how a number was measured.
#[derive(Debug)]
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub nproc: usize,
    pub trace: bool,
    git_sha: String,
    toolchain: String,
}

impl Provenance {
    /// Whether a pinned digest exists for this workload and seed.
    fn checks_digest(&self) -> bool {
        sim::pinned_digest(&self.workload, self.seed).is_some()
    }

    fn to_json(&self) -> String {
        let engine = match (self.workload.as_str(), self.trace) {
            ("serve_offload", _) => "none (wall-clock server)".to_string(),
            (_, false) => "serial".to_string(),
            (_, true) => format!(
                "serial; shard.* sharded:{}; obsv.traced_over_untraced serial with recorder",
                self.nproc
            ),
        };
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"pinned_digest_checked\": {}, \"nproc\": {}, \
             \"git_sha\": \"{}\", \"toolchain\": \"{}\", \"profile\": \"release\", \"engine\": \"{engine}\"}}",
            self.workload,
            self.seed,
            self.checks_digest(),
            self.nproc,
            self.git_sha,
            self.toolchain
        )
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Some(text.lines().next()?.trim().to_string())
}

fn git_sha() -> String {
    // Only this checkout's own repository counts, not one around it.
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut trace) = (None, DEFAULT_SEED, false);
    let mut seconds: f64 = 20.0;
    let mut held_out = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--held-out" => held_out = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if held_out {
        seed = HELD_OUT_SEED;
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(host::SAMPLE_FLAG) {
        let engine_s = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.0);
        println!("{}", host::slowdown(engine_s));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--held-out]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let prov = Provenance {
        workload: args.workload.clone(),
        seed: args.seed,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace: args.trace,
        git_sha: git_sha(),
        toolchain: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    };

    let mut tracer = Tracer::new();
    let mut measured = match (args.workload.as_str(), args.trace) {
        ("serve_offload", false) => serve::run_end_to_end(&prov, args.seconds),
        ("serve_offload", true) => serve::run_traced(&prov, &mut tracer, args.seconds),
        (_, false) => sim::run_end_to_end(&prov, args.seconds),
        (_, true) => sim::run_traced(&prov, &mut tracer),
    };

    let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        measured.metrics.put("trace.spans", tracer.len() as f64);
        measured.metrics.put("trace.overhead", tracer.overhead());
        for (layer, s) in tracer.self_seconds() {
            measured.metrics.put(&format!("{layer}.self_s"), s);
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{}.spans.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, tracer.to_json(&prov.to_json())));
        match written {
            Ok(()) => println!("spans: {path}"),
            Err(e) => println!("spans: not written ({e})"),
        }
    }

    println!("provenance: {}", prov.to_json());
    for note in &measured.notes {
        println!("note: {note}");
    }
    for p in &measured.problems {
        println!("FAILED CHECK: {p}");
    }
    let fail_frac = measured.failed as f64 / measured.attempted.max(1) as f64;
    println!(
        "{:<34} {:>18} ratio  ({} of {} operations)",
        "fail_frac", fail_frac, measured.failed, measured.attempted
    );
    let mut fields = Vec::new();
    for &(name, unit) in spec {
        let value = match measured.metrics.get(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        println!("{name:<34} {value:>18} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.problems.is_empty(),
        measured.attempted.max(1),
        measured.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity; such a value reads 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obsv::json::{parse, Value};

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s =
                            |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string()
                })
                .collect(),
            _ => panic!("workloads missing"),
        };
        assert_eq!(workloads, WORKLOADS);
    }
}
