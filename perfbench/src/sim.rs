//! The three simulator workloads: their configs, the untraced
//! end-to-end run, the correctness gate, and the traced run that
//! replays each run's own routing decisions through the public
//! `Router`/`GeoRouter` and times report building.

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Measured, Metrics, Provenance};
use fleet::{EngineMode, FleetConfig, FleetReport, RouteReason, Router};
use geo::{GeoConfig, GeoReport, GeoRouter, Topology};
use obsv::{Recorder, RecorderConfig, Subsystem, TraceEvent};
use rattrap::warehouse::{aid_of, Aid};
use rattrap::Phase;
use simkit::faults::FaultConfig;
use simkit::SimDuration;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use workloads::WorkloadKind;

/// Virtual nodes per host, as the engines build their rings.
const RING_VNODES: usize = 64;

/// Report digests pinned when the benchmark was defined, by workload
/// and seed: the default seed and seeds 1 to 10. A run at one of these
/// seeds whose digest differs has changed simulated behaviour, which
/// no optimisation may do. Other seeds check conservation only.
const PINNED: [(&str, u64, u64); 33] = [
    ("fleet_overload", crate::DEFAULT_SEED, 0xb6b7_8b98_161f_8e65),
    ("fleet_overload", 1, 0xbc30_8070_847d_6382),
    ("fleet_overload", 2, 0xb083_c2db_1f54_7cd8),
    ("fleet_overload", 3, 0x0fd3_b13a_ad6c_83c2),
    ("fleet_overload", 4, 0x432f_8912_7172_f2f6),
    ("fleet_overload", 5, 0xf262_6bc5_a6ce_f316),
    ("fleet_overload", 6, 0xbde5_083d_7d40_aed4),
    ("fleet_overload", 7, 0x1b09_3fab_a1d5_e175),
    ("fleet_overload", 8, 0x4e8d_7905_e695_8912),
    ("fleet_overload", 9, 0x41b6_cea8_1ea5_1ab1),
    ("fleet_overload", 10, 0xfed4_d383_47c8_c0bd),
    ("fleet_day", crate::DEFAULT_SEED, 0x80a1_169e_e1d8_6e04),
    ("fleet_day", 1, 0x1935_7fd6_6ada_b9c9),
    ("fleet_day", 2, 0x8ee4_7a09_abd7_a265),
    ("fleet_day", 3, 0xaf23_2804_1613_ff87),
    ("fleet_day", 4, 0xe7b6_3f55_7b06_c033),
    ("fleet_day", 5, 0x1dda_3e88_4428_74bb),
    ("fleet_day", 6, 0x3688_0e3a_621f_5407),
    ("fleet_day", 7, 0x857f_16af_0568_f9ea),
    ("fleet_day", 8, 0xc7c9_98a2_acfa_fc90),
    ("fleet_day", 9, 0xc0e1_668d_9772_8c66),
    ("fleet_day", 10, 0x609f_bb07_05f5_d5c5),
    ("geo_regions", crate::DEFAULT_SEED, 0x2e4d_44da_ec56_44e3),
    ("geo_regions", 1, 0xe2cf_55a6_272c_831b),
    ("geo_regions", 2, 0x64be_aba0_fe30_4f3a),
    ("geo_regions", 3, 0x073d_3969_244f_3bae),
    ("geo_regions", 4, 0x9ae8_aae7_e73a_e24c),
    ("geo_regions", 5, 0x720c_6556_e62c_af6e),
    ("geo_regions", 6, 0x8b8d_a449_8f07_f27a),
    ("geo_regions", 7, 0x94d6_9144_5083_dca1),
    ("geo_regions", 8, 0x1b83_143c_9fb1_617f),
    ("geo_regions", 9, 0x6888_e7b9_5f39_076a),
    ("geo_regions", 10, 0x80f0_f21f_cdc7_e17c),
];

/// Set-up repetitions per run (their median is `setup_s`): at least
/// the first, and more while they fit the set-up budget in seconds.
const SETUP_REPS: (usize, usize) = (5, 500);
const SETUP_BUDGET_S: f64 = 4.0;

/// How strongly each workload's engine rate follows the host's speed:
/// its rate is scaled by `host::slowdown` to this power. Each is the
/// slope of log engine wall on log reference time over about two
/// minutes of alternating engine runs and reference samples (fitted
/// fleet_overload 0.49 twice, fleet_day 0.72–1.02, geo_regions
/// 0.60–0.87; noise in the reference pulls a fitted slope down, and 1
/// left the 20 s windows of both steadier). fleet_overload spends most
/// of its time scanning one ring that stays in the core's own cache,
/// so its neighbours slow it least. Set-up is scaled by the slowdown
/// itself (fitted 0.8–1.3).
const HOST_SENSITIVITY: [(&str, f64); 3] = [
    ("fleet_overload", 0.5),
    ("fleet_day", 1.0),
    ("geo_regions", 1.0),
];

/// Simulated horizon of the serial-versus-sharded comparison.
const SHARD_HORIZON_S: u64 = 300;

/// One simulator scenario.
pub enum Scenario {
    Fleet(FleetConfig),
    Geo(GeoConfig),
}

/// A finished simulator run.
pub enum Report {
    Fleet(FleetReport),
    Geo(GeoReport),
}

/// `exp_mega`'s shape, resized: 256 paper servers (16,384 ring points)
/// against a million handsets, cut to a 5 s horizon so that a run
/// fits the measurement window while a large share is still shed.
fn fleet_overload(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::paper_default(256, seed);
    cfg.traffic.users = 1_000_000;
    cfg.traffic.duration = SimDuration::from_secs(5);
    cfg
}

/// `exp_cluster`'s fault cell on a 16-host fleet: a LiveLab hour under
/// capacity, with host crashes and an eager rebalancer.
fn fleet_day(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::paper_default(16, seed);
    cfg.traffic.users = 3000;
    cfg.traffic.duration = SimDuration::from_secs(3600);
    cfg.faults = FaultConfig::scaled(1.0);
    cfg.rebalance.imbalance_threshold = 0.25;
    cfg
}

/// `exp_geo`'s geography (3 regions, WAN flow cap, follow-the-sun and
/// cloud-burst, 600 s) at one eighth of its per-region scale.
fn geo_regions(seed: u64) -> GeoConfig {
    let mut cfg = GeoConfig::paper_default(3, seed);
    cfg.wan.flow_bps = Some(5.0e5);
    cfg.wan.hop_rtt = SimDuration::from_millis(75);
    cfg.traffic.duration = SimDuration::from_secs(600);
    cfg.rebalance.imbalance_threshold = 0.10;
    cfg.rebalance.min_interval = SimDuration::from_secs(30);
    for r in &mut cfg.regions {
        r.users = 4250;
        r.edge.hosts = 13;
        r.edge.initial_active = 13;
        r.core.hosts = 10;
        r.core.initial_active = 3;
    }
    cfg
}

impl Scenario {
    pub fn for_workload(name: &str, seed: u64) -> Option<Scenario> {
        match name {
            "fleet_overload" => Some(Scenario::Fleet(fleet_overload(seed))),
            "fleet_day" => Some(Scenario::Fleet(fleet_day(seed))),
            "geo_regions" => Some(Scenario::Geo(geo_regions(seed))),
            _ => None,
        }
    }

    /// The same deployment with no arrivals: provisioning, ring
    /// builds, LP construction and the (empty) report.
    fn without_arrivals(&self) -> Scenario {
        match self {
            Scenario::Fleet(c) => {
                let mut c = c.clone();
                c.traffic.users = 0;
                Scenario::Fleet(c)
            }
            Scenario::Geo(c) => {
                let mut c = c.clone();
                for r in &mut c.regions {
                    r.users = 0;
                }
                Scenario::Geo(c)
            }
        }
    }

    /// The same scenario with its horizon cut to at most `horizon`.
    fn cut_to(&self, horizon: SimDuration) -> Scenario {
        match self {
            Scenario::Fleet(c) => {
                let mut c = c.clone();
                c.traffic.duration = c.traffic.duration.min(horizon);
                Scenario::Fleet(c)
            }
            Scenario::Geo(c) => {
                let mut c = c.clone();
                c.traffic.duration = c.traffic.duration.min(horizon);
                Scenario::Geo(c)
            }
        }
    }

    fn hosts(&self) -> usize {
        match self {
            Scenario::Fleet(c) => c.host_specs.len(),
            Scenario::Geo(c) => Topology::new(c).n_hosts(),
        }
    }

    fn run(&self, rec: Recorder, mode: EngineMode) -> Report {
        match self {
            Scenario::Fleet(c) => Report::Fleet(fleet::run_fleet_with(c, rec, mode)),
            Scenario::Geo(c) => Report::Geo(geo::run_geo_with(c, rec, mode)),
        }
    }

    /// Run once and time it; the report is dropped outside the timing.
    fn timed_run(&self, rec: Recorder, mode: EngineMode) -> (Report, f64) {
        let t = Instant::now();
        let rep = self.run(rec, mode);
        (rep, t.elapsed().as_secs_f64())
    }
}

impl Report {
    fn digest(&self) -> u64 {
        match self {
            Report::Fleet(r) => r.digest(),
            Report::Geo(r) => r.digest(),
        }
    }

    fn records(&self) -> usize {
        match self {
            Report::Fleet(r) => r.records.len(),
            Report::Geo(r) => r.records.len(),
        }
    }

    /// Simulated response times of cloud-served requests, ms.
    fn remote_response_ms(&self) -> Vec<f64> {
        let ms = |d: SimDuration| d.as_secs_f64() * 1e3;
        match self {
            Report::Fleet(r) => r
                .records
                .iter()
                .filter(|x| x.remote())
                .map(|x| ms(x.response()))
                .collect(),
            Report::Geo(r) => r
                .records
                .iter()
                .filter(|x| x.remote())
                .map(|x| ms(x.response()))
                .collect(),
        }
    }

    /// The records and the engine's own tallies, as the checks see them.
    fn ledger(&self) -> Ledger {
        match self {
            Report::Fleet(r) => {
                let c = &r.control;
                Ledger {
                    records: r
                        .records
                        .iter()
                        .map(|x| Rec {
                            phase: x.phase,
                            fell_back: x.fell_back,
                            host: x.host,
                            reason: x.reason,
                            attempts: x.attempts,
                        })
                        .collect(),
                    summary: (
                        r.summary.submitted,
                        r.summary.completed_remote,
                        r.summary.fallback_local,
                    ),
                    served: r.hosts.iter().map(|h| h.served).collect(),
                    routes: [c.affinity_routes, c.hash_routes, c.spill_routes],
                    shed: c.shed,
                    tallies: vec![(
                        "crash re-routes",
                        c.crash_reroutes,
                        r.records.iter().map(|x| u64::from(x.rerouted)).sum(),
                    )],
                }
            }
            Report::Geo(r) => {
                let c = &r.control;
                Ledger {
                    records: r
                        .records
                        .iter()
                        .map(|x| Rec {
                            phase: x.phase,
                            fell_back: x.fell_back,
                            host: x.host,
                            reason: x.reason,
                            attempts: x.attempts,
                        })
                        .collect(),
                    summary: (
                        r.summary.submitted,
                        r.summary.completed_remote,
                        r.summary.fallback_local,
                    ),
                    served: r.hosts.iter().map(|h| h.served).collect(),
                    routes: [c.affinity_routes, c.hash_routes, c.spill_routes],
                    shed: c.shed,
                    tallies: vec![
                        (
                            "cross-region routes",
                            c.cross_region_routes,
                            r.records.iter().filter(|x| x.cross_region).count() as u64,
                        ),
                        ("double admissions", c.double_admissions, 0),
                    ],
                }
            }
        }
    }
}

/// One request record, reduced to what the checks read.
struct Rec {
    phase: Phase,
    fell_back: bool,
    host: Option<usize>,
    reason: Option<RouteReason>,
    attempts: u32,
}

impl Rec {
    fn remote(&self) -> bool {
        self.phase == Phase::Done && !self.fell_back
    }
}

/// A report's records beside the counts the engine kept apart from
/// them: the control plane's routing tallies and each host's own count
/// of the services it finished.
struct Ledger {
    records: Vec<Rec>,
    /// The report summary's (submitted, remote, local).
    summary: (u64, u64, u64),
    /// Services finished, per host.
    served: Vec<u64>,
    /// Affinity, hash and spill routing decisions.
    routes: [u64; 3],
    shed: u64,
    /// (what, the engine's tally, the same counted from the records)
    tallies: Vec<(&'static str, u64, u64)>,
}

impl Ledger {
    /// Conservation and lifecycle checks that hold at any seed. Each
    /// broken one is described in the returned list.
    fn violations(&self) -> Vec<String> {
        let records = &self.records;
        let count = |f: &dyn Fn(&Rec) -> bool| records.iter().filter(|x| f(x)).count() as u64;
        let n = records.len() as u64;
        let terminal = count(&|x| x.phase.is_terminal());
        let remote = count(&|x| x.remote());
        let local = count(&|x| x.fell_back && x.phase == Phase::Done);
        let abandoned = count(&|x| matches!(x.phase, Phase::Abandoned | Phase::Failed));
        let mut bad = Vec::new();
        if terminal != n {
            bad.push(format!("{} of {n} records not terminal", n - terminal));
        }
        if remote + local + abandoned != n || self.summary.0 != n {
            bad.push(format!(
                "conservation: remote {remote} + local {local} + abandoned {abandoned} != submitted {n}"
            ));
        }
        if self.summary.1 != remote || self.summary.2 != local {
            bad.push("summary disagrees with its records".into());
        }

        // A record served in the cloud names its host and how it was
        // placed; any other record holds no host.
        let misplaced =
            count(&|x| x.remote() != x.host.is_some() || (x.remote() && x.reason.is_none()));
        if misplaced > 0 {
            bad.push(format!("{misplaced} records disagree with their host"));
        }

        // Each host finished every request recorded as served there. A
        // host also counts a service the control plane then discarded
        // as stale (the request had moved on), so it may count more.
        let mut on_host = vec![0u64; self.served.len()];
        for h in records.iter().filter(|x| x.remote()).filter_map(|x| x.host) {
            match on_host.get_mut(h) {
                Some(c) => *c += 1,
                None => bad.push(format!("a record names host {h}, beyond the fleet")),
            }
        }
        for (h, (&recorded, &served)) in on_host.iter().zip(&self.served).enumerate() {
            if served < recorded {
                bad.push(format!(
                    "host {h} served {served} but {recorded} records name it"
                ));
            }
        }

        // Every request is routed once on arrival and at most once per
        // further attempt; a request's last decision is its record's.
        let decisions = self.routes.iter().sum::<u64>() + self.shed;
        let attempts: u64 = records.iter().map(|x| u64::from(x.attempts)).sum();
        if decisions < n || decisions > attempts {
            bad.push(format!(
                "{decisions} routing decisions for {n} requests making {attempts} attempts"
            ));
        }
        let reasons = [RouteReason::Affinity, RouteReason::Hash, RouteReason::Spill];
        let last: Vec<u64> = reasons
            .iter()
            .map(|&r| count(&|x| x.host.is_some() && x.reason == Some(r)))
            .collect();
        let never_placed = count(&|x| x.reason.is_none());
        let exact = attempts == n;
        for ((reason, &tally), &recorded) in reasons.iter().zip(&self.routes).zip(&last) {
            if tally < recorded || (exact && tally != recorded) {
                bad.push(format!(
                    "{} routes: control plane counted {tally}, records show {recorded}",
                    reason.label()
                ));
            }
        }
        if self.shed < never_placed || (exact && self.shed != never_placed) {
            bad.push(format!(
                "sheds: control plane counted {}, {never_placed} records were never placed",
                self.shed
            ));
        }
        for &(what, tally, recorded) in &self.tallies {
            if tally != recorded {
                bad.push(format!(
                    "{what}: control plane counted {tally}, records show {recorded}"
                ));
            }
        }
        bad
    }
}

/// The digest pinned for `workload` at `seed`, if there is one.
pub fn pinned_digest(workload: &str, seed: u64) -> Option<u64> {
    PINNED
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, d)| d)
}

/// Per-rep correctness: the conservation checks, determinism across
/// reps of one config, and the pinned digest where the seed has one.
struct Gate<'a> {
    prov: &'a Provenance,
    first_digest: Option<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl<'a> Gate<'a> {
    fn new(prov: &'a Provenance) -> Self {
        Gate {
            prov,
            first_digest: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn check(&mut self, rep: &Report) {
        self.attempted += 1;
        let mut bad = rep.ledger().violations();
        let d = rep.digest();
        match self.first_digest {
            None => self.first_digest = Some(d),
            Some(f) if f != d => bad.push(format!("digest {d:#018x} differs from {f:#018x}")),
            Some(_) => {}
        }
        if let Some(pin) = pinned_digest(&self.prov.workload, self.prov.seed) {
            if pin != d {
                bad.push(format!("digest {d:#018x} != pinned {pin:#018x}"));
            }
        }
        if !bad.is_empty() {
            self.failed += 1;
            self.problems.extend(bad);
        }
    }
}

/// The untraced run: whole-workload repetitions until the measurement
/// window is spent, each followed by a host-speed sample and its share
/// of the set-up reps. Host times are stated at quiet-host speed (see
/// `host`); the raw figures are printed in the notes.
pub fn run_end_to_end(prov: &Provenance, seconds: f64) -> Measured {
    let scen = Scenario::for_workload(&prov.workload, prov.seed).expect("known workload");
    let setup = scen.without_arrivals();
    let sensitivity = HOST_SENSITIVITY
        .iter()
        .find(|(w, _)| *w == prov.workload)
        .map_or(1.0, |&(_, s)| s);
    let mut gate = Gate::new(prov);
    let (mut walls, mut raw_rps, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_setup, mut setup_walls) = (Vec::new(), Vec::new());
    let mut slowdowns = Vec::new();
    let mut responses = Vec::new();
    let mut peak_mb = None;
    loop {
        let (rep, wall) = scen.timed_run(Recorder::disabled(), EngineMode::Serial);
        gate.check(&rep);
        walls.push(wall);
        raw_rps.push(rep.records() as f64 / wall);
        if responses.is_empty() {
            responses = rep.remote_response_ms();
        }
        drop(rep);
        // The peak of the first run, on a fresh heap: set-up reps
        // between later runs fragment the heap and would move it.
        peak_mb.get_or_insert_with(crate::stats::peak_rss_mb);
        // The host's speed right after the run scales the run.
        let slowdown = crate::host::slowdown(wall);
        slowdowns.push(slowdown);
        rps.push(raw_rps[raw_rps.len() - 1] * slowdown.powf(sensitivity));
        // Set-up reps follow each engine run, their share of the budget
        // kept in step with the window spent, so that one slow spell of
        // the machine does not decide `setup_s`.
        let spent: f64 = walls.iter().sum();
        let last = spent + median(&walls) > seconds;
        let due = SETUP_BUDGET_S * if last { 1.0 } else { spent / seconds };
        let batch_from = raw_setup.len();
        while (last && raw_setup.len() < SETUP_REPS.0)
            || (raw_setup.len() < SETUP_REPS.1 && raw_setup.iter().sum::<f64>() < due)
        {
            raw_setup.push(setup.timed_run(Recorder::disabled(), EngineMode::Serial).1);
        }
        // The host's speed before and after the batch scales it.
        let batch = &raw_setup[batch_from..];
        if !batch.is_empty() {
            let after = crate::host::slowdown(batch.iter().sum());
            let scale = (slowdown * after).sqrt();
            setup_walls.extend(batch.iter().map(|w| w / scale));
        }
        if last {
            break;
        }
    }

    let mut m = Metrics::default();
    m.put("throughput_rps", median(&rps));
    m.put("setup_s", median(&setup_walls));
    m.put("peak_rss_mb", peak_mb.unwrap_or(0.0));
    m.put("offload_p50_ms", quantile(&responses, 0.5).unwrap_or(0.0));
    m.put("offload_p95_ms", quantile(&responses, 0.95).unwrap_or(0.0));
    let notes = vec![
        format!(
            "host slowdown (reference {:.4} s quiet): median {:.3}, min {:.3}, max {:.3}; \
             raw throughput_rps {:.1}, raw setup_s {:.6}",
            crate::host::NOMINAL_S,
            median(&slowdowns),
            slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
            slowdowns.iter().copied().fold(0.0, f64::max),
            median(&raw_rps),
            median(&raw_setup)
        ),
        format!(
            "setup: {} reps, raw p10 {:.6} s, raw p90 {:.6} s",
            raw_setup.len(),
            quantile(&raw_setup, 0.1).unwrap_or(0.0),
            quantile(&raw_setup, 0.9).unwrap_or(0.0)
        ),
        format!(
            "reps {} (engine wall s: {})",
            walls.len(),
            walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "digest {:#018x}, remote samples {}",
            gate.first_digest.unwrap_or(0),
            responses.len()
        ),
    ];
    Measured {
        metrics: m,
        attempted: gate.attempted,
        failed: gate.failed,
        problems: gate.problems,
        notes,
    }
}

/// Every app with its App Warehouse key, the router's routing key.
pub fn aids() -> Vec<(WorkloadKind, Aid)> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| (k, aid_of(k.app_id())))
        .collect()
}

pub fn aid_for(aids: &[(WorkloadKind, Aid)], kind: WorkloadKind) -> &Aid {
    &aids.iter().find(|(k, _)| *k == kind).expect("every kind").1
}

/// Replay one routing decision per record through the public
/// `Router::route`: an affinity route as a warm hit, a hash or spill
/// route as a walk that only its final host admits, and a shed as a
/// walk every host refuses. Returns (calls, ring walks, affinity hits).
fn replay_fleet_routes(rep: &FleetReport, router: &Router) -> (u64, u64, u64) {
    let aids = aids();
    let (mut walks, mut affinity) = (0, 0);
    for r in &rep.records {
        let aid = aid_for(&aids, r.kind);
        let d = match (r.reason, r.host) {
            (Some(RouteReason::Affinity), Some(h)) => {
                affinity += 1;
                router.route(aid, &[h], |x| x == h)
            }
            (_, Some(h)) => {
                walks += 1;
                router.route(aid, &[], |x| x == h)
            }
            (_, None) => {
                walks += 1;
                router.route(aid, &[], |_| false)
            }
        };
        black_box(d);
    }
    (rep.records.len() as u64, walks, affinity)
}

/// One `Router` per geo cell, over the cell's whole host range.
fn cell_routers(topo: &Topology) -> Vec<Router> {
    (0..topo.n_cells())
        .map(|cell| {
            let mut r = Router::new(RING_VNODES);
            r.rebuild(&topo.hosts_in(cell).collect());
            r
        })
        .collect()
}

/// The geo replay of the in-cell `Router` alone, by the fleet rule; a
/// shed request walks every cell. Returns (calls, ring walks,
/// affinity hits).
fn replay_cell_routes(rep: &GeoReport, routers: &[Router]) -> (u64, u64, u64) {
    let aids = aids();
    let (mut walks, mut affinity) = (0, 0);
    for r in &rep.records {
        let aid = aid_for(&aids, r.kind);
        match (r.cell, r.host, r.reason) {
            (Some(c), Some(h), Some(RouteReason::Affinity)) => {
                affinity += 1;
                black_box(routers[c].route(aid, &[h], |x| x == h));
            }
            (Some(c), Some(h), _) => {
                walks += 1;
                black_box(routers[c].route(aid, &[], |x| x == h));
            }
            _ => {
                walks += 1;
                for router in routers {
                    black_box(router.route(aid, &[], |_| false));
                }
            }
        }
    }
    (rep.records.len() as u64, walks, affinity)
}

/// The geo replay of the whole `GeoRouter::route`: cell order by
/// latency and warmth, then in-cell routing, with only the record's
/// final host admitting.
fn replay_geo_routes(rep: &GeoReport, cfg: &GeoConfig, topo: &Topology, routers: &[Router]) {
    let aids = aids();
    let geo_router = GeoRouter::new(cfg.affinity_bonus);
    for r in &rep.records {
        let aid = aid_for(&aids, r.kind);
        let warm_cell = match r.reason {
            Some(RouteReason::Affinity) => r.cell,
            _ => None,
        };
        let d = geo_router.route(
            topo,
            r.region,
            aid,
            routers,
            |cell| match (warm_cell, r.host) {
                (Some(c), Some(h)) if c == cell => vec![h],
                _ => Vec::new(),
            },
            |x| Some(x) == r.host,
        );
        black_box(d);
    }
}

/// Median wall of rebuilding every ring of the workload's host set.
fn time_rebuilds(scen: &Scenario) -> f64 {
    let sets: Vec<BTreeSet<usize>> = match scen {
        Scenario::Fleet(c) => vec![(0..c.host_specs.len()).collect()],
        Scenario::Geo(c) => {
            let topo = Topology::new(c);
            (0..topo.n_cells())
                .map(|cell| topo.hosts_in(cell).collect())
                .collect()
        }
    };
    let walls: Vec<f64> = (0..5)
        .map(|_| {
            let mut r = Router::new(RING_VNODES);
            let t = Instant::now();
            for s in &sets {
                r.rebuild(s);
                black_box(&r);
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// The traced run: one set-up, one serial engine run, report
/// building, the router replays, a run with the program's own recorder
/// enabled, and a sharded run.
pub fn run_traced(prov: &Provenance, tracer: &mut Tracer) -> Measured {
    let scen = Scenario::for_workload(&prov.workload, prov.seed).expect("known workload");
    let hosts = scen.hosts();
    let mut gate = Gate::new(prov);
    let mut m = Metrics::default();

    let run_id = prov.seed;
    let run = tracer.begin("run", "bench", None, run_id);
    let root = Some(run);

    let s = tracer.begin("setup", "setup", root, run_id);
    let setup_wall = scen
        .without_arrivals()
        .timed_run(Recorder::disabled(), EngineMode::Serial)
        .1;
    let rb = tracer.begin("router.rebuild", "router", Some(s), run_id);
    let rebuild = time_rebuilds(&scen);
    tracer.end(rb);
    tracer.end(s);

    let s = tracer.begin("engine.serial", "engine", root, run_id);
    let (rep, wall) = scen.timed_run(Recorder::disabled(), EngineMode::Serial);
    tracer.end(s);
    let s = tracer.begin("check", "check", root, run_id);
    gate.check(&rep);
    tracer.end(s);

    let s = tracer.begin("report.summarize", "report", root, run_id);
    let summarize_s = match &rep {
        Report::Fleet(r) => {
            let (records, hosts_rep) = (r.records.clone(), r.hosts.clone());
            let t = Instant::now();
            black_box(FleetReport::summarize(
                records,
                r.control,
                hosts_rep,
                SimDuration::from_secs_f64(r.summary.duration_s),
            ));
            t.elapsed().as_secs_f64()
        }
        Report::Geo(r) => {
            let (records, hosts_rep, migs) =
                (r.records.clone(), r.hosts.clone(), r.migrations.clone());
            let t = Instant::now();
            black_box(GeoReport::summarize(
                records,
                r.control,
                hosts_rep,
                migs,
                r.summary.regions.len(),
                SimDuration::from_secs_f64(r.summary.duration_s),
            ));
            t.elapsed().as_secs_f64()
        }
    };
    tracer.end(s);
    let s = tracer.begin("report.digest", "report", root, run_id);
    let t = Instant::now();
    black_box(rep.digest());
    let digest_s = t.elapsed().as_secs_f64();
    tracer.end(s);

    let submitted = rep.records() as f64;
    let frac = |a: u64, b: f64| if b > 0.0 { a as f64 / b } else { 0.0 };
    match (&rep, &scen) {
        (Report::Fleet(r), _) => {
            let mut router = Router::new(RING_VNODES);
            router.rebuild(&(0..hosts).collect());
            let s = tracer.begin("router.replay", "router", root, run_id);
            let t = Instant::now();
            let (calls, walks, affinity) = replay_fleet_routes(r, &router);
            let busy = t.elapsed().as_secs_f64();
            tracer.end(s);
            router_metrics(&mut m, calls, walks, affinity, busy, wall);
            let c = &r.control;
            let routed = c.affinity_routes + c.hash_routes + c.spill_routes;
            m.put("admission.shed_frac", frac(c.shed, submitted));
            m.put("admission.spill_frac", frac(c.spill_routes, routed as f64));
            m.put("fleet.crash_reroutes", c.crash_reroutes as f64);
            m.put(
                "fleet.migrations_completed_frac",
                frac(c.migrations_completed, c.migrations_started as f64),
            );
        }
        (Report::Geo(r), Scenario::Geo(cfg)) => {
            let topo = Topology::new(cfg);
            let routers = cell_routers(&topo);
            let s = tracer.begin("router.replay", "router", root, run_id);
            let t = Instant::now();
            let (calls, walks, affinity) = replay_cell_routes(r, &routers);
            let in_cell = t.elapsed().as_secs_f64();
            tracer.end(s);
            let s = tracer.begin("geo.router.replay", "geo", root, run_id);
            let t = Instant::now();
            replay_geo_routes(r, cfg, &topo, &routers);
            let geo_s = t.elapsed().as_secs_f64();
            tracer.end(s);
            router_metrics(&mut m, calls, walks, affinity, in_cell, wall);
            let c = &r.control;
            let routed = c.affinity_routes + c.hash_routes + c.spill_routes;
            m.put("admission.shed_frac", frac(c.shed, submitted));
            m.put("admission.spill_frac", frac(c.spill_routes, routed as f64));
            m.put(
                "fleet.migrations_completed_frac",
                frac(c.migrations_completed, c.migrations_started as f64),
            );
            m.put(
                "geo.cross_region_frac",
                frac(c.cross_region_routes, routed as f64),
            );
            m.put("geo.bursts", c.bursts as f64);
            m.put("geo.migrations_completed", c.migrations_completed as f64);
            m.put("geo.wan_request_bytes", c.wan_request_bytes as f64);
            m.put("geo.double_admissions", c.double_admissions as f64);
            m.put("geo.router.busy_s", geo_s);
        }
        _ => unreachable!("reports match their scenario"),
    }
    let serial_digest = rep.digest();
    drop(rep);

    let s = tracer.begin("obsv.engine", "obsv", root, run_id);
    let rec = Recorder::enabled(RecorderConfig::default());
    let (rep, obsv_wall) = scen.timed_run(rec.clone(), EngineMode::Serial);
    tracer.end(s);
    gate.check(&rep);
    drop(rep);
    let snap = rec.snapshot();
    let mut per_subsystem = [0u64; Subsystem::ALL.len()];
    for ev in &snap.events {
        match ev {
            TraceEvent::Begin { subsystem, .. } | TraceEvent::Instant { subsystem, .. } => {
                per_subsystem[subsystem.index()] += 1
            }
            TraceEvent::End { .. } => {}
        }
    }
    drop(snap);
    drop(rec);

    // The sharded engine pays per sync window, so it runs on the
    // workload cut to its first SHARD_HORIZON_S simulated seconds,
    // against a serial run of the same cut.
    let threads = prov.nproc;
    let cut = scen.cut_to(SimDuration::from_secs(SHARD_HORIZON_S));
    let s = tracer.begin("engine.serial_cut", "engine", root, run_id);
    let (rep, cut_serial_wall) = cut.timed_run(Recorder::disabled(), EngineMode::Serial);
    tracer.end(s);
    let cut_digest = rep.digest();
    drop(rep);
    let s = tracer.begin("shard.engine", "shard", root, run_id);
    let (rep, shard_wall) = cut.timed_run(Recorder::disabled(), EngineMode::Sharded(threads));
    tracer.end(s);
    gate.attempted += 1;
    if rep.digest() != cut_digest {
        gate.failed += 1;
        gate.problems
            .push(format!("sharded:{threads} digest differs from serial"));
    }
    drop(rep);
    tracer.end(run);

    m.put("router.rebuild_s", rebuild);
    m.put("report.records", submitted);
    m.put("report.summarize_s", summarize_s);
    m.put("report.digest_s", digest_s);
    m.put("setup.s_per_host", setup_wall / hosts as f64);
    m.put("shard.threads_wall_s", shard_wall);
    m.put("shard.threads_over_serial", shard_wall / cut_serial_wall);
    m.put("obsv.traced_over_untraced", obsv_wall / wall);
    m.put("obsv.events", per_subsystem.iter().sum::<u64>() as f64);
    for sub in Subsystem::ALL {
        m.put(
            &format!("obsv.events.{}", sub.name()),
            per_subsystem[sub.index()] as f64,
        );
    }
    let notes = vec![
        format!("serial engine wall {wall:.3} s, recorder on {obsv_wall:.3} s"),
        format!("first {SHARD_HORIZON_S} s: serial {cut_serial_wall:.3} s, sharded:{threads} {shard_wall:.3} s"),
        format!("digest {serial_digest:#018x}"),
    ];
    Measured {
        metrics: m,
        attempted: gate.attempted,
        failed: gate.failed,
        problems: gate.problems,
        notes,
    }
}

/// The router replay's metrics; `wall` is the time the replayed calls
/// were part of (the engine's wall, or the handler's).
pub fn router_metrics(
    m: &mut Metrics,
    calls: u64,
    walks: u64,
    affinity: u64,
    busy: f64,
    wall: f64,
) {
    m.put("router.calls", calls as f64);
    m.put("router.ring_walks", walks as f64);
    m.put("router.busy_s", busy);
    m.put(
        "router.ns_per_call",
        if calls > 0 {
            busy * 1e9 / calls as f64
        } else {
            0.0
        },
    );
    m.put("router.wall_share", busy / wall);
    m.put(
        "router.affinity_frac",
        if calls > 0 {
            affinity as f64 / calls as f64
        } else {
            0.0
        },
    );
}
