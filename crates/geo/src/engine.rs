//! The geo engine: a multi-region topology of fleet cells under one
//! sharded discrete-event runtime.
//!
//! **LP 0 is the geo control plane** — the latency-aware
//! [`GeoRouter`], global admission control, one credit-damped
//! autoscaler and warm-hint map per cell, the per-pair WAN fabrics,
//! and the follow-the-sun rebalancer. **LP `g + 1` is global host
//! `g`** — an unmodified `fleet` host shard ([`fleet::engine::HostLp`])
//! running under its cell's synthesized [`fleet::FleetConfig`]. The
//! wire protocol between control and hosts is the fleet's own
//! [`Wire`], so every host-side mechanism (warm pools, code loading,
//! checkpoint/restore migration, drains) works unchanged across
//! regions.
//!
//! Cross-region traffic pays for distance twice: requests served away
//! from their home edge add the WAN round trip plus a bandwidth term
//! to their upload and download, and migration state is charged
//! through the shared per-pair fabric before the propagation delay.
//! Everything is seeded-deterministic: serial and sharded runs of the
//! same [`GeoConfig`] produce bit-identical [`GeoReport`]s.

use crate::config::{GeoConfig, Topology};
use crate::report::{
    GeoControlStats, GeoHostReport, GeoMigrationRecord, GeoReport, GeoRequestRecord,
    GeoScenarioStats,
};
use crate::router::GeoRouter;
use fleet::engine::{HostLp, HostOut, Wire};
use fleet::{AdmissionCtl, Autoscaler, FleetAction, Rebalancer, RouteReason, Router};
use netsim::{Direction, Link, SharedLink};
use obsv::{attrs, AttrValue, Recorder, SpanId, Subsystem, TraceSnapshot};
use rattrap::warehouse::{aid_of, Aid};
use rattrap::Phase;
use scenario::ScenarioDriver;
use simkit::shard::{run_sharded, Lp, Outbox, ShardMode};
use simkit::{derive_seed, EventQueue, SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;
use std::sync::Arc;
use virt::migrate::Checkpoint;
use workloads::WorkloadKind;

pub use fleet::EngineMode;

/// Virtual nodes per host on each cell's consistent-hash ring.
const RING_VNODES: usize = 64;

/// Derived-stream tags (master seed × tag → independent stream).
const STREAM_TRAFFIC: u64 = 1;
const STREAM_APPS: u64 = 2;
const STREAM_NET: u64 = 3;
const STREAM_SVC: u64 = 4;
/// Matches fleet's scenario stream tag, so a spec compiled at the geo
/// level draws from the same derived-stream family.
const STREAM_SCENARIO: u64 = 7;

/// The LP index of the geo control plane.
const CTL: usize = 0;

/// Where a host sits in its lifecycle (geo control-plane view). Geo
/// injects no crashes — hosts move between serving, powering on,
/// draining, and standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostStatus {
    Active,
    Booting,
    Draining,
    Standby,
}

/// Geo control-plane events.
#[derive(Debug)]
enum GeoCtlEvent {
    /// One trace arrival from `user` (global index).
    Arrive { user: u32, kind: WorkloadKind },
    /// Request payload finished uploading (access link + WAN leg).
    UploadDone { req: usize, rgen: u32 },
    /// Result reached the device.
    DownloadDone { req: usize, rgen: u32 },
    /// On-device (fallback) execution finished.
    LocalDone { req: usize },
    /// A booting host becomes routable.
    HostUp { host: usize, hgen: u64 },
    /// Schedule point of one WAN-pair fabric.
    FabricPoll { pair: usize, epoch: u64 },
    /// Migration state finished its post-fabric propagation delay.
    WanArrive { mig: usize },
    /// Control-loop tick: observe every cell, scale, burst, rebalance.
    Scan,
    /// A host message crossed the window boundary.
    Deliver { src: usize, msg: Wire },
}

/// One request's geo control-plane state.
#[derive(Debug)]
struct ReqState {
    user: u32,
    region: usize,
    kind: WorkloadKind,
    task: workloads::TaskRequest,
    arrival: SimTime,
    finished: SimTime,
    phase: Phase,
    fell_back: bool,
    cell: Option<usize>,
    host: Option<usize>,
    cross_region: bool,
    attempts: u32,
    reason: Option<RouteReason>,
    /// Whether the request currently holds an admission slot — the
    /// geo-single-admission invariant's ground truth.
    holding: bool,
    gen: u32,
}

/// Per-host geo control state.
struct HostSlot {
    cell: usize,
    status: HostStatus,
    gen: u64,
    migrations_out: u64,
    migrations_in: u64,
    scale_span: SpanId,
}

/// Per-cell control state: its ring, its scaler, its warm hints.
struct CellState {
    autoscaler: Autoscaler,
    /// Hosts (global) believed warm per workload, maintained from
    /// [`Wire::WarmInfo`] flips.
    warm: Vec<BTreeSet<usize>>,
}

/// An in-flight cross-cell migration (control side).
struct MigSlot {
    rec: GeoMigrationRecord,
    ckpt: Option<Box<Checkpoint>>,
    gen_to: u64,
}

struct GeoControlLp {
    cfg: Arc<GeoConfig>,
    topo: Topology,
    rec: Recorder,
    queue: EventQueue<GeoCtlEvent>,
    hosts: Vec<HostSlot>,
    cells: Vec<CellState>,
    /// Per-cell consistent-hash rings over global host indices.
    routers: Vec<Router>,
    geo_router: GeoRouter,
    admission: AdmissionCtl,
    rebalancer: Rebalancer,
    /// One shared fabric per unordered cell pair.
    fabrics: Vec<SharedLink<usize>>,
    /// Per-region device access link (the edge tier's radio).
    links: Vec<Link>,
    reqs: Vec<ReqState>,
    migs: Vec<MigSlot>,
    control: GeoControlStats,
    aids: Vec<Aid>,
    /// First global user index of each region.
    user_base: Vec<u32>,
    /// Compiled scenario plan, if the config carries one.
    driver: Option<ScenarioDriver>,
    /// Scenario conservation counters: (injected, submitted, suppressed).
    scn: (u64, u64, u64),
    rng_svc: SimRng,
    net_root: u64,
    horizon: SimTime,
    outstanding: usize,
}

fn kind_ix(kind: WorkloadKind) -> usize {
    WorkloadKind::ALL
        .into_iter()
        .position(|k| k == kind)
        .expect("kind is one of ALL")
}

impl GeoControlLp {
    fn new(cfg: Arc<GeoConfig>, topo: Topology, rec: Recorder) -> Self {
        let mut master = SimRng::new(cfg.seed);
        let net_root = derive_seed(cfg.seed, STREAM_NET);
        let rng_svc = master.fork(STREAM_SVC);

        let hosts: Vec<HostSlot> = (0..topo.n_hosts())
            .map(|g| {
                let cell = topo.cell_of_host(g);
                let active = topo.local_index(g) < cfg.tier(cell).initial_active;
                HostSlot {
                    cell,
                    status: if active {
                        HostStatus::Active
                    } else {
                        HostStatus::Standby
                    },
                    gen: 0,
                    migrations_out: 0,
                    migrations_in: 0,
                    scale_span: SpanId::NONE,
                }
            })
            .collect();

        let cells: Vec<CellState> = (0..topo.n_cells())
            .map(|cell| CellState {
                autoscaler: Autoscaler::new(cfg.tier(cell).autoscale),
                warm: vec![BTreeSet::new(); WorkloadKind::ALL.len()],
            })
            .collect();
        let mut routers: Vec<Router> = (0..topo.n_cells())
            .map(|_| Router::new(RING_VNODES))
            .collect();
        for (cell, router) in routers.iter_mut().enumerate() {
            router.rebuild(
                &topo
                    .hosts_in(cell)
                    .filter(|&g| hosts[g].status == HostStatus::Active)
                    .collect(),
            );
        }

        let admission = AdmissionCtl::new(topo.n_hosts(), cfg.admission_capacity);
        let rebalancer = Rebalancer::new(cfg.rebalance);
        let fabrics: Vec<SharedLink<usize>> = {
            let mut fabrics = Vec::with_capacity(topo.n_pairs());
            for a in 0..topo.n_cells() {
                for b in a..topo.n_cells() {
                    debug_assert_eq!(topo.pair_index(a, b), fabrics.len());
                    let bps = topo.cell_bps(a, b);
                    let mut fab = SharedLink::new(bps, bps);
                    fab.eager_check_cancel();
                    fabrics.push(fab);
                }
            }
            fabrics
        };
        let links: Vec<Link> = cfg
            .regions
            .iter()
            .map(|r| Link::new(r.edge.scenario))
            .collect();
        let mut user_base = Vec::with_capacity(cfg.regions.len());
        let mut base = 0u32;
        for r in &cfg.regions {
            user_base.push(base);
            base += r.users;
        }
        let driver = cfg.scenario_plan.as_ref().map(|spec| {
            ScenarioDriver::compile(spec, base, derive_seed(cfg.seed, STREAM_SCENARIO))
        });
        let horizon = SimTime::ZERO.saturating_add(cfg.traffic.duration);
        let aids: Vec<Aid> = WorkloadKind::ALL
            .iter()
            .map(|k| aid_of(k.app_id()))
            .collect();
        let geo_router = GeoRouter::new(cfg.affinity_bonus);

        let mut lp = GeoControlLp {
            cfg,
            topo,
            rec,
            queue: EventQueue::new(),
            hosts,
            cells,
            routers,
            geo_router,
            admission,
            rebalancer,
            fabrics,
            links,
            reqs: Vec::new(),
            migs: Vec::new(),
            control: GeoControlStats::default(),
            aids,
            user_base,
            driver,
            scn: (0, 0, 0),
            rng_svc,
            net_root,
            horizon,
            outstanding: 0,
        };
        lp.seed_events();
        lp
    }

    /// Seed arrivals region by region. Each region draws its own
    /// derived trace stream, phase-shifted by its timezone — the sun
    /// follows the regions around the ring.
    fn seed_events(&mut self) {
        let total_users: u32 = self.cfg.regions.iter().map(|r| r.users).sum();
        let mut rng_apps = SimRng::new(derive_seed(self.cfg.seed, STREAM_APPS));
        let weights = self.cfg.app_weights();
        let mut user_app: Vec<WorkloadKind> = (0..total_users)
            .map(|_| WorkloadKind::ALL[rng_apps.weighted_index(&weights)])
            .collect();
        if let Some(d) = &self.driver {
            for (u, app) in user_app.iter_mut().enumerate() {
                if let Some(k) = d.base_kind_override(u as u32) {
                    *app = k;
                }
            }
        }

        for (r, region) in self.cfg.regions.iter().enumerate() {
            let mut traffic = self.cfg.traffic.clone();
            traffic.users = region.users;
            traffic.seed = derive_seed(derive_seed(self.cfg.seed, STREAM_TRAFFIC), r as u64);
            let start_hour = 8.0 + region.tz_offset_h;
            let arrivals = traces::livelab::generate_with_start(&traffic, start_hour);
            for (u, times) in arrivals.into_iter().enumerate() {
                let user = self.user_base[r] + u as u32;
                for t in times {
                    self.queue.schedule(
                        t,
                        GeoCtlEvent::Arrive {
                            user,
                            kind: user_app[user as usize],
                        },
                    );
                }
            }
        }

        // Scenario injection: compiled arrivals enter as ordinary
        // `Arrive` events through the control queue, so serial and
        // sharded runs see an identical event stream. Synthetic users
        // (flash-crowd extras, storm containers) fold onto the real
        // population so `region_of_user` stays valid.
        if let Some(d) = &self.driver {
            self.scn.0 = d.injected();
            for a in d.arrivals() {
                if a.offload {
                    self.scn.1 += 1;
                    self.queue.schedule(
                        a.at,
                        GeoCtlEvent::Arrive {
                            user: a.user % total_users,
                            kind: a.kind,
                        },
                    );
                } else {
                    self.scn.2 += 1;
                }
            }
        }

        self.queue
            .schedule_in(self.cfg.scan_interval(), GeoCtlEvent::Scan);
    }

    /// Independent network stream for one request (fleet's scheme).
    fn req_rng(&self, req: usize, tag: u64) -> SimRng {
        SimRng::new(derive_seed(derive_seed(self.net_root, req as u64), tag))
    }

    fn region_of_user(&self, user: u32) -> usize {
        self.user_base.partition_point(|&b| b <= user) - 1
    }

    fn dispatch(&mut self, now: SimTime, ev: GeoCtlEvent, out: &mut Outbox<Wire>) {
        match ev {
            GeoCtlEvent::Arrive { user, kind } => self.on_arrive(now, user, kind),
            GeoCtlEvent::UploadDone { req, rgen } => self.on_upload_done(now, req, rgen, out),
            GeoCtlEvent::DownloadDone { req, rgen } => {
                if !self.stale(req, rgen) {
                    self.finish(now, req, Phase::Done);
                }
            }
            GeoCtlEvent::LocalDone { req } => self.finish(now, req, Phase::Done),
            GeoCtlEvent::HostUp { host, hgen } => self.on_host_up(now, host, hgen, out),
            GeoCtlEvent::FabricPoll { pair, epoch } => self.on_fabric_poll(now, pair, epoch),
            GeoCtlEvent::WanArrive { mig } => self.on_wan_arrive(now, mig, out),
            GeoCtlEvent::Scan => self.on_scan(now, out),
            GeoCtlEvent::Deliver { src, msg } => self.on_msg(now, src, msg, out),
        }
    }

    fn on_msg(&mut self, now: SimTime, src: usize, msg: Wire, out: &mut Outbox<Wire>) {
        let h = src - 1;
        match msg {
            Wire::Done { req, rgen } => self.on_done(now, req, rgen),
            Wire::WarmInfo { kind_ix, warm } => {
                let cell = self.hosts[h].cell;
                if warm {
                    self.cells[cell].warm[kind_ix].insert(h);
                } else {
                    self.cells[cell].warm[kind_ix].remove(&h);
                }
            }
            Wire::DrainEmpty => {
                if self.hosts[h].status == HostStatus::Draining && self.admission.depth(h) == 0 {
                    self.hosts[h].status = HostStatus::Standby;
                    out.send(now, src, Wire::FinishDrain);
                }
            }
            Wire::MigState { dst, ckpt } => self.on_mig_state(now, h, dst, ckpt),
            Wire::MigLanded { mig, bytes } => self.on_mig_landed(now, mig, bytes),
            _ => unreachable!("control-bound message"),
        }
    }

    // ----------------------------------------------------- request intake

    fn on_arrive(&mut self, now: SimTime, user: u32, kind: WorkloadKind) {
        let task = kind.profile().sample(&mut self.rng_svc);
        let req = self.reqs.len();
        self.reqs.push(ReqState {
            user,
            region: self.region_of_user(user),
            kind,
            task,
            arrival: now,
            finished: now,
            phase: Phase::Dispatch,
            fell_back: false,
            cell: None,
            host: None,
            cross_region: false,
            attempts: 1,
            reason: None,
            holding: false,
            gen: 0,
        });
        self.outstanding += 1;
        self.rec.set_current_request(Some(req as u64));
        self.route_request(now, req);
    }

    /// Route `req` through the geo router: pick a cell by latency and
    /// warmth, a host by the cell's own ring, admit, and start the
    /// upload — or shed to the resilience layer.
    fn route_request(&mut self, now: SimTime, req: usize) {
        let kix = kind_ix(self.reqs[req].kind);
        let aid = &self.aids[kix];
        let region = self.reqs[req].region;
        let warm_lists: Vec<Vec<usize>> = (0..self.topo.n_cells())
            .map(|cell| {
                self.cells[cell].warm[kix]
                    .iter()
                    .copied()
                    .filter(|&g| self.hosts[g].status == HostStatus::Active)
                    .collect()
            })
            .collect();
        let hosts = &self.hosts;
        let admission = &self.admission;
        let decision = self.geo_router.route(
            &self.topo,
            region,
            aid,
            &self.routers,
            |cell| warm_lists[cell].as_slice(),
            |g| hosts[g].status == HostStatus::Active && admission.has_room(g),
        );
        match decision {
            Some(d) => {
                // The single-admission invariant's ground truth: a
                // request must never hold two slots at once, however
                // it spilled across regions.
                if self.reqs[req].holding {
                    self.control.double_admissions += 1;
                }
                assert!(
                    self.admission.admit(d.host),
                    "geo router picked a full host"
                );
                self.reqs[req].holding = true;
                match d.reason {
                    RouteReason::Affinity => self.control.affinity_routes += 1,
                    RouteReason::Hash => self.control.hash_routes += 1,
                    RouteReason::Spill => self.control.spill_routes += 1,
                }
                if d.cross_region {
                    self.control.cross_region_routes += 1;
                }
                self.reqs[req].cell = Some(d.cell);
                self.reqs[req].host = Some(d.host);
                self.reqs[req].cross_region = d.cross_region;
                self.reqs[req].reason = Some(d.reason);
                if self.rec.is_enabled() {
                    self.rec.instant(
                        Subsystem::Geo,
                        "route",
                        attrs![
                            ("cell", AttrValue::U64(d.cell as u64)),
                            ("region", AttrValue::U64(region as u64)),
                            ("host", AttrValue::U64(d.host as u64)),
                            ("reason", AttrValue::Str(d.reason.label())),
                            ("cross_region", AttrValue::Bool(d.cross_region)),
                        ],
                    );
                }
                self.begin_upload(now, req);
            }
            None => self.shed(now, req),
        }
    }

    /// Upload = the device's access radio plus the WAN leg toward the
    /// serving cell (zero when the home edge serves it).
    fn begin_upload(&mut self, now: SimTime, req: usize) {
        self.reqs[req].phase = Phase::DataTransferUp;
        let bytes = self.reqs[req].task.control_bytes + self.reqs[req].task.payload_bytes;
        let mut rng = self.req_rng(req, 10 + self.reqs[req].attempts as u64);
        let region = self.reqs[req].region;
        let cell = self.reqs[req].cell.expect("routed");
        let mut t = self.links[region].connect_time(&mut rng)
            + self.links[region].transfer_time(bytes, Direction::Upload, &mut rng);
        t += self.wan_leg(region, cell, bytes);
        let rgen = self.reqs[req].gen;
        self.queue
            .schedule(now.saturating_add(t), GeoCtlEvent::UploadDone { req, rgen });
    }

    /// The WAN contribution of serving `region`'s device from `cell`:
    /// the extra round trip plus the payload over the shared leg.
    fn wan_leg(&mut self, region: usize, cell: usize, bytes: u64) -> SimDuration {
        let rtt = self.topo.device_rtt(region, cell);
        match self.topo.device_bps(region, cell) {
            None => SimDuration::ZERO,
            Some(bps) => {
                self.control.wan_request_bytes += bytes;
                rtt + SimDuration::from_secs_f64(bytes as f64 / bps)
            }
        }
    }

    fn shed(&mut self, now: SimTime, req: usize) {
        self.control.shed += 1;
        self.admission.count_shed();
        self.reqs[req].cell = None;
        self.reqs[req].host = None;
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Geo,
                "shed",
                attrs![("region", AttrValue::U64(self.reqs[req].region as u64))],
            );
        }
        if self.cfg.resilience.fallback_local {
            self.reqs[req].fell_back = true;
            self.reqs[req].phase = Phase::FallbackLocal;
            let device = self.cfg.regions[self.reqs[req].region].device;
            let t = device.local_execution_time(self.reqs[req].task.compute);
            self.queue
                .schedule(now.saturating_add(t), GeoCtlEvent::LocalDone { req });
        } else {
            self.finish(now, req, Phase::Abandoned);
        }
    }

    fn stale(&self, req: usize, rgen: u32) -> bool {
        self.reqs[req].gen != rgen || self.reqs[req].phase.is_terminal()
    }

    // ------------------------------------------------- service hand-off

    fn on_upload_done(&mut self, now: SimTime, req: usize, rgen: u32, out: &mut Outbox<Wire>) {
        if self.stale(req, rgen) {
            return;
        }
        self.rec.set_current_request(Some(req as u64));
        self.reqs[req].phase = Phase::RuntimePrep;
        let g = self.reqs[req].host.expect("routed");
        let req_seed = derive_seed(self.net_root, req as u64);
        out.send(
            now,
            g + 1,
            Wire::Start {
                req,
                rgen,
                task: self.reqs[req].task,
                xfer_seed: derive_seed(req_seed, 1000 + self.reqs[req].attempts as u64),
            },
        );
    }

    fn on_done(&mut self, now: SimTime, req: usize, rgen: u32) {
        if self.stale(req, rgen) {
            return;
        }
        self.rec.set_current_request(Some(req as u64));
        let g = self.reqs[req].host.expect("routed");
        debug_assert!(self.reqs[req].holding, "done without an admission slot");
        self.admission.release(g);
        self.reqs[req].holding = false;
        self.reqs[req].phase = Phase::DataTransferDown;
        let mut rng = self.req_rng(req, 1);
        let region = self.reqs[req].region;
        let cell = self.reqs[req].cell.expect("routed");
        let bytes = self.reqs[req].task.result_bytes;
        let mut t = self.links[region].transfer_time(bytes, Direction::Download, &mut rng);
        t += self.wan_leg(region, cell, bytes);
        self.queue.schedule(
            now.saturating_add(t),
            GeoCtlEvent::DownloadDone { req, rgen },
        );
    }

    fn finish(&mut self, now: SimTime, req: usize, phase: Phase) {
        debug_assert!(phase.is_terminal());
        self.rec.set_current_request(Some(req as u64));
        self.reqs[req].phase = phase;
        self.reqs[req].finished = now;
        self.outstanding -= 1;
        self.rec.set_current_request(None);
    }

    // ----------------------------------------------------------- scaling

    fn on_host_up(&mut self, now: SimTime, host: usize, hgen: u64, out: &mut Outbox<Wire>) {
        if self.hosts[host].gen != hgen || self.hosts[host].status != HostStatus::Booting {
            return;
        }
        self.hosts[host].status = HostStatus::Active;
        if self.hosts[host].scale_span != SpanId::NONE {
            self.rec.span_end_at(
                self.hosts[host].scale_span,
                now.as_micros(),
                attrs![("host", AttrValue::U64(host as u64))],
            );
            self.hosts[host].scale_span = SpanId::NONE;
        }
        self.rebuild_ring(self.hosts[host].cell);
        out.send(now, host + 1, Wire::Online);
    }

    /// Power on the first standby host of `cell`, on the tier's own
    /// boot clock. Returns whether a standby existed.
    fn activate_standby_in(&mut self, now: SimTime, cell: usize) -> bool {
        let Some(host) = self
            .topo
            .hosts_in(cell)
            .find(|&g| self.hosts[g].status == HostStatus::Standby)
        else {
            return false;
        };
        self.hosts[host].status = HostStatus::Booting;
        if self.rec.is_enabled() {
            self.hosts[host].scale_span = self.rec.span_start_at(
                Subsystem::Geo,
                "scale_up",
                SpanId::NONE,
                now.as_micros(),
                attrs![
                    ("host", AttrValue::U64(host as u64)),
                    ("cell", AttrValue::U64(cell as u64)),
                ],
            );
        }
        let hgen = self.hosts[host].gen;
        let boot = self.cfg.tier(cell).autoscale.host_boot;
        self.queue
            .schedule(now.saturating_add(boot), GeoCtlEvent::HostUp { host, hgen });
        true
    }

    fn drain(&mut self, now: SimTime, victim: usize, out: &mut Outbox<Wire>) {
        let cell = self.hosts[victim].cell;
        if self.hosts[victim].status != HostStatus::Active || self.cell_active(cell).len() < 2 {
            return;
        }
        self.hosts[victim].status = HostStatus::Draining;
        self.control.drains += 1;
        self.cells[cell].autoscaler.forget(victim);
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Geo,
                "drain",
                attrs![
                    ("host", AttrValue::U64(victim as u64)),
                    ("cell", AttrValue::U64(cell as u64)),
                ],
            );
        }
        self.rebuild_ring(cell);
        out.send(now, victim + 1, Wire::Drain);
    }

    /// The control loop: per-cell observation and scaling (with
    /// cloud-burst loans from edge to core), then the follow-the-sun
    /// rebalancer across edge PoPs.
    fn on_scan(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        self.rec.set_current_request(None);
        for cell in 0..self.topo.n_cells() {
            let active = self.cell_active(cell);
            for &g in &active {
                let depth = self.admission.depth(g) as u32;
                self.cells[cell].autoscaler.observe(g, depth);
            }
            let saturation = if active.is_empty() {
                0.0
            } else {
                active
                    .iter()
                    .map(|&g| self.admission.utilization(g))
                    .sum::<f64>()
                    / active.len() as f64
            };
            let standby_here = self
                .topo
                .hosts_in(cell)
                .any(|g| self.hosts[g].status == HostStatus::Standby);
            // Cloud-burst: a saturated edge PoP with no spare of its
            // own may borrow a standby from its region's core.
            let region = self.topo.region_of_cell(cell);
            let core = self.topo.core_cell(region);
            let burstable = self.topo.is_edge(cell)
                && self
                    .topo
                    .hosts_in(core)
                    .any(|g| self.hosts[g].status == HostStatus::Standby);
            let plan = self.cells[cell].autoscaler.plan(
                now,
                saturation,
                &active,
                standby_here || burstable,
            );
            match plan {
                Some(FleetAction::Activate) => {
                    if standby_here {
                        if self.activate_standby_in(now, cell) {
                            self.control.scale_ups += 1;
                        }
                    } else if burstable && self.activate_standby_in(now, core) {
                        self.control.bursts += 1;
                        if self.rec.is_enabled() {
                            self.rec.instant(
                                Subsystem::Geo,
                                "burst",
                                attrs![
                                    ("edge_cell", AttrValue::U64(cell as u64)),
                                    ("core_cell", AttrValue::U64(core as u64)),
                                ],
                            );
                        }
                    }
                }
                Some(FleetAction::Drain(victim)) => self.drain(now, victim, out),
                None => {}
            }
        }

        // Follow the sun: when the busiest edge host runs far hotter
        // than the idlest one anywhere on the ring, ship a warm
        // container toward the cold side over the WAN fabric.
        if let Some((hot, cold, gap)) = self.edge_hot_cold() {
            if let Some(mv) = self.rebalancer.plan(now, Some((hot, cold, gap))) {
                if self.hosts[mv.to].status == HostStatus::Active {
                    out.send(now, mv.from + 1, Wire::MigOut { dst: mv.to });
                }
            }
        }

        if now < self.horizon || self.outstanding > 0 {
            self.queue
                .schedule_in(self.cfg.scan_interval(), GeoCtlEvent::Scan);
        } else {
            for g in 0..self.hosts.len() {
                out.send(now, g + 1, Wire::Shutdown);
            }
        }
    }

    /// Hottest and coldest active edge host across every region, by
    /// each cell's own smoothed busy-fraction. Ties break toward the
    /// lowest host index.
    fn edge_hot_cold(&self) -> Option<(usize, usize, f64)> {
        let capacity = self.admission.capacity() as f64;
        let mut fracs: Vec<(usize, f64)> = Vec::new();
        for region in 0..self.topo.n_regions() {
            let cell = self.topo.edge_cell(region);
            for g in self.topo.hosts_in(cell) {
                if self.hosts[g].status == HostStatus::Active {
                    fracs.push((g, self.cells[cell].autoscaler.load_of(g) / capacity));
                }
            }
        }
        if fracs.len() < 2 {
            return None;
        }
        let &(hot, hi) = fracs
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
            .expect("non-empty");
        let &(cold, lo) = fracs
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
            .expect("non-empty");
        if hot == cold {
            return None;
        }
        Some((hot, cold, hi - lo))
    }

    // ----------------------------------------------------------- migration

    /// A source host serialized a container: charge the state through
    /// the WAN fabric of the cell pair, then let it propagate.
    fn on_mig_state(&mut self, now: SimTime, from: usize, dst: usize, ckpt: Box<Checkpoint>) {
        if self.hosts[dst].status != HostStatus::Active {
            return; // destination left the topology while the state froze
        }
        let bytes_src = ckpt.state_bytes();
        let from_cell = self.hosts[from].cell;
        let to_cell = self.hosts[dst].cell;
        let pair = self.topo.pair_index(from_cell, to_cell);
        let mig = self.migs.len();
        self.migs.push(MigSlot {
            rec: GeoMigrationRecord {
                from_host: from,
                to_host: dst,
                from_cell,
                to_cell,
                bytes_src,
                // The fabric is charged exactly what the source
                // serialized; the conservation invariant holds this to
                // the destination's measurement.
                bytes_wire: bytes_src,
                bytes_dst: 0,
                completed: false,
            },
            ckpt: Some(ckpt),
            gen_to: self.hosts[dst].gen,
        });
        self.control.migrations_started += 1;
        self.rebalancer.committed(now);
        self.fabrics[pair].begin_transfer(now, bytes_src, mig);
        self.fabrics[pair].reschedule(now, &mut self.queue, |epoch| GeoCtlEvent::FabricPoll {
            pair,
            epoch,
        });
    }

    fn on_fabric_poll(&mut self, now: SimTime, pair: usize, epoch: u64) {
        let Some(finished) = self.fabrics[pair].poll(now, epoch) else {
            return;
        };
        for (_, mig) in finished {
            // Serialization drained through the fabric; the state
            // still rides the propagation delay of the pair.
            let rtt = self
                .topo
                .cell_rtt(self.migs[mig].rec.from_cell, self.migs[mig].rec.to_cell);
            self.queue
                .schedule(now.saturating_add(rtt), GeoCtlEvent::WanArrive { mig });
        }
        self.fabrics[pair].reschedule(now, &mut self.queue, |epoch| GeoCtlEvent::FabricPoll {
            pair,
            epoch,
        });
    }

    fn on_wan_arrive(&mut self, now: SimTime, mig: usize, out: &mut Outbox<Wire>) {
        let to = self.migs[mig].rec.to_host;
        if self.hosts[to].gen != self.migs[mig].gen_to
            || self.hosts[to].status != HostStatus::Active
        {
            return; // destination drained mid-flight; the move is orphaned
        }
        let ckpt = self.migs[mig].ckpt.take().expect("delivered once");
        out.send(now, to + 1, Wire::MigIn { mig, ckpt });
    }

    /// The destination restored the container; `bytes` is what it
    /// measured while restoring — the conservation check's third leg.
    fn on_mig_landed(&mut self, now: SimTime, mig: usize, bytes: u64) {
        let _ = now;
        self.migs[mig].rec.bytes_dst = bytes;
        self.migs[mig].rec.completed = true;
        let m = self.migs[mig].rec;
        self.hosts[m.from_host].migrations_out += 1;
        self.hosts[m.to_host].migrations_in += 1;
        self.control.migrations_completed += 1;
        self.control.migration_bytes += bytes;
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Geo,
                "migration_done",
                attrs![
                    ("from_cell", AttrValue::U64(m.from_cell as u64)),
                    ("to_cell", AttrValue::U64(m.to_cell as u64)),
                    ("state_bytes", AttrValue::U64(bytes)),
                ],
            );
        }
    }

    // ------------------------------------------------------------- helpers

    fn cell_active(&self, cell: usize) -> BTreeSet<usize> {
        self.topo
            .hosts_in(cell)
            .filter(|&g| self.hosts[g].status == HostStatus::Active)
            .collect()
    }

    fn rebuild_ring(&mut self, cell: usize) {
        let active = self.cell_active(cell);
        self.routers[cell].rebuild(&active);
    }

    fn finish_lp(self) -> GeoCtlOut {
        self.rec.set_current_request(None);
        let records: Vec<GeoRequestRecord> = self
            .reqs
            .iter()
            .enumerate()
            .map(|(i, r)| GeoRequestRecord {
                id: i as u64,
                user: r.user,
                region: r.region,
                kind: r.kind,
                arrival: r.arrival,
                finished: r.finished,
                phase: r.phase,
                fell_back: r.fell_back,
                cell: r.cell,
                host: r.host,
                cross_region: r.cross_region,
                attempts: r.attempts,
                reason: r.reason,
            })
            .collect();
        let scenario = self.driver.as_ref().map(|d| GeoScenarioStats {
            name: d.name().to_string(),
            injected: self.scn.0,
            submitted: self.scn.1,
            suppressed: self.scn.2,
        });
        GeoCtlOut {
            records,
            control: self.control,
            scenario,
            host_migs: self
                .hosts
                .iter()
                .map(|h| (h.migrations_out, h.migrations_in))
                .collect(),
            migrations: self.migs.into_iter().map(|m| m.rec).collect(),
            snapshot: self.rec.snapshot(),
        }
    }
}

// ====================================================================
// LP plumbing
// ====================================================================

enum GeoLp {
    Ctl(Box<GeoControlLp>),
    Host(Box<HostLp>),
}

impl Lp for GeoLp {
    type Msg = Wire;

    fn next_time(&mut self) -> Option<SimTime> {
        match self {
            GeoLp::Ctl(lp) => lp.queue.peek_time(),
            GeoLp::Host(lp) => lp.next_time(),
        }
    }

    fn run_window(&mut self, bound: SimTime, out: &mut Outbox<Wire>) {
        match self {
            GeoLp::Ctl(lp) => {
                while lp.queue.peek_time().is_some_and(|t| t < bound) {
                    let (now, ev) = lp.queue.pop().expect("peeked");
                    lp.rec.set_now(now.as_micros());
                    lp.dispatch(now, ev, out);
                }
            }
            GeoLp::Host(lp) => lp.run_window(bound, out),
        }
    }

    fn accept(&mut self, at: SimTime, src: usize, msg: Wire) {
        match self {
            GeoLp::Ctl(lp) => {
                lp.queue.schedule(at, GeoCtlEvent::Deliver { src, msg });
            }
            GeoLp::Host(lp) => {
                let _ = src; // hosts only hear from control
                lp.accept(at, msg);
            }
        }
    }
}

struct GeoCtlOut {
    records: Vec<GeoRequestRecord>,
    control: GeoControlStats,
    scenario: Option<GeoScenarioStats>,
    /// Per host: (migrations_out, migrations_in).
    host_migs: Vec<(u64, u64)>,
    migrations: Vec<GeoMigrationRecord>,
    snapshot: TraceSnapshot,
}

enum GeoLpOut {
    Ctl(GeoCtlOut),
    Host(HostOut),
}

// ====================================================================
// Entry points
// ====================================================================

/// Run a geo scenario to completion (untraced, serial).
pub fn run_geo(cfg: &GeoConfig) -> GeoReport {
    run_geo_with(cfg, Recorder::disabled(), EngineMode::Serial)
}

/// Run a geo scenario with an observability recorder attached.
/// Recording must not perturb the simulation: the report digest is
/// identical with a disabled recorder.
pub fn run_geo_traced(cfg: &GeoConfig, rec: Recorder) -> GeoReport {
    run_geo_with(cfg, rec, EngineMode::Serial)
}

/// Run a geo scenario under an explicit [`EngineMode`]. All modes and
/// thread counts produce bit-identical reports.
pub fn run_geo_with(cfg: &GeoConfig, rec: Recorder, mode: EngineMode) -> GeoReport {
    run_geo_inner(cfg, rec, mode, None)
}

/// Run a geo scenario with every host shard charging compute through
/// `backend`. Executions are attributed to
/// [`exec::HostClass::EDGE_POP`] or [`exec::HostClass::REGIONAL_CORE`]
/// per tier, so one calibration map can price the two tiers apart.
pub fn run_geo_backend(
    cfg: &GeoConfig,
    rec: Recorder,
    mode: EngineMode,
    backend: exec::BackendHandle,
) -> GeoReport {
    run_geo_inner(cfg, rec, mode, Some(backend))
}

fn run_geo_inner(
    cfg: &GeoConfig,
    rec: Recorder,
    mode: EngineMode,
    backend: Option<exec::BackendHandle>,
) -> GeoReport {
    let topo = Topology::new(cfg);
    let shard_mode = match mode {
        EngineMode::Serial => ShardMode::Serial,
        EngineMode::Sharded(n) => ShardMode::Threads(n),
    };
    let cfg = Arc::new(cfg.clone());
    let cell_cfgs: Vec<Arc<fleet::FleetConfig>> = (0..topo.n_cells())
        .map(|cell| Arc::new(cfg.cell_fleet_config(cell)))
        .collect();
    let n_lps = topo.n_hosts() + 1;
    let rec_cfg = rec.config();

    let build = {
        let cfg = Arc::clone(&cfg);
        let topo = topo.clone();
        let cell_cfgs = cell_cfgs.clone();
        move |i: usize| {
            let lp_rec = match &rec_cfg {
                Some(c) => Recorder::enabled(c.clone()),
                None => Recorder::disabled(),
            };
            if i == CTL {
                GeoLp::Ctl(Box::new(GeoControlLp::new(
                    Arc::clone(&cfg),
                    topo.clone(),
                    lp_rec,
                )))
            } else {
                let g = i - 1;
                let cell = topo.cell_of_host(g);
                let mut host =
                    HostLp::new(Arc::clone(&cell_cfgs[cell]), topo.local_index(g), lp_rec);
                if let Some(b) = &backend {
                    host.set_backend(Arc::clone(b));
                }
                // Even cells are edge PoPs, odd cells regional cores
                // (see `GeoConfig::tier`).
                host.set_host_class(if cell.is_multiple_of(2) {
                    exec::HostClass::EDGE_POP
                } else {
                    exec::HostClass::REGIONAL_CORE
                });
                GeoLp::Host(Box::new(host))
            }
        }
    };
    let finish = |_: usize, lp: GeoLp| match lp {
        GeoLp::Ctl(c) => GeoLpOut::Ctl(c.finish_lp()),
        GeoLp::Host(h) => GeoLpOut::Host(h.finish_lp()),
    };

    let outs = run_sharded(n_lps, cfg.sync_window, shard_mode, build, finish);

    let mut records = Vec::new();
    let mut control = GeoControlStats::default();
    let mut migrations = Vec::new();
    let mut scenario = None;
    let mut hosts: Vec<GeoHostReport> = (0..topo.n_hosts())
        .map(|g| {
            let cell = topo.cell_of_host(g);
            GeoHostReport {
                cell,
                memory_bytes: cfg.tier(cell).spec.memory_bytes,
                ..GeoHostReport::default()
            }
        })
        .collect();
    for (i, lp_out) in outs.into_iter().enumerate() {
        match lp_out {
            GeoLpOut::Ctl(c) => {
                records = c.records;
                control = c.control;
                migrations = c.migrations;
                scenario = c.scenario;
                for (g, (m_out, m_in)) in c.host_migs.into_iter().enumerate() {
                    hosts[g].migrations_out = m_out;
                    hosts[g].migrations_in = m_in;
                }
                rec.import(&c.snapshot);
            }
            GeoLpOut::Host(o) => {
                let g = i - 1;
                hosts[g].served = o.served;
                hosts[g].peak_instances = o.peak_instances;
                hosts[g].peak_memory = o.peak_memory;
                rec.import(&o.snapshot);
            }
        }
    }
    let mut report = GeoReport::summarize(
        records,
        control,
        hosts,
        migrations,
        topo.n_regions(),
        cfg.traffic.duration,
    );
    report.scenario = scenario;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(regions: usize, seed: u64) -> GeoConfig {
        let mut cfg = GeoConfig::paper_default(regions, seed);
        for r in &mut cfg.regions {
            r.users = 8;
        }
        cfg.traffic.duration = SimDuration::from_secs(600);
        cfg
    }

    #[test]
    fn every_request_terminates_and_carries_its_region() {
        let cfg = small(2, 11);
        let rep = run_geo(&cfg);
        assert!(rep.summary.submitted > 0, "trace produced arrivals");
        for r in &rep.records {
            assert!(
                r.phase.is_terminal(),
                "request {} stuck in {:?}",
                r.id,
                r.phase
            );
            assert!(r.region < 2);
            if let (Some(cell), Some(host)) = (r.cell, r.host) {
                assert!(cell < 4);
                assert!(host < 8);
            }
        }
        assert_eq!(
            rep.summary.completed_remote + rep.summary.fallback_local + rep.summary.abandoned,
            rep.summary.submitted
        );
        assert_eq!(rep.control.double_admissions, 0);
    }

    #[test]
    fn same_seed_same_digest() {
        let cfg = small(2, 42);
        assert_eq!(run_geo(&cfg).digest(), run_geo(&cfg).digest());
    }

    #[test]
    fn home_edge_serves_most_requests_under_light_load() {
        let rep = run_geo(&small(2, 5));
        let remote: Vec<_> = rep.records.iter().filter(|r| r.remote()).collect();
        assert!(!remote.is_empty());
        let home_edge = remote
            .iter()
            .filter(|r| !r.cross_region && r.cell.is_some_and(|c| c % 2 == 0))
            .count();
        assert!(
            home_edge * 2 > remote.len(),
            "home edge served only {home_edge}/{}",
            remote.len()
        );
    }

    #[test]
    fn scenario_injection_adds_load_and_stays_bit_identical() {
        let quiet = run_geo(&small(2, 7));
        let mut cfg = small(2, 7);
        cfg.scenario_plan = Some(scenario::ScenarioSpec::flash_crowd(
            16,
            8,
            SimTime::from_secs(120),
            SimDuration::from_secs(60),
        ));
        let rep = run_geo(&cfg);
        let s = rep.scenario.as_ref().expect("scenario runs carry stats");
        assert_eq!(
            s.injected,
            s.submitted + s.suppressed,
            "arrival conservation"
        );
        assert!(s.submitted > 0, "the burst must inject arrivals");
        assert!(
            rep.summary.submitted > quiet.summary.submitted,
            "injected load must show up in the summary ({} vs {})",
            rep.summary.submitted,
            quiet.summary.submitted
        );
        for r in &rep.records {
            assert!(r.phase.is_terminal(), "request {} stuck", r.id);
        }
        // Injection rides the ordinary control-queue event stream, so
        // the sharded engine replays it bit-identically.
        let sharded = run_geo_with(&cfg, Recorder::disabled(), EngineMode::Sharded(3));
        assert_eq!(rep.digest(), sharded.digest());
        // And the quiet config still digests identically to a build
        // without the scenario plane compiled in: `None` is the default.
        assert_eq!(quiet.digest(), run_geo(&small(2, 7)).digest());
    }

    #[test]
    fn migration_conservation_holds_end_to_end() {
        // Make cross-cell migration eager so the invariant has teeth.
        let mut cfg = small(2, 9);
        cfg.rebalance.imbalance_threshold = 0.05;
        cfg.rebalance.min_interval = SimDuration::from_secs(10);
        let rep = run_geo(&cfg);
        for m in &rep.migrations {
            assert_eq!(m.bytes_src, m.bytes_wire, "fabric charged wrong bytes");
            if m.completed {
                assert_eq!(m.bytes_src, m.bytes_dst, "state lost in flight");
            } else {
                assert_eq!(m.bytes_dst, 0, "orphaned move landed bytes");
            }
        }
    }
}
