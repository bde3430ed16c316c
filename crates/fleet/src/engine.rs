//! The fleet engine: N rattrap hosts under a sharded discrete-event
//! runtime, fronted by the Router and governed by admission control,
//! the Autoscaler, and the migration-based Rebalancer.
//!
//! The simulation is decomposed into logical processes for
//! [`simkit::shard`]: **LP 0 is the control plane** (router, admission,
//! autoscaler, rebalancer, the device access network, and the shared
//! interconnect fabric), and **LP `h + 1` is host `h`** — a real
//! `virt::CloudHost` (provisioning runs the full §IV-B pipeline
//! against the simulated kernel) paired with a fair-share CPU
//! executor, an App Warehouse for CID hints, and the host-local
//! instance pool. Each LP owns a private event queue and advances
//! freely inside one conservative sync window
//! ([`FleetConfig::sync_window`], the floor of any cross-host
//! interaction); everything cross-shard — request hand-off, completion
//! notices, crash/drain control, migration state — travels as ordered
//! messages delivered at the next window boundary.
//!
//! Both [`EngineMode::Serial`] and [`EngineMode::Sharded`] execute the
//! *same* windowed algorithm; threads change wall-clock time only, so
//! every report digest is bit-identical across modes and thread
//! counts. Every random draw comes from a stream derived from the
//! master seed (control-plane streams draw in event order; network
//! streams are derived per request), so the same [`FleetConfig`]
//! reproduces the same [`FleetReport`] bit for bit.

use crate::admission::AdmissionCtl;
use crate::autoscaler::{Autoscaler, FleetAction};
use crate::config::FleetConfig;
use crate::rebalance::Rebalancer;
use crate::report::{ControlStats, FleetReport, FleetRequestRecord, HostReport, ScenarioStats};
use crate::router::{RouteReason, Router};
use netsim::{Direction, Link, SharedLink};
use obsv::{attrs, AttrValue, Recorder, SpanId, Subsystem, TraceSnapshot};
use rattrap::warehouse::{aid_of, Aid};
use rattrap::{AppWarehouse, Phase};
use scenario::ScenarioDriver;
use simkit::faults::{FaultPlan, TransferOutcome};
use simkit::shard::{run_sharded, Lp, Outbox, ShardMode};
use simkit::{derive_seed, EventQueue, FairShareExecutor, JobId, SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use virt::migrate::{checkpoint, restore, Checkpoint};
use virt::{CloudHost, InstanceId};
use workloads::{TaskRequest, WorkloadKind};

/// Virtual nodes per host on the router's consistent-hash ring.
const RING_VNODES: usize = 64;

/// Derived-stream tags (master seed × tag → independent stream).
const STREAM_TRAFFIC: u64 = 1;
const STREAM_APPS: u64 = 2;
const STREAM_NET: u64 = 3;
const STREAM_SVC: u64 = 4;
const STREAM_RETRY: u64 = 5;
const STREAM_FAULTS: u64 = 6;
const STREAM_SCENARIO: u64 = 7;

/// The LP index of the control plane.
const CTL: usize = 0;

/// Which runtime drives the windowed LP engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Every LP on the caller thread — the reference execution.
    Serial,
    /// LPs spread over `n` worker threads (clamped to the LP count).
    /// Bit-identical to [`EngineMode::Serial`] at any `n`.
    Sharded(usize),
}

/// Where a host sits in its lifecycle (control-plane view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostStatus {
    /// Routable and serving.
    Active,
    /// Powering on (autoscaler activation); not routable yet.
    Booting,
    /// Finishing its admitted work; not routable.
    Draining,
    /// Crashed; rebooting.
    Down,
    /// Powered-off spare capacity.
    Standby,
}

/// Cross-shard messages. Control → host messages carry the request
/// hand-off and lifecycle commands; host → control messages carry
/// completion notices and state the router needs (warm-hint flips).
///
/// Public (but doc-hidden) because the `geo` crate drives the same
/// host shards under its own multi-region control plane.
#[doc(hidden)]
#[derive(Debug)]
pub enum Wire {
    // ------------------------------------------------- control → host
    /// Serve `req`: the uploaded payload has arrived at the host.
    Start {
        /// Control-plane request index.
        req: usize,
        /// Request generation (stale hand-offs are dropped).
        rgen: u32,
        /// The sampled task.
        task: TaskRequest,
        /// Seed of the device code-push stream (used only when the
        /// App Warehouse misses everywhere on the host).
        xfer_seed: u64,
    },
    /// The host is routable again (reboot or activation complete).
    Online,
    /// Fault plan: the host dies now. All local state is lost.
    Crash,
    /// Stop refilling warm pools; report when admitted work is done.
    Drain,
    /// Drain acknowledged by control: release every instance and park.
    FinishDrain,
    /// Rebalancer: checkpoint one warm idle container and ship it to
    /// host `dst`.
    MigOut {
        /// Destination host (control-plane index space).
        dst: usize,
    },
    /// Migration state arrived over the fabric: restore it.
    MigIn {
        /// Control-plane migration slot.
        mig: usize,
        /// The serialized container state.
        ckpt: Box<Checkpoint>,
    },
    /// End of simulation: stop the maintenance loop.
    Shutdown,
    // ------------------------------------------------- host → control
    /// `req` finished on-host (compute + offload I/O); the result is
    /// ready to download.
    Done {
        /// Control-plane request index.
        req: usize,
        /// Request generation the host was started with.
        rgen: u32,
    },
    /// The host's warm-container hint for one app flipped.
    WarmInfo {
        /// Workload index in [`WorkloadKind::ALL`] order.
        kind_ix: usize,
        /// New warm/cold state.
        warm: bool,
    },
    /// A draining host has no busy, waiting, or restoring work left.
    DrainEmpty,
    /// Checkpoint serialized; ship `ckpt` to host `dst` over the
    /// fabric.
    MigState {
        /// Destination host (control-plane index space).
        dst: usize,
        /// The serialized container state.
        ckpt: Box<Checkpoint>,
    },
    /// The migrated container is restored and serving at the
    /// destination.
    MigLanded {
        /// Control-plane migration slot.
        mig: usize,
        /// State bytes the *destination* measured while restoring —
        /// an end-to-end conservation check against what the source
        /// serialized and what the fabric carried.
        bytes: u64,
    },
}

// ====================================================================
// Control plane (LP 0)
// ====================================================================

/// Control-plane events.
#[derive(Debug)]
enum CtlEvent {
    /// One trace arrival from `user`.
    Arrive { user: u32, kind: WorkloadKind },
    /// Request payload finished uploading.
    UploadDone { req: usize, rgen: u32 },
    /// Result reached the device.
    DownloadDone { req: usize, rgen: u32 },
    /// Backoff elapsed; re-route the request.
    RetryFire { req: usize, rgen: u32 },
    /// On-device (fallback) execution finished.
    LocalDone { req: usize },
    /// Fault plan: take a whole host down.
    HostCrash { selector: u64 },
    /// A crashed or activated host becomes routable.
    HostUp { host: usize, hgen: u64 },
    /// Interconnect fabric schedule point.
    FabricPoll { epoch: u64 },
    /// Control-loop tick: observe, scale, rebalance.
    Scan,
    /// A host message crossed the window boundary.
    Deliver { src: usize, msg: Wire },
}

/// One request's control-plane state.
#[derive(Debug)]
struct ReqState {
    user: u32,
    kind: WorkloadKind,
    task: TaskRequest,
    arrival: SimTime,
    finished: SimTime,
    phase: Phase,
    fell_back: bool,
    host: Option<usize>,
    attempts: u32,
    rerouted: u32,
    reason: Option<RouteReason>,
    /// Bumped on crash re-route; stale in-flight events and messages
    /// are dropped.
    gen: u32,
}

/// Per-host control-plane state (the host's own pool lives in its LP).
struct HostSlot {
    status: HostStatus,
    /// Bumped on crash; stale `HostUp` events and fabric deliveries
    /// are dropped.
    gen: u64,
    crashes: u64,
    migrations_out: u64,
    migrations_in: u64,
    /// Open `fleet.scale_up` span while booting (activation).
    scale_span: SpanId,
}

/// An in-flight migration (control side).
struct MigSlot {
    from: usize,
    to: usize,
    state_bytes: u64,
    /// Taken when the fabric delivers and the state is forwarded.
    ckpt: Option<Box<Checkpoint>>,
    /// Destination host generation at transfer start; a crash there
    /// orphans the move.
    gen_to: u64,
}

struct ControlLp {
    cfg: Arc<FleetConfig>,
    rec: Recorder,
    queue: EventQueue<CtlEvent>,
    hosts: Vec<HostSlot>,
    router: Router,
    admission: AdmissionCtl,
    autoscaler: Autoscaler,
    rebalancer: Rebalancer,
    fabric: SharedLink<usize>,
    link: Link,
    reqs: Vec<ReqState>,
    migs: Vec<MigSlot>,
    control: ControlStats,
    /// Hosts believed warm per workload ([`WorkloadKind::ALL`] order),
    /// maintained from [`Wire::WarmInfo`] flips. At most one window
    /// stale — an acceptable hint-propagation delay.
    warm_map: Vec<BTreeSet<usize>>,
    aids: Vec<Aid>,
    rng_svc: SimRng,
    rng_retry: SimRng,
    /// Root of the per-request network streams.
    net_root: u64,
    horizon: SimTime,
    outstanding: usize,
    /// Compiled scenario plan, when the config carries one. Compiled
    /// once at LP construction from its own derived stream
    /// ([`STREAM_SCENARIO`]), then read-only: injected arrivals enter
    /// through the ordinary event queue and cohort radio windows price
    /// uploads per event, so serial and sharded runs stay
    /// bit-identical under every scenario.
    driver: Option<ScenarioDriver>,
    /// Scenario conservation counters:
    /// (injected, submitted, suppressed, deferred).
    scn: (u64, u64, u64, u64),
}

/// Map an app id back to its workload (for code bytes on migration).
fn kind_of_app(app_id: &str) -> Option<WorkloadKind> {
    WorkloadKind::ALL.into_iter().find(|k| k.app_id() == app_id)
}

fn kind_ix(kind: WorkloadKind) -> usize {
    WorkloadKind::ALL
        .into_iter()
        .position(|k| k == kind)
        .expect("kind is one of ALL")
}

impl ControlLp {
    fn new(cfg: Arc<FleetConfig>, rec: Recorder) -> Self {
        let mut master = SimRng::new(cfg.seed);
        let net_root = derive_seed(cfg.seed, STREAM_NET);
        let rng_svc = master.fork(STREAM_SVC);
        let rng_retry = master.fork(STREAM_RETRY);

        let hosts: Vec<HostSlot> = (0..cfg.host_specs.len())
            .map(|i| HostSlot {
                status: if i < cfg.initial_active {
                    HostStatus::Active
                } else {
                    HostStatus::Standby
                },
                gen: 0,
                crashes: 0,
                migrations_out: 0,
                migrations_in: 0,
                scale_span: SpanId::NONE,
            })
            .collect();

        let mut router = Router::new(RING_VNODES);
        router.rebuild(&(0..cfg.initial_active).collect());

        let admission = AdmissionCtl::new(cfg.host_specs.len(), cfg.admission_capacity);
        let autoscaler = Autoscaler::new(cfg.autoscale);
        let rebalancer = Rebalancer::new(cfg.rebalance);
        let mut fabric = SharedLink::new(cfg.interconnect_bps, cfg.interconnect_bps);
        // Digest-neutral for the fleet (no per-pop sampling); see
        // FairShareExecutor::eager_check_cancel.
        fabric.eager_check_cancel();
        let link = Link::new(cfg.scenario);
        let horizon = SimTime::ZERO.saturating_add(cfg.traffic.duration);
        let aids: Vec<Aid> = WorkloadKind::ALL
            .iter()
            .map(|k| aid_of(k.app_id()))
            .collect();
        let warm_map = vec![BTreeSet::new(); WorkloadKind::ALL.len()];
        let driver = cfg.scenario_plan.as_ref().map(|spec| {
            ScenarioDriver::compile(
                spec,
                cfg.traffic.users,
                derive_seed(cfg.seed, STREAM_SCENARIO),
            )
        });

        let mut lp = ControlLp {
            cfg,
            rec,
            queue: EventQueue::new(),
            hosts,
            router,
            admission,
            autoscaler,
            rebalancer,
            fabric,
            link,
            reqs: Vec::new(),
            migs: Vec::new(),
            control: ControlStats::default(),
            warm_map,
            aids,
            rng_svc,
            rng_retry,
            net_root,
            horizon,
            outstanding: 0,
            driver,
            scn: (0, 0, 0, 0),
        };
        lp.seed_events();
        lp
    }

    fn seed_events(&mut self) {
        // Per-user home app under the configured Zipf skew: skewed
        // popularity is what makes code-cache-affinity routing pay.
        let mut rng_apps = SimRng::new(derive_seed(self.cfg.seed, STREAM_APPS));
        let weights = self.cfg.app_weights();
        let mut user_app: Vec<WorkloadKind> = (0..self.cfg.traffic.users)
            .map(|_| WorkloadKind::ALL[rng_apps.weighted_index(&weights)])
            .collect();
        // Explicit tenancy re-partitions the base population: each
        // base user's app comes from its tenant's mix instead of the
        // global Zipf draw.
        if let Some(d) = &self.driver {
            for (u, app) in user_app.iter_mut().enumerate() {
                if let Some(k) = d.base_kind_override(u as u32) {
                    *app = k;
                }
            }
        }

        let mut traffic = self.cfg.traffic.clone();
        traffic.seed = derive_seed(self.cfg.seed, STREAM_TRAFFIC);
        for (user, times) in traces::livelab::generate(&traffic).into_iter().enumerate() {
            for t in times {
                self.queue.schedule(
                    t,
                    CtlEvent::Arrive {
                        user: user as u32,
                        kind: user_app[user],
                    },
                );
            }
        }

        let plan = FaultPlan::generate(&self.cfg.faults, derive_seed(self.cfg.seed, STREAM_FAULTS));
        for (at, selector) in plan.crashes() {
            self.queue.schedule(at, CtlEvent::HostCrash { selector });
        }

        // Scenario arrival script: offload events enter the platform
        // as ordinary arrivals; device-local scripted interactions
        // (touches that never offload) are counted suppressed. The
        // conservation contract: injected == submitted + suppressed.
        if let Some(d) = &self.driver {
            self.scn.0 = d.injected();
            for a in d.arrivals() {
                if a.offload {
                    self.scn.1 += 1;
                    self.queue.schedule(
                        a.at,
                        CtlEvent::Arrive {
                            user: a.user,
                            kind: a.kind,
                        },
                    );
                } else {
                    self.scn.2 += 1;
                }
            }
        }

        self.queue
            .schedule_in(self.cfg.autoscale.scan_interval, CtlEvent::Scan);
    }

    /// Independent network stream for one request. Tags keep the
    /// upload attempts, the download, and the host-side code push on
    /// disjoint streams of the request's own seed, so host shards
    /// never contend with control for a shared generator.
    fn req_rng(&self, req: usize, tag: u64) -> SimRng {
        SimRng::new(derive_seed(derive_seed(self.net_root, req as u64), tag))
    }

    fn dispatch(&mut self, now: SimTime, ev: CtlEvent, out: &mut Outbox<Wire>) {
        match ev {
            CtlEvent::Arrive { user, kind } => self.on_arrive(now, user, kind),
            CtlEvent::UploadDone { req, rgen } => self.on_upload_done(now, req, rgen, out),
            CtlEvent::DownloadDone { req, rgen } => self.on_download_done(now, req, rgen),
            CtlEvent::RetryFire { req, rgen } => self.on_retry_fire(now, req, rgen),
            CtlEvent::LocalDone { req } => self.finish(now, req, Phase::Done),
            CtlEvent::HostCrash { selector } => self.on_host_crash(now, selector, out),
            CtlEvent::HostUp { host, hgen } => self.on_host_up(now, host, hgen, out),
            CtlEvent::FabricPoll { epoch } => self.on_fabric_poll(now, epoch, out),
            CtlEvent::Scan => self.on_scan(now, out),
            CtlEvent::Deliver { src, msg } => self.on_msg(now, src, msg, out),
        }
    }

    fn on_msg(&mut self, now: SimTime, src: usize, msg: Wire, out: &mut Outbox<Wire>) {
        let h = src - 1;
        match msg {
            Wire::Done { req, rgen } => self.on_done(now, req, rgen),
            Wire::WarmInfo { kind_ix, warm } => {
                if warm {
                    self.warm_map[kind_ix].insert(h);
                } else {
                    self.warm_map[kind_ix].remove(&h);
                }
            }
            Wire::DrainEmpty => {
                if self.hosts[h].status == HostStatus::Draining && self.admission.depth(h) == 0 {
                    self.hosts[h].status = HostStatus::Standby;
                    out.send(now, src, Wire::FinishDrain);
                }
            }
            Wire::MigState { dst, ckpt } => self.on_mig_state(now, h, dst, ckpt),
            Wire::MigLanded { mig, .. } => self.on_mig_landed(now, mig),
            _ => unreachable!("control-bound message"),
        }
    }

    // ----------------------------------------------------- request intake

    fn on_arrive(&mut self, now: SimTime, user: u32, kind: WorkloadKind) {
        let task = kind.profile().sample(&mut self.rng_svc);
        let req = self.reqs.len();
        self.reqs.push(ReqState {
            user,
            kind,
            task,
            arrival: now,
            finished: now,
            phase: Phase::Dispatch,
            fell_back: false,
            host: None,
            attempts: 1,
            rerouted: 0,
            reason: None,
            gen: 0,
        });
        self.outstanding += 1;
        self.rec.set_current_request(Some(req as u64));
        self.route_request(now, req);
    }

    /// Route (or re-route) `req`: admit onto a host and start the
    /// upload, or shed to the resilience layer.
    fn route_request(&mut self, now: SimTime, req: usize) {
        let kix = kind_ix(self.reqs[req].kind);
        let aid = &self.aids[kix];
        let warm: Vec<usize> = self.warm_map[kix]
            .iter()
            .copied()
            .filter(|&h| self.hosts[h].status == HostStatus::Active)
            .collect();
        let hosts = &self.hosts;
        let admission = &self.admission;
        let decision = self.router.route(aid, &warm, |h| {
            hosts[h].status == HostStatus::Active && admission.has_room(h)
        });
        match decision {
            Some(d) => {
                assert!(self.admission.admit(d.host), "router picked a full host");
                match d.reason {
                    RouteReason::Affinity => self.control.affinity_routes += 1,
                    RouteReason::Hash => self.control.hash_routes += 1,
                    RouteReason::Spill => self.control.spill_routes += 1,
                }
                self.reqs[req].host = Some(d.host);
                self.reqs[req].reason = Some(d.reason);
                if self.rec.is_enabled() {
                    self.rec.instant(
                        Subsystem::Fleet,
                        "route",
                        attrs![
                            ("host", AttrValue::U64(d.host as u64)),
                            ("reason", AttrValue::Str(d.reason.label())),
                            ("aid", AttrValue::Text(aid.0.clone())),
                            ("depth", AttrValue::U64(self.admission.depth(d.host) as u64)),
                        ],
                    );
                }
                self.begin_upload(now, req);
            }
            None => self.shed(now, req),
        }
    }

    fn begin_upload(&mut self, now: SimTime, req: usize) {
        self.reqs[req].phase = Phase::DataTransferUp;
        let bytes = self.reqs[req].task.control_bytes + self.reqs[req].task.payload_bytes;
        let mut rng = self.req_rng(req, 10 + self.reqs[req].attempts as u64);
        let t = self.link.connect_time(&mut rng)
            + self.link.transfer_time(bytes, Direction::Upload, &mut rng);
        let rgen = self.reqs[req].gen;
        // Scenario cohort radio windows price the uplink: degradation
        // stretches the transfer, an outage cuts it and defers the
        // attempt to the window edge — where the whole cohort
        // re-offloads at once (the thundering herd).
        let outcome = match &self.driver {
            Some(d) => d.price_transfer(self.reqs[req].user, now, t),
            None => TransferOutcome::Completes {
                at: now.saturating_add(t),
            },
        };
        match outcome {
            TransferOutcome::Completes { at } => {
                self.queue.schedule(at, CtlEvent::UploadDone { req, rgen });
            }
            TransferOutcome::Interrupted { .. } => {
                let release = self
                    .driver
                    .as_ref()
                    .expect("an interrupted transfer implies a driver")
                    .release_time(self.reqs[req].user, now);
                self.defer_upload(now, req, release);
            }
        }
    }

    /// A cohort outage cut this upload: release the admitted slot and
    /// re-route when the radio returns (or degrade when the retry
    /// budget is spent). Every deferred request re-fires at the same
    /// window edge, so the restore instant is a genuine herd.
    fn defer_upload(&mut self, now: SimTime, req: usize, release: SimTime) {
        self.scn.3 += 1;
        if let Some(h) = self.reqs[req].host.take() {
            self.admission.release(h);
        }
        self.reqs[req].gen += 1;
        self.reqs[req].attempts += 1;
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Fleet,
                "radio_defer",
                attrs![
                    ("release_us", AttrValue::U64(release.as_micros())),
                    ("attempt", AttrValue::U64(self.reqs[req].attempts as u64)),
                ],
            );
        }
        if self.reqs[req].attempts <= self.cfg.resilience.max_retries + 1 {
            self.reqs[req].phase = Phase::Retrying;
            let rgen = self.reqs[req].gen;
            self.queue
                .schedule(release.max(now), CtlEvent::RetryFire { req, rgen });
        } else {
            self.degrade(now, req);
        }
    }

    /// No host admitted the request: degrade per the resilience policy.
    fn shed(&mut self, now: SimTime, req: usize) {
        self.control.shed += 1;
        self.admission.count_shed();
        self.reqs[req].host = None;
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Fleet,
                "shed",
                attrs![(
                    "fallback",
                    AttrValue::U64(self.cfg.resilience.fallback_local as u64),
                )],
            );
        }
        self.degrade(now, req);
    }

    /// Finish on-device or abandon, per policy.
    fn degrade(&mut self, now: SimTime, req: usize) {
        if self.cfg.resilience.fallback_local {
            self.reqs[req].fell_back = true;
            self.reqs[req].phase = Phase::FallbackLocal;
            let t = self
                .cfg
                .device
                .local_execution_time(self.reqs[req].task.compute);
            self.queue
                .schedule(now.saturating_add(t), CtlEvent::LocalDone { req });
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
        let h = self.reqs[req].host.expect("routed");
        let req_seed = derive_seed(self.net_root, req as u64);
        out.send(
            now,
            h + 1,
            Wire::Start {
                req,
                rgen,
                task: self.reqs[req].task,
                xfer_seed: derive_seed(req_seed, 1000 + self.reqs[req].attempts as u64),
            },
        );
    }

    /// The host reported the result ready: release admission and start
    /// the download. Arrives one window after the host-side completion
    /// — the control plane's notification latency.
    fn on_done(&mut self, now: SimTime, req: usize, rgen: u32) {
        if self.stale(req, rgen) {
            return;
        }
        self.rec.set_current_request(Some(req as u64));
        let h = self.reqs[req].host.expect("routed");
        self.admission.release(h);
        self.reqs[req].phase = Phase::DataTransferDown;
        let mut rng = self.req_rng(req, 1);
        let t = self.link.transfer_time(
            self.reqs[req].task.result_bytes,
            Direction::Download,
            &mut rng,
        );
        self.queue
            .schedule(now.saturating_add(t), CtlEvent::DownloadDone { req, rgen });
    }

    fn on_download_done(&mut self, now: SimTime, req: usize, rgen: u32) {
        if self.stale(req, rgen) {
            return;
        }
        self.finish(now, req, Phase::Done);
    }

    fn finish(&mut self, now: SimTime, req: usize, phase: Phase) {
        debug_assert!(phase.is_terminal());
        self.rec.set_current_request(Some(req as u64));
        self.reqs[req].phase = phase;
        self.reqs[req].finished = now;
        self.outstanding -= 1;
        self.rec.set_current_request(None);
    }

    // ------------------------------------------------------------ failures

    fn on_retry_fire(&mut self, now: SimTime, req: usize, rgen: u32) {
        if self.stale(req, rgen) {
            return;
        }
        self.rec.set_current_request(Some(req as u64));
        self.route_request(now, req);
    }

    fn on_host_crash(&mut self, now: SimTime, selector: u64, out: &mut Outbox<Wire>) {
        self.rec.set_current_request(None);
        let live: Vec<usize> = (0..self.hosts.len())
            .filter(|&h| {
                matches!(
                    self.hosts[h].status,
                    HostStatus::Active | HostStatus::Draining
                )
            })
            .collect();
        if live.is_empty() {
            return;
        }
        let victim = live[(selector % live.len() as u64) as usize];
        self.control.host_crashes += 1;
        self.hosts[victim].crashes += 1;
        self.hosts[victim].gen += 1;
        self.hosts[victim].status = HostStatus::Down;
        self.admission.reset_host(victim);
        self.autoscaler.forget(victim);
        for warm in &mut self.warm_map {
            warm.remove(&victim);
        }
        self.rebuild_ring();
        out.send(now, victim + 1, Wire::Crash);

        // Every stranded request consumes one attempt and re-routes
        // after backoff (or degrades when the budget is gone). The
        // host learns of its own death one window later; any `Done` it
        // sent in the meantime carries a stale generation and is
        // dropped.
        let affected: Vec<usize> = (0..self.reqs.len())
            .filter(|&r| self.reqs[r].host == Some(victim) && !self.reqs[r].phase.is_terminal())
            .collect();
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Fleet,
                "host_crash",
                attrs![
                    ("host", AttrValue::U64(victim as u64)),
                    ("stranded", AttrValue::U64(affected.len() as u64)),
                ],
            );
        }
        for req in affected {
            self.rec.set_current_request(Some(req as u64));
            self.reqs[req].gen += 1;
            self.reqs[req].host = None;
            self.reqs[req].attempts += 1;
            self.reqs[req].rerouted += 1;
            self.control.crash_reroutes += 1;
            if self.rec.is_enabled() {
                self.rec.instant(
                    Subsystem::Fleet,
                    "reroute",
                    attrs![
                        ("from_host", AttrValue::U64(victim as u64)),
                        ("attempt", AttrValue::U64(self.reqs[req].attempts as u64)),
                    ],
                );
            }
            if self.reqs[req].attempts <= self.cfg.resilience.max_retries + 1 {
                self.reqs[req].phase = Phase::Retrying;
                let backoff = self
                    .cfg
                    .resilience
                    .backoff_delay(self.reqs[req].attempts - 1, &mut self.rng_retry);
                let rgen = self.reqs[req].gen;
                self.queue.schedule(
                    now.saturating_add(backoff),
                    CtlEvent::RetryFire { req, rgen },
                );
            } else {
                self.degrade(now, req);
            }
        }
        self.rec.set_current_request(None);

        let hgen = self.hosts[victim].gen;
        self.queue.schedule(
            now.saturating_add(self.cfg.crash_reboot),
            CtlEvent::HostUp { host: victim, hgen },
        );
    }

    fn on_host_up(&mut self, now: SimTime, host: usize, hgen: u64, out: &mut Outbox<Wire>) {
        if self.hosts[host].gen != hgen {
            return;
        }
        if !matches!(
            self.hosts[host].status,
            HostStatus::Down | HostStatus::Booting
        ) {
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
        self.rebuild_ring();
        out.send(now, host + 1, Wire::Online);
    }

    // ----------------------------------------------------------- migration

    /// A source host serialized a container: charge the state through
    /// the shared fabric toward `dst`.
    fn on_mig_state(&mut self, now: SimTime, from: usize, dst: usize, ckpt: Box<Checkpoint>) {
        if self.hosts[dst].status != HostStatus::Active {
            return; // destination left the fleet while the state froze
        }
        let state_bytes = ckpt.state_bytes();
        let mig = self.migs.len();
        self.migs.push(MigSlot {
            from,
            to: dst,
            state_bytes,
            ckpt: Some(ckpt),
            gen_to: self.hosts[dst].gen,
        });
        self.control.migrations_started += 1;
        self.rebalancer.committed(now);
        self.fabric.begin_transfer(now, state_bytes, mig);
        self.fabric
            .reschedule(now, &mut self.queue, |epoch| CtlEvent::FabricPoll { epoch });
    }

    fn on_fabric_poll(&mut self, now: SimTime, epoch: u64, out: &mut Outbox<Wire>) {
        let Some(finished) = self.fabric.poll(now, epoch) else {
            return;
        };
        for (_, mig) in finished {
            let to = self.migs[mig].to;
            if self.hosts[to].gen != self.migs[mig].gen_to
                || self.hosts[to].status != HostStatus::Active
            {
                continue; // destination crashed or drained mid-move
            }
            let ckpt = self.migs[mig].ckpt.take().expect("delivered once");
            out.send(now, to + 1, Wire::MigIn { mig, ckpt });
        }
        self.fabric
            .reschedule(now, &mut self.queue, |epoch| CtlEvent::FabricPoll { epoch });
    }

    /// The destination restored the container and it is serving.
    fn on_mig_landed(&mut self, now: SimTime, mig: usize) {
        let _ = now;
        let MigSlot {
            from,
            to,
            state_bytes,
            ..
        } = self.migs[mig];
        self.hosts[from].migrations_out += 1;
        self.hosts[to].migrations_in += 1;
        self.control.migrations_completed += 1;
        self.control.migration_bytes += state_bytes;
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Fleet,
                "migration_done",
                attrs![
                    ("from", AttrValue::U64(from as u64)),
                    ("to", AttrValue::U64(to as u64)),
                    ("state_bytes", AttrValue::U64(state_bytes)),
                ],
            );
        }
    }

    // -------------------------------------------------------- control loop

    fn on_scan(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        self.rec.set_current_request(None);
        let active = self.active_set();

        // Observe per-host pressure into the fleet EWMA monitor.
        for &h in &active {
            self.autoscaler.observe(h, self.admission.depth(h) as u32);
        }

        // Scale.
        let saturation = if active.is_empty() {
            0.0
        } else {
            active
                .iter()
                .map(|&h| self.admission.utilization(h))
                .sum::<f64>()
                / active.len() as f64
        };
        let standby = self.hosts.iter().any(|h| h.status == HostStatus::Standby);
        match self.autoscaler.plan(now, saturation, &active, standby) {
            Some(FleetAction::Activate) => self.activate_standby(now),
            Some(FleetAction::Drain(victim)) => self.drain(now, victim, out),
            None => {}
        }

        // Rebalance: ask the hottest host to ship one warm container
        // to the coldest when the gap warrants it. The source commits
        // the move (or silently declines if it has nothing warm).
        let capacity = self.admission.capacity() as f64;
        let hot_cold = self.autoscaler.hot_cold(&self.active_set(), |_| capacity);
        if let Some(mv) = self.rebalancer.plan(now, hot_cold) {
            if self.hosts[mv.to].status == HostStatus::Active {
                out.send(now, mv.from + 1, Wire::MigOut { dst: mv.to });
            }
        }

        if now < self.horizon || self.outstanding > 0 {
            self.queue
                .schedule_in(self.cfg.autoscale.scan_interval, CtlEvent::Scan);
        } else {
            // Horizon passed with nothing in flight: stop every host's
            // maintenance loop so the simulation drains.
            for h in 0..self.hosts.len() {
                out.send(now, h + 1, Wire::Shutdown);
            }
        }
    }

    fn activate_standby(&mut self, now: SimTime) {
        let Some(host) =
            (0..self.hosts.len()).find(|&h| self.hosts[h].status == HostStatus::Standby)
        else {
            return;
        };
        self.hosts[host].status = HostStatus::Booting;
        self.control.scale_ups += 1;
        if self.rec.is_enabled() {
            self.hosts[host].scale_span = self.rec.span_start_at(
                Subsystem::Fleet,
                "scale_up",
                SpanId::NONE,
                now.as_micros(),
                attrs![("host", AttrValue::U64(host as u64))],
            );
        }
        let hgen = self.hosts[host].gen;
        self.queue.schedule(
            now.saturating_add(self.cfg.autoscale.host_boot),
            CtlEvent::HostUp { host, hgen },
        );
    }

    fn drain(&mut self, now: SimTime, victim: usize, out: &mut Outbox<Wire>) {
        if self.hosts[victim].status != HostStatus::Active || self.active_set().len() < 2 {
            return;
        }
        self.hosts[victim].status = HostStatus::Draining;
        self.control.drains += 1;
        self.autoscaler.forget(victim);
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Fleet,
                "drain",
                attrs![("host", AttrValue::U64(victim as u64))],
            );
        }
        self.rebuild_ring();
        out.send(now, victim + 1, Wire::Drain);
    }

    // ------------------------------------------------------------- helpers

    fn active_set(&self) -> BTreeSet<usize> {
        (0..self.hosts.len())
            .filter(|&h| self.hosts[h].status == HostStatus::Active)
            .collect()
    }

    fn rebuild_ring(&mut self) {
        self.router.rebuild(&self.active_set());
    }

    fn finish_lp(self) -> CtlOut {
        self.rec.set_current_request(None);
        let records: Vec<FleetRequestRecord> = self
            .reqs
            .iter()
            .enumerate()
            .map(|(i, r)| FleetRequestRecord {
                id: i as u64,
                user: r.user,
                kind: r.kind,
                arrival: r.arrival,
                finished: r.finished,
                phase: r.phase,
                fell_back: r.fell_back,
                host: r.host,
                attempts: r.attempts,
                rerouted: r.rerouted,
                reason: r.reason,
            })
            .collect();
        let scenario = self.driver.as_ref().map(|d| {
            ScenarioStats::build(
                d.name(),
                self.scn,
                d.tenant_names(),
                |user| d.tenant_of(user),
                &records,
            )
        });
        CtlOut {
            records,
            control: self.control,
            hosts: self
                .hosts
                .iter()
                .map(|h| (h.crashes, h.migrations_out, h.migrations_in))
                .collect(),
            scenario,
            snapshot: self.rec.snapshot(),
        }
    }
}

// ====================================================================
// Host shard (LP h + 1)
// ====================================================================

/// Host-shard events. All carry the host's epoch (bumped on crash,
/// drain completion, and shutdown) so events scheduled against a dead
/// incarnation drop on the floor.
#[derive(Debug)]
enum HostEvent {
    /// A provisioned instance finished booting.
    BootDone { inst: InstanceId, epoch: u64 },
    /// Mobile code finished loading; computation can start.
    CodeLoaded { inst: InstanceId, epoch: u64 },
    /// CPU executor schedule point (guarded by the executor's own
    /// epoch, not the host epoch).
    CpuPoll { cpu_epoch: u64 },
    /// Offloading I/O finished; the instance frees up.
    IoDone { inst: InstanceId, epoch: u64 },
    /// Checkpoint serialization (freeze) finished; ship the state.
    MigFrozen {
        dst: usize,
        ckpt: Box<Checkpoint>,
        epoch: u64,
    },
    /// A migrated-in container finished restoring. `bytes` is the
    /// checkpoint size measured on the destination before restore, so
    /// control can verify end-to-end state conservation.
    MigReady {
        inst: InstanceId,
        mig: usize,
        bytes: u64,
        epoch: u64,
    },
    /// Pool maintenance tick: reclaim idle, refill warm spares.
    Maintain { epoch: u64 },
    /// A control message crossed the window boundary.
    Deliver { msg: Wire },
}

/// One admitted request waiting for (or holding) an instance.
#[derive(Debug, Clone, Copy)]
struct Pending {
    req: usize,
    rgen: u32,
    task: TaskRequest,
    xfer_seed: u64,
}

/// A single cloud host as a logical process: instance pool, CPU
/// executor, code warehouse, and device-side link. Public (but
/// doc-hidden) so the `geo` crate can embed fleet host shards in a
/// multi-region topology; everything else should go through
/// [`run_fleet`].
#[doc(hidden)]
pub struct HostLp {
    h: usize,
    cfg: Arc<FleetConfig>,
    rec: Recorder,
    queue: EventQueue<HostEvent>,
    host: CloudHost,
    cpu: FairShareExecutor<InstanceId>,
    warehouse: AppWarehouse,
    link: Link,
    /// Idle instances and when they went idle.
    idle: BTreeMap<InstanceId, SimTime>,
    /// Busy instances and the request each is serving.
    busy: BTreeMap<InstanceId, Pending>,
    /// CPU job per busy instance (absent during code load / I/O).
    jobs: BTreeMap<InstanceId, JobId>,
    /// Instances provisioned but still booting.
    booting: BTreeSet<InstanceId>,
    /// Instances restored by an in-flight migration.
    pending_mig: BTreeSet<InstanceId>,
    /// Admitted requests waiting for an instance.
    wait: VecDeque<Pending>,
    /// Last warm/cold hint published to control, per workload.
    published: Vec<bool>,
    aids: Vec<Aid>,
    serving: bool,
    drain_mode: bool,
    shut: bool,
    epoch: u64,
    served: u64,
    peak_instances: usize,
    peak_memory: u64,
    /// Compute backend pricing every request's compute phase (default
    /// [`exec::Modeled`], bit-identical to the cycle model).
    backend: exec::BackendHandle,
    /// Hardware class this host's executions are attributed to in
    /// calibration keys (geo overrides per tier).
    host_class: exec::HostClass,
}

impl HostLp {
    /// Build host `h` of `cfg`, recording into `rec`. Hosts with
    /// `h < cfg.initial_active` start serving (and filling their warm
    /// pool) at `t = 0`; the rest wait in standby for an activation.
    pub fn new(cfg: Arc<FleetConfig>, h: usize, rec: Recorder) -> Self {
        let spec = cfg.host_specs[h];
        let mut host = CloudHost::new(spec);
        host.kernel.load_android_container_driver();
        host.attach_recorder(rec.clone());
        let mut cpu = FairShareExecutor::new(spec.cores as f64, 1.0);
        // The fleet samples no per-pop state, so dropping superseded
        // completion checks from the pop stream is digest-neutral here
        // (locked by the fleet golden test) and saves a stale pop per
        // job-set mutation — exp_mega reschedules millions of times.
        cpu.eager_check_cancel();
        let warehouse = AppWarehouse::new(cfg.warehouse_capacity);
        let link = Link::new(cfg.scenario);
        let aids: Vec<Aid> = WorkloadKind::ALL
            .iter()
            .map(|k| aid_of(k.app_id()))
            .collect();
        let serving = h < cfg.initial_active;
        let mut queue = EventQueue::new();
        if serving {
            // Initially active hosts fill their warm pools from t = 0.
            queue.schedule(SimTime::ZERO, HostEvent::Maintain { epoch: 0 });
        }
        HostLp {
            h,
            cfg,
            rec,
            queue,
            host,
            cpu,
            warehouse,
            link,
            idle: BTreeMap::new(),
            busy: BTreeMap::new(),
            jobs: BTreeMap::new(),
            booting: BTreeSet::new(),
            pending_mig: BTreeSet::new(),
            wait: VecDeque::new(),
            published: vec![false; WorkloadKind::ALL.len()],
            aids,
            serving,
            drain_mode: false,
            shut: false,
            epoch: 0,
            served: 0,
            peak_instances: 0,
            peak_memory: 0,
            backend: exec::modeled(),
            host_class: exec::HostClass::PAPER_SERVER,
        }
    }

    /// Swap the compute backend for this host shard (default
    /// [`exec::Modeled`], which reproduces the fleet golden digest).
    pub fn set_backend(&mut self, backend: exec::BackendHandle) {
        self.backend = backend;
    }

    /// Attribute this host's executions to a hardware class in
    /// calibration keys (geo tiers override the default).
    pub fn set_host_class(&mut self, class: exec::HostClass) {
        self.host_class = class;
    }

    fn dispatch(&mut self, now: SimTime, ev: HostEvent, out: &mut Outbox<Wire>) {
        match ev {
            HostEvent::BootDone { inst, epoch } => {
                if epoch == self.epoch {
                    self.booting.remove(&inst);
                    self.idle.insert(inst, now);
                    self.pump(now, out);
                }
            }
            HostEvent::CodeLoaded { inst, epoch } => {
                if epoch == self.epoch {
                    self.on_code_loaded(now, inst);
                }
            }
            HostEvent::CpuPoll { cpu_epoch } => self.on_cpu_poll(now, cpu_epoch),
            HostEvent::IoDone { inst, epoch } => {
                if epoch == self.epoch {
                    self.on_io_done(now, inst, out);
                }
            }
            HostEvent::MigFrozen { dst, ckpt, epoch } => {
                if epoch == self.epoch {
                    out.send(now, CTL, Wire::MigState { dst, ckpt });
                }
            }
            HostEvent::MigReady {
                inst,
                mig,
                bytes,
                epoch,
            } => {
                if epoch == self.epoch {
                    self.on_mig_ready(now, inst, mig, bytes, out);
                }
            }
            HostEvent::Maintain { epoch } => {
                if epoch == self.epoch {
                    self.on_maintain(now, out);
                }
            }
            HostEvent::Deliver { msg } => self.on_msg(now, msg, out),
        }
    }

    fn on_msg(&mut self, now: SimTime, msg: Wire, out: &mut Outbox<Wire>) {
        match msg {
            Wire::Start {
                req,
                rgen,
                task,
                xfer_seed,
            } => {
                // A `Start` racing this host's crash arrives after the
                // `Crash` message (per-source FIFO) and is dropped:
                // control has already stranded and re-routed the
                // request.
                if self.serving {
                    self.rec.set_current_request(Some(req as u64));
                    self.attach_or_queue(
                        now,
                        Pending {
                            req,
                            rgen,
                            task,
                            xfer_seed,
                        },
                        out,
                    );
                }
            }
            Wire::Online => self.on_online(now),
            Wire::Crash => self.on_crash(now, out),
            Wire::Drain => self.drain_mode = true,
            Wire::FinishDrain => self.on_finish_drain(now, out),
            Wire::MigOut { dst } => self.on_mig_out(now, dst, out),
            Wire::MigIn { mig, ckpt } => self.on_mig_in(now, mig, &ckpt),
            Wire::Shutdown => {
                self.shut = true;
                self.serving = false;
                self.epoch += 1;
            }
            _ => unreachable!("host-bound message"),
        }
    }

    // --------------------------------------------------- request service

    /// Give the request an idle instance, provision a new one, or park
    /// it in the wait queue.
    fn attach_or_queue(&mut self, now: SimTime, pend: Pending, out: &mut Outbox<Wire>) {
        if let Some(inst) = self.pick_idle(pend.task.kind) {
            self.start_code_load(now, pend, inst, out);
            return;
        }
        // No idle instance: grow the pool if the policy and DRAM allow.
        if self.host.instance_count() < self.cfg.pool.max_instances {
            if let Ok((inst, setup)) = self.host.provision(self.cfg.runtime) {
                self.note_provisioned();
                self.booting.insert(inst);
                let epoch = self.epoch;
                self.queue.schedule(
                    now.saturating_add(setup),
                    HostEvent::BootDone { inst, epoch },
                );
            }
        }
        self.wait.push_back(pend);
    }

    /// Prefer an idle instance that already holds the app's code.
    fn pick_idle(&self, kind: WorkloadKind) -> Option<InstanceId> {
        let app_id = kind.app_id();
        let with_app = self.idle.keys().copied().find(|&i| {
            self.host
                .instance(i)
                .map(|r| r.apps_loaded.contains(app_id))
                .unwrap_or(false)
        });
        with_app.or_else(|| self.idle.keys().next().copied())
    }

    /// Load the app into `inst` (free when resident), charging a code
    /// upload from the device when even the App Warehouse misses.
    fn start_code_load(
        &mut self,
        now: SimTime,
        pend: Pending,
        inst: InstanceId,
        out: &mut Outbox<Wire>,
    ) {
        self.idle.remove(&inst);
        let kind = pend.task.kind;
        let app_id = kind.app_id();
        let aid = self.aids[kind_ix(kind)].clone();
        let code_bytes = kind.profile().app_code_bytes;
        let resident = self
            .host
            .instance(inst)
            .map(|r| r.apps_loaded.contains(app_id))
            .unwrap_or(false);
        let mut t = SimDuration::ZERO;
        if !resident && !self.warehouse.lookup(&aid) {
            // Cold everywhere: the device must push the code first.
            let mut rng = SimRng::new(pend.xfer_seed);
            t += self
                .link
                .transfer_time(code_bytes, Direction::Upload, &mut rng);
            self.warehouse.insert(aid.clone(), app_id, code_bytes);
        }
        t += self
            .host
            .load_app(inst, app_id, code_bytes)
            .expect("instance is live");
        self.warehouse.note_loaded(&aid, inst);
        self.busy.insert(inst, pend);
        self.publish_warm(now, out);
        let epoch = self.epoch;
        self.queue
            .schedule(now.saturating_add(t), HostEvent::CodeLoaded { inst, epoch });
    }

    fn on_code_loaded(&mut self, now: SimTime, inst: InstanceId) {
        let pend = self.busy[&inst];
        self.rec.set_current_request(Some(pend.req as u64));
        let spec = self.cfg.runtime.spec();
        let ghz = self.host.host_spec().clock_ghz;
        let ctx = exec::ComputeCtx {
            kind: pend.task.kind,
            size: exec::SizeClass::of(&pend.task),
            host: self.host_class,
            clock_ghz: ghz,
            cpu_efficiency: spec.cpu_efficiency,
            // Disjoint stream tag from the xfer (1000+attempt) tags.
            input_seed: derive_seed(pend.xfer_seed, 0xE8EC_0000_0000_0001),
        };
        let work = self.backend.charge(&ctx, &pend.task);
        let job = self.cpu.submit(now, work, inst);
        self.jobs.insert(inst, job);
        self.cpu
            .reschedule(now, &mut self.queue, |cpu_epoch| HostEvent::CpuPoll {
                cpu_epoch,
            });
    }

    fn on_cpu_poll(&mut self, now: SimTime, cpu_epoch: u64) {
        let Some(finished) = self.cpu.poll(now, cpu_epoch) else {
            return; // stale schedule point
        };
        for (_, inst) in finished {
            self.jobs.remove(&inst);
            let pend = self.busy[&inst];
            self.rec.set_current_request(Some(pend.req as u64));
            let t = self.io_time(pend.task.io_bytes);
            let epoch = self.epoch;
            self.queue
                .schedule(now.saturating_add(t), HostEvent::IoDone { inst, epoch });
        }
        self.cpu
            .reschedule(now, &mut self.queue, |cpu_epoch| HostEvent::CpuPoll {
                cpu_epoch,
            });
    }

    /// Offloading-I/O wall time: the shared in-memory layer for the
    /// optimized class, the virtualized disk path otherwise.
    fn io_time(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let spec = self.cfg.runtime.spec();
        if spec.uses_shared_io_layer {
            SimDuration::from_secs_f64(bytes as f64 / virt::TMPFS_BANDWIDTH)
        } else {
            let disk = self.cfg.host_specs[self.h].disk_bandwidth;
            SimDuration::from_secs_f64(bytes as f64 / (disk * spec.io_efficiency))
        }
    }

    fn on_io_done(&mut self, now: SimTime, inst: InstanceId, out: &mut Outbox<Wire>) {
        let pend = self.busy.remove(&inst).expect("instance was serving");
        self.rec.set_current_request(Some(pend.req as u64));
        self.idle.insert(inst, now);
        self.served += 1;
        out.send(
            now,
            CTL,
            Wire::Done {
                req: pend.req,
                rgen: pend.rgen,
            },
        );
        self.pump(now, out);
    }

    /// Hand idle instances to waiting requests, in FIFO order.
    fn pump(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        while !self.idle.is_empty() {
            let Some(pend) = self.wait.pop_front() else {
                return;
            };
            self.rec.set_current_request(Some(pend.req as u64));
            let inst = self.pick_idle(pend.task.kind).expect("idle non-empty");
            self.start_code_load(now, pend, inst, out);
        }
    }

    // ----------------------------------------------------------- lifecycle

    fn on_online(&mut self, now: SimTime) {
        if self.shut {
            return;
        }
        self.serving = true;
        self.drain_mode = false;
        self.epoch += 1;
        let epoch = self.epoch;
        self.queue.schedule(now, HostEvent::Maintain { epoch });
    }

    /// The host dies: every instance, job, and cached byte is lost.
    fn on_crash(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        self.serving = false;
        self.drain_mode = false;
        self.epoch += 1;
        for (_, job) in std::mem::take(&mut self.jobs) {
            self.cpu.cancel(now, job);
        }
        self.cpu
            .reschedule(now, &mut self.queue, |cpu_epoch| HostEvent::CpuPoll {
                cpu_epoch,
            });
        self.teardown_all();
        self.publish_warm(now, out);
    }

    fn on_finish_drain(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        if self.shut {
            return;
        }
        self.serving = false;
        self.drain_mode = false;
        self.epoch += 1;
        self.teardown_all();
        self.publish_warm(now, out);
    }

    fn teardown_all(&mut self) {
        for inst in self.host.instance_ids() {
            let _ = self.host.teardown(inst);
        }
        self.idle.clear();
        self.busy.clear();
        self.jobs.clear();
        self.booting.clear();
        self.pending_mig.clear();
        self.wait.clear();
        self.warehouse = AppWarehouse::new(self.cfg.warehouse_capacity);
    }

    /// Pool maintenance: reclaim instances idle past the policy
    /// window, keep the warm-spare floor, and report drain progress.
    /// Replaces the monolithic engine's central scan for everything
    /// host-local.
    fn on_maintain(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        self.rec.set_current_request(None);
        if !self.serving {
            return;
        }
        let floor = if self.drain_mode {
            0
        } else {
            self.cfg.pool.warm_spares
        };
        self.reclaim_idle(now, floor, out);
        if self.drain_mode {
            if self.busy.is_empty() && self.wait.is_empty() && self.pending_mig.is_empty() {
                out.send(now, CTL, Wire::DrainEmpty);
            }
        } else {
            self.fill_warm_pool(now);
        }
        let epoch = self.epoch;
        self.queue.schedule_in(
            self.cfg.autoscale.scan_interval,
            HostEvent::Maintain { epoch },
        );
    }

    fn reclaim_idle(&mut self, now: SimTime, floor: usize, out: &mut Outbox<Wire>) {
        let expired: Vec<InstanceId> = self
            .idle
            .iter()
            .filter(|&(_, &since)| now.saturating_since(since) >= self.cfg.pool.idle_teardown)
            .map(|(&i, _)| i)
            .collect();
        let mut changed = false;
        for inst in expired {
            if self.idle.len() <= floor {
                break;
            }
            let _ = self.host.teardown(inst);
            self.idle.remove(&inst);
            self.warehouse.invalidate_container(inst);
            changed = true;
        }
        if changed {
            self.publish_warm(now, out);
        }
    }

    /// Keep `warm_spares` instances idle or booting.
    fn fill_warm_pool(&mut self, now: SimTime) {
        while self.idle.len() + self.booting.len() < self.cfg.pool.warm_spares
            && self.host.instance_count() < self.cfg.pool.max_instances
        {
            match self.host.provision(self.cfg.runtime) {
                Ok((inst, setup)) => {
                    self.note_provisioned();
                    self.booting.insert(inst);
                    let epoch = self.epoch;
                    self.queue.schedule(
                        now.saturating_add(setup),
                        HostEvent::BootDone { inst, epoch },
                    );
                }
                Err(_) => break, // DRAM exhausted: stop growing
            }
        }
    }

    // ----------------------------------------------------------- migration

    /// Control asked this host to ship one warm container to `dst`:
    /// checkpoint the lowest-id idle instance that has an app loaded.
    fn on_mig_out(&mut self, now: SimTime, dst: usize, out: &mut Outbox<Wire>) {
        if !self.serving {
            return;
        }
        let victim = self.idle.keys().copied().find(|&i| {
            self.host
                .instance(i)
                .map(|r| !r.apps_loaded.is_empty())
                .unwrap_or(false)
        });
        let Some(victim) = victim else {
            return; // nothing warm to move; control's pacing is not spent
        };
        self.rec.set_current_request(None);
        let Ok((ckpt, freeze)) = checkpoint(&self.host, victim) else {
            return;
        };
        if self.rec.is_enabled() {
            let span = self.rec.span_start_at(
                Subsystem::Virt,
                "migrate",
                SpanId::NONE,
                now.as_micros(),
                attrs![
                    ("instance", AttrValue::U64(victim.0 as u64)),
                    ("dst", AttrValue::U64(dst as u64)),
                    ("state_bytes", AttrValue::U64(ckpt.state_bytes())),
                ],
            );
            self.rec
                .span_end_at(span, now.saturating_add(freeze).as_micros(), vec![]);
        }
        let _ = self.host.teardown(victim);
        self.idle.remove(&victim);
        self.warehouse.invalidate_container(victim);
        self.publish_warm(now, out);
        let epoch = self.epoch;
        self.queue.schedule(
            now.saturating_add(freeze),
            HostEvent::MigFrozen {
                dst,
                ckpt: Box::new(ckpt),
                epoch,
            },
        );
    }

    /// Migration state arrived over the fabric: rebuild the container.
    fn on_mig_in(&mut self, now: SimTime, mig: usize, ckpt: &Checkpoint) {
        if !self.serving || self.host.instance_count() >= self.cfg.pool.max_instances {
            return; // the move is orphaned; control never sees MigLanded
        }
        self.rec.set_current_request(None);
        let bytes = ckpt.state_bytes();
        let Ok((inst, d)) = restore(&mut self.host, ckpt) else {
            return; // DRAM is full — the state is dropped
        };
        self.note_provisioned();
        self.pending_mig.insert(inst);
        let epoch = self.epoch;
        self.queue.schedule(
            now.saturating_add(d),
            HostEvent::MigReady {
                inst,
                mig,
                bytes,
                epoch,
            },
        );
    }

    fn on_mig_ready(
        &mut self,
        now: SimTime,
        inst: InstanceId,
        mig: usize,
        bytes: u64,
        out: &mut Outbox<Wire>,
    ) {
        self.pending_mig.remove(&inst);
        self.idle.insert(inst, now);
        // Publish the arrived container's apps as warm CID hints.
        let apps: Vec<String> = self
            .host
            .instance(inst)
            .map(|r| r.apps_loaded.iter().cloned().collect())
            .unwrap_or_default();
        for app_id in apps {
            if let Some(kind) = kind_of_app(&app_id) {
                let aid = self.aids[kind_ix(kind)].clone();
                self.warehouse
                    .insert(aid.clone(), &app_id, kind.profile().app_code_bytes);
                self.warehouse.note_loaded(&aid, inst);
            }
        }
        self.publish_warm(now, out);
        out.send(now, CTL, Wire::MigLanded { mig, bytes });
        self.pump(now, out);
    }

    // ------------------------------------------------------------- helpers

    /// Diff the warehouse's warm set against what control last heard
    /// and send only the flips — the router's affinity hints.
    fn publish_warm(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        for ix in 0..self.aids.len() {
            let warm = !self.warehouse.containers_with(&self.aids[ix]).is_empty();
            if warm != self.published[ix] {
                self.published[ix] = warm;
                out.send(now, CTL, Wire::WarmInfo { kind_ix: ix, warm });
            }
        }
    }

    fn note_provisioned(&mut self) {
        self.peak_instances = self.peak_instances.max(self.host.instance_count());
        self.peak_memory = self.peak_memory.max(self.host.memory_reserved());
    }

    /// Earliest pending local event, if any (the LP's `next_time`).
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Drain local events strictly below `bound` (the LP's
    /// `run_window`), emitting control-bound messages into `out`.
    pub fn run_window(&mut self, bound: SimTime, out: &mut Outbox<Wire>) {
        while self.queue.peek_time().is_some_and(|t| t < bound) {
            let (now, ev) = self.queue.pop().expect("peeked");
            self.rec.set_now(now.as_micros());
            self.dispatch(now, ev, out);
        }
    }

    /// Deliver a control-plane message at `at` (the LP's `accept`).
    /// Hosts only ever hear from their control LP, so no source index
    /// is taken.
    pub fn accept(&mut self, at: SimTime, msg: Wire) {
        self.queue.schedule(at, HostEvent::Deliver { msg });
    }

    /// Consume the shard and surface its lifetime counters.
    pub fn finish_lp(self) -> HostOut {
        self.rec.set_current_request(None);
        HostOut {
            served: self.served,
            peak_instances: self.peak_instances,
            peak_memory: self.peak_memory,
            snapshot: self.rec.snapshot(),
        }
    }
}

// ====================================================================
// LP plumbing
// ====================================================================

enum FleetLp {
    Ctl(Box<ControlLp>),
    Host(Box<HostLp>),
}

impl Lp for FleetLp {
    type Msg = Wire;

    fn next_time(&mut self) -> Option<SimTime> {
        match self {
            FleetLp::Ctl(lp) => lp.queue.peek_time(),
            FleetLp::Host(lp) => lp.next_time(),
        }
    }

    fn run_window(&mut self, bound: SimTime, out: &mut Outbox<Wire>) {
        match self {
            FleetLp::Ctl(lp) => {
                while lp.queue.peek_time().is_some_and(|t| t < bound) {
                    let (now, ev) = lp.queue.pop().expect("peeked");
                    lp.rec.set_now(now.as_micros());
                    lp.dispatch(now, ev, out);
                }
            }
            FleetLp::Host(lp) => lp.run_window(bound, out),
        }
    }

    fn accept(&mut self, at: SimTime, src: usize, msg: Wire) {
        match self {
            FleetLp::Ctl(lp) => {
                lp.queue.schedule(at, CtlEvent::Deliver { src, msg });
            }
            FleetLp::Host(lp) => {
                let _ = src; // hosts only hear from control
                lp.accept(at, msg);
            }
        }
    }
}

struct CtlOut {
    records: Vec<FleetRequestRecord>,
    control: ControlStats,
    /// Per host: (crashes, migrations_out, migrations_in).
    hosts: Vec<(u64, u64, u64)>,
    /// Scenario-plane accounting, when the run carried a plan.
    scenario: Option<ScenarioStats>,
    snapshot: TraceSnapshot,
}

/// What a host shard reports when its run ends. Doc-hidden, public
/// for the `geo` crate (see [`HostLp`]).
#[doc(hidden)]
pub struct HostOut {
    /// Requests this host completed.
    pub served: u64,
    /// High-water mark of concurrently provisioned instances.
    pub peak_instances: usize,
    /// High-water mark of reserved memory, bytes.
    pub peak_memory: u64,
    /// The host's trace buffer, for merging in LP order.
    pub snapshot: TraceSnapshot,
}

enum LpOut {
    Ctl(CtlOut),
    Host(HostOut),
}

// ====================================================================
// Entry points
// ====================================================================

/// Run a fleet scenario to completion (untraced, serial).
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet_with(cfg, Recorder::disabled(), EngineMode::Serial)
}

/// Run a fleet scenario with an observability recorder attached.
/// Recording must not perturb the simulation: the report digest is
/// identical with a disabled recorder.
pub fn run_fleet_traced(cfg: &FleetConfig, rec: Recorder) -> FleetReport {
    run_fleet_with(cfg, rec, EngineMode::Serial)
}

/// Run a fleet scenario under an explicit [`EngineMode`]. All modes
/// and thread counts produce bit-identical reports; `Sharded` trades
/// memory for wall-clock time on large fleets.
pub fn run_fleet_with(cfg: &FleetConfig, rec: Recorder, mode: EngineMode) -> FleetReport {
    run_fleet_inner(cfg, rec, mode, None)
}

/// Run a fleet scenario with every host shard charging compute through
/// `backend` ([`exec::RealBackend`] executes the kernels for real;
/// [`exec::ReplayBackend`] replays a committed calibration
/// deterministically). `run_fleet_with` is the `Modeled` special case.
pub fn run_fleet_backend(
    cfg: &FleetConfig,
    rec: Recorder,
    mode: EngineMode,
    backend: exec::BackendHandle,
) -> FleetReport {
    run_fleet_inner(cfg, rec, mode, Some(backend))
}

fn run_fleet_inner(
    cfg: &FleetConfig,
    rec: Recorder,
    mode: EngineMode,
    backend: Option<exec::BackendHandle>,
) -> FleetReport {
    assert!(
        cfg.initial_active >= 1 && cfg.initial_active <= cfg.host_specs.len(),
        "initial_active must name a non-empty prefix of host_specs"
    );
    let shard_mode = match mode {
        EngineMode::Serial => ShardMode::Serial,
        EngineMode::Sharded(n) => ShardMode::Threads(n),
    };
    let cfg = Arc::new(cfg.clone());
    let n_lps = cfg.host_specs.len() + 1;
    let rec_cfg = rec.config();

    let build = {
        let cfg = Arc::clone(&cfg);
        move |i: usize| {
            // Each LP records into its own single-threaded recorder;
            // the snapshots merge below in LP order, so traced and
            // untraced runs pop identical event sequences.
            let lp_rec = match &rec_cfg {
                Some(c) => Recorder::enabled(c.clone()),
                None => Recorder::disabled(),
            };
            if i == CTL {
                FleetLp::Ctl(Box::new(ControlLp::new(Arc::clone(&cfg), lp_rec)))
            } else {
                let mut host = HostLp::new(Arc::clone(&cfg), i - 1, lp_rec);
                if let Some(b) = &backend {
                    host.set_backend(Arc::clone(b));
                }
                FleetLp::Host(Box::new(host))
            }
        }
    };
    let finish = |_: usize, lp: FleetLp| match lp {
        FleetLp::Ctl(c) => LpOut::Ctl(c.finish_lp()),
        FleetLp::Host(h) => LpOut::Host(h.finish_lp()),
    };

    let outs = run_sharded(n_lps, cfg.sync_window, shard_mode, build, finish);

    let mut records = Vec::new();
    let mut control = ControlStats::default();
    let mut scenario = None;
    let mut hosts: Vec<HostReport> = cfg
        .host_specs
        .iter()
        .map(|s| HostReport {
            served: 0,
            peak_instances: 0,
            peak_memory: 0,
            memory_bytes: s.memory_bytes,
            migrations_out: 0,
            migrations_in: 0,
            crashes: 0,
        })
        .collect();
    for (i, lp_out) in outs.into_iter().enumerate() {
        match lp_out {
            LpOut::Ctl(c) => {
                records = c.records;
                control = c.control;
                scenario = c.scenario;
                for (h, (crashes, out, inn)) in c.hosts.into_iter().enumerate() {
                    hosts[h].crashes = crashes;
                    hosts[h].migrations_out = out;
                    hosts[h].migrations_in = inn;
                }
                rec.import(&c.snapshot);
            }
            LpOut::Host(o) => {
                let h = i - 1;
                hosts[h].served = o.served;
                hosts[h].peak_instances = o.peak_instances;
                hosts[h].peak_memory = o.peak_memory;
                rec.import(&o.snapshot);
            }
        }
    }
    let mut report = FleetReport::summarize(records, control, hosts, cfg.traffic.duration);
    report.scenario = scenario;
    report
}

/// Collect the AIDs currently warm (live container hints) on a host —
/// exposed for tests.
#[doc(hidden)]
pub fn warm_hosts_for(aid: &Aid, warehouses: &mut [AppWarehouse]) -> Vec<usize> {
    warehouses
        .iter_mut()
        .enumerate()
        .filter(|(_, w)| !w.containers_with(aid).is_empty())
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::faults::FaultConfig;

    fn small(hosts: usize, seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::paper_default(hosts, seed);
        cfg.traffic.users = 12;
        cfg.traffic.duration = SimDuration::from_secs(600);
        cfg
    }

    #[test]
    fn every_request_terminates() {
        let rep = run_fleet(&small(2, 11));
        assert!(rep.summary.submitted > 0, "trace produced arrivals");
        for r in &rep.records {
            assert!(
                r.phase.is_terminal(),
                "request {} stuck in {:?}",
                r.id,
                r.phase
            );
        }
        assert_eq!(
            rep.summary.completed_remote + rep.summary.fallback_local + rep.summary.abandoned,
            rep.summary.submitted
        );
    }

    #[test]
    fn same_seed_same_digest() {
        let cfg = small(3, 42);
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.records.len(), b.records.len());
    }

    #[test]
    fn different_seed_different_digest() {
        assert_ne!(
            run_fleet(&small(2, 1)).digest(),
            run_fleet(&small(2, 2)).digest()
        );
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let cfg = small(2, 77);
        let untraced = run_fleet(&cfg);
        let rec = Recorder::enabled(obsv::RecorderConfig::default());
        let traced = run_fleet_traced(&cfg, rec.clone());
        assert_eq!(untraced.digest(), traced.digest());
        assert!(!rec.snapshot().events.is_empty(), "spans were recorded");
    }

    #[test]
    fn memory_is_never_oversubscribed() {
        let rep = run_fleet(&small(2, 5));
        for h in &rep.hosts {
            assert!(h.peak_memory <= h.memory_bytes);
        }
    }

    #[test]
    fn host_crash_reroutes_without_losing_requests() {
        let mut cfg = small(3, 9);
        cfg.faults = FaultConfig::scaled(1.5);
        let rep = run_fleet(&cfg);
        for r in &rep.records {
            assert!(r.phase.is_terminal());
        }
        if rep.control.host_crashes > 0 {
            assert_eq!(
                rep.summary.completed_remote + rep.summary.fallback_local + rep.summary.abandoned,
                rep.summary.submitted
            );
        }
    }

    #[test]
    fn sharded_engine_matches_serial_bit_for_bit() {
        let mut cfg = small(3, 21);
        cfg.faults = FaultConfig::scaled(1.0);
        let serial = run_fleet(&cfg);
        for threads in [1, 2, 4] {
            let sharded = run_fleet_with(&cfg, Recorder::disabled(), EngineMode::Sharded(threads));
            assert_eq!(
                serial.digest(),
                sharded.digest(),
                "Sharded({threads}) diverged from Serial"
            );
        }
    }

    #[test]
    fn migration_accounting_balances_under_churn() {
        // Faults + rebalancing exercise every drop path: out must
        // still equal in, and starts must bound completions.
        let mut cfg = small(4, 33);
        cfg.faults = FaultConfig::scaled(1.0);
        let rep = run_fleet(&cfg);
        let out: u64 = rep.hosts.iter().map(|h| h.migrations_out).sum();
        let inn: u64 = rep.hosts.iter().map(|h| h.migrations_in).sum();
        assert_eq!(out, inn);
        assert!(rep.control.migrations_completed <= rep.control.migrations_started);
    }

    #[test]
    fn warehouse_helper_reports_warm_hosts() {
        let mut ws = vec![AppWarehouse::new(1 << 20), AppWarehouse::new(1 << 20)];
        let aid = aid_of("com.bench.ocr");
        ws[1].insert(aid.clone(), "com.bench.ocr", 1024);
        ws[1].note_loaded(&aid, InstanceId(3));
        assert_eq!(warm_hosts_for(&aid, &mut ws), vec![1]);
    }
}
