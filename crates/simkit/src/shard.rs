//! Sharded discrete-event execution with conservative time-window
//! synchronization.
//!
//! A simulation is decomposed into *logical processes* (LPs), each
//! owning a private [`EventQueue`](crate::EventQueue) and advancing
//! freely inside a global time window. Cross-LP interaction happens
//! only through messages carried by [`Envelope`]s with a fixed minimum
//! latency — the *sync window* `W`, derived by the caller from the
//! slowest physical path between shards (e.g. the cross-host fabric
//! hop). Because every message sent inside window `[B−W, B)` is
//! delivered at or after the boundary `B`, LPs can never receive an
//! event in their own past: the classic conservative-lookahead
//! argument of parallel discrete-event simulation.
//!
//! Determinism contract: for a fixed LP decomposition and window, the
//! serial runner and the threaded runner (worker threads each owning a
//! contiguous LP range) produce **bit-identical** executions. Both
//! process windows in the same sequence, each LP touches only its own
//! queue inside a window, and envelopes are delivered sorted by the
//! total key `(deliver_at, src, seq)`. No step depends on thread
//! scheduling; threads change wall-clock time only.

use crate::time::{SimDuration, SimTime};
use std::sync::mpsc;

/// A cross-LP message in flight.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Absolute delivery time (send time + the sync window).
    pub at: SimTime,
    /// Sending LP index.
    pub src: usize,
    /// Receiving LP index.
    pub dst: usize,
    /// Per-source send sequence (monotone; with `src` a total order).
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// Per-LP outbox handed to [`Lp::run_window`]. Sends are buffered for
/// exchange at the next window barrier; each costs the full sync
/// window in latency.
#[derive(Debug)]
pub struct Outbox<M> {
    src: usize,
    latency: SimDuration,
    seq: u64,
    out: Vec<Envelope<M>>,
}

impl<M> Outbox<M> {
    fn new(src: usize, latency: SimDuration) -> Self {
        Outbox {
            src,
            latency,
            seq: 0,
            out: Vec::new(),
        }
    }

    /// Send `msg` to LP `dst`; it is delivered at `now + W`.
    pub fn send(&mut self, now: SimTime, dst: usize, msg: M) {
        let seq = self.seq;
        self.seq += 1;
        self.out.push(Envelope {
            at: now.saturating_add(self.latency),
            src: self.src,
            dst,
            seq,
            msg,
        });
    }

    fn drain(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.out)
    }
}

/// One logical process of a sharded simulation.
///
/// Implementations are usually `!Send` (they hold `Rc`-based recorders
/// or kernel state); the runner therefore *constructs* each LP inside
/// the worker thread that owns it, via a `Send + Sync` builder, and
/// converts it to a `Send` output there too.
pub trait Lp {
    /// Cross-LP message type.
    type Msg;

    /// Timestamp of the LP's next pending event, if any. Takes `&mut`
    /// so implementations can peek through an
    /// [`EventQueue`](crate::EventQueue) (which drains cancellations
    /// on peek).
    fn next_time(&mut self) -> Option<SimTime>;

    /// Process every pending event strictly before `bound`, sending
    /// cross-LP messages through `out`. With no event before `bound`
    /// this must do nothing: the serial runner skips such LPs.
    fn run_window(&mut self, bound: SimTime, out: &mut Outbox<Self::Msg>);

    /// Accept a delivered envelope: schedule it in the local queue at
    /// `at` (never in this LP's past — the runner guarantees `at` is
    /// at or past the last window boundary).
    fn accept(&mut self, at: SimTime, src: usize, msg: Self::Msg);
}

/// How many worker threads drive the LPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Single-threaded reference execution on the caller thread.
    Serial,
    /// `n` worker threads, each owning a contiguous range of LPs.
    /// Clamped to `[1, n_lps]`; `Threads(1)` still spawns one worker
    /// (useful for exercising the exchange plumbing).
    Threads(usize),
}

/// Smallest multiple of `window` strictly greater than `t` — the next
/// window boundary. All events `< bound` are safe to execute: any
/// message they send is delivered at `>= t_min + W >= bound`.
fn next_boundary(t: SimTime, window: SimDuration) -> SimTime {
    let w = window.as_micros();
    let b = (t.as_micros() / w + 1).saturating_mul(w);
    SimTime::from_micros(b)
}

/// Sort envelopes destined for one LP into their canonical delivery
/// order. `(at, src, seq)` is a total order: `seq` is unique per
/// `src`.
fn sort_for_delivery<M>(batch: &mut [Envelope<M>]) {
    batch.sort_by_key(|e| (e.at, e.src, e.seq));
}

/// Run `n_lps` logical processes to completion under conservative
/// window synchronization and return each LP's output, in LP index
/// order.
///
/// `build(i)` constructs LP `i` (called once, inside the owning
/// thread); `finish(i, lp)` converts a drained LP into its `Send`
/// output. The run terminates when every queue is empty and no
/// envelope is in flight.
pub fn run_sharded<L, O, B, F>(
    n_lps: usize,
    window: SimDuration,
    mode: ShardMode,
    build: B,
    finish: F,
) -> Vec<O>
where
    L: Lp,
    L::Msg: Send,
    O: Send,
    B: Fn(usize) -> L + Send + Sync,
    F: Fn(usize, L) -> O + Send + Sync,
{
    assert!(n_lps > 0, "a sharded run needs at least one LP");
    assert!(!window.is_zero(), "the sync window must be positive");
    match mode {
        ShardMode::Serial => run_serial(n_lps, window, build, finish),
        ShardMode::Threads(t) => run_threaded(n_lps, window, t.clamp(1, n_lps), build, finish),
    }
}

fn run_serial<L, O, B, F>(n_lps: usize, window: SimDuration, build: B, finish: F) -> Vec<O>
where
    L: Lp,
    B: Fn(usize) -> L,
    F: Fn(usize, L) -> O,
{
    let mut lps: Vec<L> = (0..n_lps).map(&build).collect();
    let mut outboxes: Vec<Outbox<L::Msg>> = (0..n_lps).map(|i| Outbox::new(i, window)).collect();
    // Each LP's next event time. A queue changes only in its own
    // `run_window` and `accept`, so refreshing after those keeps it
    // exact without peeking every LP every window.
    let mut next: Vec<Option<SimTime>> = lps.iter_mut().map(|l| l.next_time()).collect();
    let mut pending: Vec<Envelope<L::Msg>> = Vec::new();
    loop {
        // Deliver last window's envelopes in canonical order.
        sort_for_delivery(&mut pending);
        for env in pending.drain(..) {
            let lp = &mut lps[env.dst];
            lp.accept(env.at, env.src, env.msg);
            next[env.dst] = lp.next_time();
        }
        // Next boundary from the global minimum next-event time.
        let Some(t_min) = next.iter().flatten().min().copied() else {
            break;
        };
        let bound = next_boundary(t_min, window);
        // An LP with nothing before the bound would run an empty
        // window; skip it.
        for (i, lp) in lps.iter_mut().enumerate() {
            if next[i].is_some_and(|t| t < bound) {
                lp.run_window(bound, &mut outboxes[i]);
                next[i] = lp.next_time();
                pending.append(&mut outboxes[i].drain());
            }
        }
    }
    lps.into_iter()
        .enumerate()
        .map(|(i, lp)| finish(i, lp))
        .collect()
}

/// Coordinator → worker commands.
enum Cmd<M> {
    /// Deliver these envelopes (already in canonical order), then
    /// report the minimum next-event time over the worker's LPs.
    Deliver(Vec<Envelope<M>>),
    /// Run every owned LP up to `bound`, then report outbound
    /// envelopes.
    Run(SimTime),
    /// Drain the LPs into outputs and exit.
    Stop,
}

/// Worker → coordinator replies.
enum Reply<M, O> {
    Min(Option<SimTime>),
    Ran(Vec<Envelope<M>>),
    Done(Vec<O>),
}

fn run_threaded<L, O, B, F>(
    n_lps: usize,
    window: SimDuration,
    threads: usize,
    build: B,
    finish: F,
) -> Vec<O>
where
    L: Lp,
    L::Msg: Send,
    O: Send,
    B: Fn(usize) -> L + Send + Sync,
    F: Fn(usize, L) -> O + Send + Sync,
{
    // Contiguous LP ranges: worker w owns [starts[w], starts[w+1]).
    let base = n_lps / threads;
    let extra = n_lps % threads;
    let mut starts = Vec::with_capacity(threads + 1);
    let mut acc = 0;
    for w in 0..threads {
        starts.push(acc);
        acc += base + usize::from(w < extra);
    }
    starts.push(acc);

    let build = &build;
    let finish = &finish;
    std::thread::scope(|scope| {
        let mut cmd_txs = Vec::with_capacity(threads);
        let (reply_tx, reply_rx) = mpsc::channel::<(usize, Reply<L::Msg, O>)>();
        for w in 0..threads {
            let (tx, rx) = mpsc::channel::<Cmd<L::Msg>>();
            cmd_txs.push(tx);
            let reply_tx = reply_tx.clone();
            let (lo, hi) = (starts[w], starts[w + 1]);
            scope.spawn(move || {
                let mut lps: Vec<L> = (lo..hi).map(build).collect();
                let mut outboxes: Vec<Outbox<L::Msg>> =
                    (lo..hi).map(|i| Outbox::new(i, window)).collect();
                for cmd in rx {
                    match cmd {
                        Cmd::Deliver(batch) => {
                            for env in batch {
                                lps[env.dst - lo].accept(env.at, env.src, env.msg);
                            }
                            let min = lps.iter_mut().filter_map(|l| l.next_time()).min();
                            let _ = reply_tx.send((w, Reply::Min(min)));
                        }
                        Cmd::Run(bound) => {
                            for (i, lp) in lps.iter_mut().enumerate() {
                                lp.run_window(bound, &mut outboxes[i]);
                            }
                            let mut out = Vec::new();
                            for ob in &mut outboxes {
                                out.append(&mut ob.drain());
                            }
                            let _ = reply_tx.send((w, Reply::Ran(out)));
                        }
                        Cmd::Stop => {
                            let outs: Vec<O> = lps
                                .drain(..)
                                .enumerate()
                                .map(|(i, lp)| finish(lo + i, lp))
                                .collect();
                            let _ = reply_tx.send((w, Reply::Done(outs)));
                            break;
                        }
                    }
                }
            });
        }
        drop(reply_tx);

        let owner = |lp: usize| starts.partition_point(|&s| s <= lp) - 1;
        let mut pending: Vec<Envelope<L::Msg>> = Vec::new();
        loop {
            // Exchange: canonical order globally, partitioned by owner
            // (partitioning a sorted list keeps each batch sorted).
            sort_for_delivery(&mut pending);
            let mut batches: Vec<Vec<Envelope<L::Msg>>> =
                (0..threads).map(|_| Vec::new()).collect();
            for env in pending.drain(..) {
                batches[owner(env.dst)].push(env);
            }
            for (w, batch) in batches.into_iter().enumerate() {
                cmd_txs[w].send(Cmd::Deliver(batch)).expect("worker alive");
            }
            let mut t_min: Option<SimTime> = None;
            for _ in 0..threads {
                let (_, reply) = reply_rx.recv().expect("worker alive");
                let Reply::Min(m) = reply else {
                    unreachable!("deliver replies with Min")
                };
                t_min = match (t_min, m) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            let Some(t_min) = t_min else { break };
            let bound = next_boundary(t_min, window);
            for tx in &cmd_txs {
                tx.send(Cmd::Run(bound)).expect("worker alive");
            }
            for _ in 0..threads {
                let (_, reply) = reply_rx.recv().expect("worker alive");
                let Reply::Ran(out) = reply else {
                    unreachable!("run replies with Ran")
                };
                pending.extend(out);
            }
        }
        for tx in &cmd_txs {
            tx.send(Cmd::Stop).expect("worker alive");
        }
        let mut outs: Vec<Option<Vec<O>>> = (0..threads).map(|_| None).collect();
        for _ in 0..threads {
            let (w, reply) = reply_rx.recv().expect("worker alive");
            let Reply::Done(o) = reply else {
                unreachable!("stop replies with Done")
            };
            outs[w] = Some(o);
        }
        outs.into_iter()
            .flat_map(|o| o.expect("all replied"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    /// Toy LP: a token-passing ring. Each LP holds a queue of `u64`
    /// payloads; on pop it folds the payload into a digest and, while
    /// hops remain, forwards `payload + 1` to the next LP.
    struct RingLp {
        idx: usize,
        n: usize,
        q: EventQueue<u64>,
        digest: u64,
        hops: u64,
    }

    fn ring_lp(i: usize, n: usize, hops: u64) -> RingLp {
        let mut q = EventQueue::new();
        if i == 0 && hops > 0 {
            q.schedule(SimTime::from_micros(1), 0);
        }
        RingLp {
            idx: i,
            n,
            q,
            digest: 0x9e37_79b9_7f4a_7c15,
            hops,
        }
    }

    impl Lp for RingLp {
        type Msg = u64;
        fn next_time(&mut self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn run_window(&mut self, bound: SimTime, out: &mut Outbox<u64>) {
            while self.q.peek_time().is_some_and(|t| t < bound) {
                let (now, v) = self.q.pop().unwrap();
                self.digest = self.digest.rotate_left(7).wrapping_add(v ^ now.as_micros());
                if v < self.hops {
                    out.send(now, (self.idx + 1) % self.n, v + 1);
                }
            }
        }
        fn accept(&mut self, at: SimTime, _src: usize, msg: u64) {
            self.q.schedule(at, msg);
        }
    }

    fn run_ring(n: usize, hops: u64, mode: ShardMode) -> Vec<u64> {
        run_sharded(
            n,
            SimDuration::from_millis(1),
            mode,
            |i| ring_lp(i, n, hops),
            |_, lp| lp.digest,
        )
    }

    #[test]
    fn serial_and_threaded_rings_agree() {
        let serial = run_ring(5, 400, ShardMode::Serial);
        for threads in [1usize, 2, 3, 5, 8] {
            assert_eq!(
                serial,
                run_ring(5, 400, ShardMode::Threads(threads)),
                "threads={threads} diverged from serial"
            );
        }
    }

    /// Toy LP for sparse activity: each pop folds `(now, payload)` into
    /// a digest, forwards to a payload-chosen LP while hops remain, and
    /// sometimes re-arms itself tens of windows ahead. The last LP
    /// starts empty and wakes only when an envelope reaches it.
    struct SparseLp {
        idx: usize,
        n: usize,
        q: EventQueue<u64>,
        digest: u64,
        pops: u64,
        first: Option<SimTime>,
    }

    impl Lp for SparseLp {
        type Msg = u64;
        fn next_time(&mut self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn run_window(&mut self, bound: SimTime, out: &mut Outbox<u64>) {
            while self.q.peek_time().is_some_and(|t| t < bound) {
                let (now, v) = self.q.pop().unwrap();
                self.first.get_or_insert(now);
                self.pops += 1;
                self.digest = self.digest.rotate_left(9) ^ v.wrapping_mul(now.as_micros() | 1);
                if v == 0 {
                    continue;
                }
                out.send(now, (v as usize * 7 + self.idx) % self.n, v - 1);
                if v % 3 == 0 {
                    let later = SimDuration::from_millis(20 + v % 40);
                    self.q.schedule(now.saturating_add(later), v / 2);
                }
            }
        }
        fn accept(&mut self, at: SimTime, _src: usize, msg: u64) {
            self.q.schedule(at, msg);
        }
    }

    fn run_sparse(n: usize, mode: ShardMode) -> Vec<(u64, u64, Option<SimTime>)> {
        run_sharded(
            n,
            SimDuration::from_millis(1),
            mode,
            |i| {
                let mut q = EventQueue::new();
                if i + 1 < n && i % 3 == 0 {
                    q.schedule(SimTime::from_micros(1 + 37_000 * i as u64), 40 + i as u64);
                }
                SparseLp {
                    idx: i,
                    n,
                    q,
                    digest: 0,
                    pops: 0,
                    first: None,
                }
            },
            |_, lp| (lp.digest, lp.pops, lp.first),
        )
    }

    #[test]
    fn serial_skips_idle_lps_without_changing_the_run() {
        let n = 24;
        let serial = run_sparse(n, ShardMode::Serial);
        // Most LPs start idle; the last one has no event until an
        // envelope wakes it, well after the run began.
        let (_, pops, first) = serial[n - 1];
        assert!(pops > 0, "the empty LP was never woken");
        assert!(first.expect("woken") > SimTime::from_micros(2_000));
        assert!(serial.iter().all(|&(_, pops, _)| pops > 0));
        for threads in [1usize, 2, 3, 7, n] {
            assert_eq!(
                serial,
                run_sparse(n, ShardMode::Threads(threads)),
                "threads={threads} diverged from serial"
            );
        }
    }

    #[test]
    fn empty_simulation_terminates() {
        let out = run_sharded(
            3,
            SimDuration::from_millis(1),
            ShardMode::Threads(2),
            |i| ring_lp(i, 3, 0),
            |i, _| i,
        );
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn boundary_is_strictly_after_t() {
        let w = SimDuration::from_millis(1);
        assert_eq!(
            next_boundary(SimTime::from_micros(0), w),
            SimTime::from_micros(1000)
        );
        assert_eq!(
            next_boundary(SimTime::from_micros(999), w),
            SimTime::from_micros(1000)
        );
        assert_eq!(
            next_boundary(SimTime::from_micros(1000), w),
            SimTime::from_micros(2000),
            "a boundary-time event runs before the *next* boundary"
        );
    }

    #[test]
    fn messages_never_deliver_into_the_current_window() {
        // Every send from a window lands at or after the next
        // boundary: at = now + W and now >= bound - W.
        let mut ob = Outbox::new(0, SimDuration::from_millis(1));
        ob.send(SimTime::from_micros(1_999), 1, 7u64);
        let env = ob.drain().pop().unwrap();
        assert!(env.at >= SimTime::from_micros(2_000));
        assert_eq!(env.seq, 0);
        ob.send(SimTime::from_micros(1_999), 1, 8u64);
        assert_eq!(ob.drain().pop().unwrap().seq, 1, "per-src seq is monotone");
    }
}
