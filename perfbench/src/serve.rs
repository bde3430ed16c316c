//! The `serve_offload` workload: `fleet::FleetHandler` behind
//! `exec::serve` on loopback, driven over persistent pipelined
//! connections, open loop for latency and closed loop for the
//! sustained rate. Every reply's checksum is checked against
//! `exec::execute_kernel`.

use crate::stats::{median, peak_rss_mb, quantile, Rng};
use crate::trace::Tracer;
use crate::{sim, Measured, Metrics, Provenance};
use exec::serve::{serve, OffloadHandler, OffloadRequest, OffloadResponse};
use exec::{execute_kernel, SizeClass};
use fleet::{FleetHandler, Router};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use workloads::WorkloadKind;

/// `exec_serve`'s defaults: hosts, workers per host, per-host bound.
const HOSTS: usize = 3;
const WORKERS: usize = 2;
const MAX_IN_FLIGHT: usize = 8;
/// Zipf exponent of the app mix, as the fleet's `paper_default`.
const APP_SKEW: f64 = 1.2;
/// Distinct OCR inputs in the deck; the other apps get fewer, by
/// their Zipf weight (292 OCR, 127 chess, 78 virus scan, 55 Linpack).
/// Kernel cost varies widely between inputs (a chess search runs from
/// under 1 ms to over 50 ms), so many distinct inputs keep the latency
/// quantiles from jumping between a few discrete levels.
const DECK_OCR: usize = 292;
/// Seed of the fixed deck of kernel inputs.
const KERNEL_POOL_SEED: u64 = 0x6b65_726e_656c;
/// The reference rate of the open-loop phase, requests/s.
const REFERENCE_RATE: f64 = 30.0;
/// Requests kept in flight per connection in the saturation phase.
const WINDOW: usize = 4;
/// A request with no reply this long after its phase ended has failed.
const REPLY_LIMIT: Duration = Duration::from_secs(5);
/// Set-up repetitions per run (their median is `setup_s`): at least
/// the first, and more while they fit the set-up budget in seconds.
const SETUP_REPS: (usize, usize) = (20, 8000);
const SETUP_BUDGET_S: f64 = 2.0;

/// The workload's requests and the checksum each must come back with.
struct Mix {
    requests: Vec<OffloadRequest>,
    lines: Vec<String>,
    expected: BTreeMap<(WorkloadKind, u64), u64>,
}

impl Mix {
    /// `len` requests: shuffled copies of one fixed deck of kernel
    /// inputs. The deck holds each app in proportion to its Zipf weight,
    /// every input once, so every run offers the same kernel work and
    /// its seed decides only the order.
    fn new(seed: u64, len: usize) -> Mix {
        let deck = Mix::deck();
        let mut rng = Rng::new(seed);
        let mut requests = Vec::with_capacity(len + deck.len());
        while requests.len() < len {
            let mut round = deck.clone();
            for i in (1..round.len()).rev() {
                round.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            requests.extend(round);
        }
        requests.truncate(len);
        let lines = requests
            .iter()
            .map(|r| format!("{}\n", r.to_json()))
            .collect();
        let expected = deck
            .iter()
            .map(|r| {
                (
                    (r.kind, r.seed),
                    execute_kernel(r.kind, r.size, r.seed).checksum,
                )
            })
            .collect();
        Mix {
            requests,
            lines,
            expected,
        }
    }

    fn deck() -> Vec<OffloadRequest> {
        let weights: Vec<f64> = (1..=WorkloadKind::ALL.len())
            .map(|rank| 1.0 / (rank as f64).powf(APP_SKEW))
            .collect();
        // The wire format carries numbers as JSON doubles, so kernel
        // seeds stay below 2^53 to arrive exactly.
        let mut rng = Rng::new(KERNEL_POOL_SEED);
        WorkloadKind::ALL
            .iter()
            .zip(&weights)
            .flat_map(|(&kind, w)| {
                let copies = (DECK_OCR as f64 * w / weights[0]).round() as usize;
                (0..copies)
                    .map(|_| OffloadRequest {
                        kind,
                        size: SizeClass::Small,
                        seed: rng.next_u64() >> 11,
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Whether `reply` is a successful, correct answer to request `i`.
    fn verify(&self, i: usize, reply: &str) -> Result<OffloadResponse, String> {
        let resp = OffloadResponse::from_json(reply)?;
        if !resp.ok {
            return Err(format!("error reply: {}", resp.error));
        }
        let req = &self.requests[i];
        if self.expected.get(&(req.kind, req.seed)) != Some(&resp.checksum) {
            return Err(format!("checksum mismatch for {}", req.to_json()));
        }
        Ok(resp)
    }
}

/// One request as the generator saw it, times from the phase start.
#[derive(Debug, Clone)]
struct Sample {
    req: usize,
    due: Duration,
    sent: Duration,
    recv: Option<Duration>,
    reply: Option<String>,
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Requests due at a fixed rate whether or not replies came back.
    Open { rate: f64 },
    /// Each connection keeps `window` requests in flight.
    Closed { window: usize },
}

/// Longest the generator sleeps between looking for replies; it bounds
/// how late a reply's arrival can be stamped. The closed-loop phase
/// reports only a rate, so it polls less often and leaves the CPUs to
/// the server.
const POLL: Duration = Duration::from_micros(100);
const CLOSED_POLL: Duration = Duration::from_millis(1);

/// Drive one persistent connection from one thread: send each request
/// when due (or, under a closed plan, while fewer than `window` are in
/// flight) and stamp replies as they arrive. The socket is
/// non-blocking and the thread sleeps at most [`POLL`] at a time,
/// because socket read timeouts are only as fine as the kernel tick.
fn drive_connection(
    addr: SocketAddr,
    lines: &[String],
    jobs: &[(usize, Duration)],
    window: Option<usize>,
    length: Duration,
    t0: Instant,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut next = 0;
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        Ok(s)
    });
    if let Ok(mut stream) = connected {
        let mut in_flight = VecDeque::new();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        let hard_stop = t0 + length + REPLY_LIMIT;
        'run: loop {
            let since = t0.elapsed();
            while next < jobs.len() {
                let (req, due) = jobs[next];
                let may_send = match window {
                    Some(w) => in_flight.len() < w && since < length,
                    None => due <= since,
                };
                if !may_send {
                    break;
                }
                let sent = t0.elapsed();
                if write_fully(&mut stream, lines[req].as_bytes()).is_err() {
                    break 'run;
                }
                samples.push(Sample {
                    req,
                    due: if window.is_some() { sent } else { due },
                    sent,
                    recv: None,
                    reply: None,
                });
                in_flight.push_back(samples.len() - 1);
                next += 1;
            }
            let mut got_data = false;
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => break 'run,
                    Ok(n) => {
                        got_data = true;
                        buf.extend_from_slice(&chunk[..n]);
                        let at = t0.elapsed();
                        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                            let line: Vec<u8> = buf.drain(..=pos).collect();
                            let Some(i) = in_flight.pop_front() else {
                                break 'run; // a reply nobody asked for
                            };
                            samples[i].recv = Some(at);
                            samples[i].reply =
                                Some(String::from_utf8_lossy(&line[..pos]).into_owned());
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break 'run,
                }
            }
            let now = Instant::now();
            let sending_done = next == jobs.len() || (window.is_some() && since >= length);
            if (sending_done && in_flight.is_empty()) || now >= hard_stop {
                break;
            }
            if got_data {
                continue;
            }
            let poll = if window.is_some() { CLOSED_POLL } else { POLL };
            let until_due = match (sending_done, window) {
                (false, None) => (t0 + jobs[next].1).saturating_duration_since(now),
                _ => poll,
            };
            std::thread::sleep(until_due.min(poll));
        }
    }
    if window.is_none() {
        // Open-loop requests never sent count as failed too.
        for &(req, due) in &jobs[next..] {
            samples.push(Sample {
                req,
                due,
                sent: due,
                recv: None,
                reply: None,
            });
        }
    }
    samples
}

/// `write_all` for a non-blocking socket.
fn write_fully(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(POLL)
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Run one phase of `length` over `conns` connections, one thread
/// each. Request `i` of the phase uses `mix` entry `(first + i) % len`.
fn phase(
    addr: SocketAddr,
    mix: &Mix,
    first: usize,
    plan: Plan,
    length: Duration,
    conns: usize,
) -> Vec<Sample> {
    let n = mix.requests.len();
    let jobs: Vec<Vec<(usize, Duration)>> = (0..conns)
        .map(|c| match plan {
            Plan::Open { rate } => {
                let total = (rate * length.as_secs_f64()).ceil() as usize;
                (0..total)
                    .filter(|i| i % conns == c)
                    .map(|i| ((first + i) % n, Duration::from_secs_f64(i as f64 / rate)))
                    .collect()
            }
            Plan::Closed { .. } => (0..n / conns)
                .map(|j| ((first + c + j * conns) % n, Duration::ZERO))
                .collect(),
        })
        .collect();
    let window = match plan {
        Plan::Open { .. } => None,
        Plan::Closed { window } => Some(window),
    };
    let t0 = Instant::now();
    let mut out: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|j| s.spawn(|| drive_connection(addr, &mix.lines, j, window, length, t0)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    out.sort_by_key(|s| s.due);
    out
}

/// Verify every sample; returns the successful ones with their replies.
fn verify_all<'a>(
    mix: &Mix,
    samples: &'a [Sample],
    failed: &mut u64,
    problems: &mut Vec<String>,
) -> Vec<(&'a Sample, OffloadResponse)> {
    let mut ok = Vec::new();
    for s in samples {
        let verdict = match &s.reply {
            None => Err("no reply within the limit".to_string()),
            Some(r) => mix.verify(s.req, r),
        };
        match verdict {
            Ok(resp) => ok.push((s, resp)),
            Err(e) => {
                *failed += 1;
                if problems.len() < 5 {
                    problems.push(e);
                }
            }
        }
    }
    ok
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency of each successful open-loop request, from when it was due.
fn latencies_ms(ok: &[(&Sample, OffloadResponse)]) -> Vec<f64> {
    ok.iter()
        .map(|(s, _)| ms(s.recv.expect("verified").saturating_sub(s.due)))
        .collect()
}

fn lateness_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| ms(s.sent.saturating_sub(s.due)))
        .collect()
}

/// Wall time from `serve()` + `FleetHandler::new` to the first verified
/// reply on a fresh connection.
fn setup_once(mix: &Mix) -> Result<f64, String> {
    let probe = mix
        .requests
        .iter()
        .position(|r| r.kind == WorkloadKind::Linpack)
        .unwrap_or(0);
    let t = Instant::now();
    let mut server = serve(
        "127.0.0.1:0",
        FleetHandler::new(HOSTS, WORKERS, MAX_IN_FLIGHT),
    )
    .map_err(|e| format!("serve: {e}"))?;
    let mut stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(REPLY_LIMIT));
    stream
        .write_all(mix.lines[probe].as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    match BufReader::new(&stream).read_line(&mut reply) {
        Ok(n) if n > 0 && reply.ends_with('\n') => {}
        _ => return Err("setup: no reply".into()),
    }
    mix.verify(probe, reply.trim_end())?;
    let wall = t.elapsed().as_secs_f64();
    drop(stream);
    server.shutdown();
    Ok(wall)
}

/// Set-up repetitions, timed one by one.
#[derive(Default)]
struct Setups {
    /// Scaled to quiet-host speed (see `host`).
    walls: Vec<f64>,
    raw: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Setups {
    /// One share of the run's set-up reps: `share` of the budget and of
    /// each bound on the count. The run takes its shares at points
    /// spread over its length, so one slow spell of the machine
    /// does not decide `setup_s`. The host's speed before and after
    /// the share scales it.
    fn take(&mut self, mix: &Mix, share: f64) {
        let (min, max) = (
            (SETUP_REPS.0 as f64 * share).ceil() as u64,
            (SETUP_REPS.1 as f64 * share).ceil() as u64,
        );
        let budget = SETUP_BUDGET_S * share;
        let before = crate::host::slowdown_apart(budget);
        let (start, from, batch_from) = (Instant::now(), self.attempted, self.raw.len());
        while self.attempted - from < min
            || (self.attempted - from < max && start.elapsed().as_secs_f64() < budget)
        {
            self.attempted += 1;
            match setup_once(mix) {
                Ok(w) => self.raw.push(w),
                Err(e) => {
                    self.failed += 1;
                    if self.problems.len() < 5 {
                        self.problems.push(e);
                    }
                }
            }
        }
        let scale = (before * crate::host::slowdown_apart(budget)).sqrt();
        let batch = &self.raw[batch_from..];
        self.walls.extend(batch.iter().map(|w| w / scale));
    }
}

fn connections(prov: &Provenance) -> usize {
    prov.nproc.clamp(1, 2)
}

/// The untraced run: a warm-up, the reference-rate phase for latency,
/// then a closed-loop phase for the sustained rate, with a quarter of
/// the set-up reps before, between and after them.
pub fn run_end_to_end(prov: &Provenance, seconds: f64) -> Measured {
    let mix = Mix::new(prov.seed, 8192);
    let mut setups = Setups::default();
    setups.take(&mix, 0.25);

    let conns = connections(prov);
    let mut server = serve(
        "127.0.0.1:0",
        FleetHandler::new(HOSTS, WORKERS, MAX_IN_FLIGHT),
    )
    .expect("bind a loopback port");
    let addr = server.addr();
    let open = Plan::Open {
        rate: REFERENCE_RATE,
    };
    let warm = phase(addr, &mix, 0, open, Duration::from_millis(500), conns);
    setups.take(&mix, 0.25);
    let reference_len = Duration::from_secs_f64(seconds * 0.7);
    let reference = phase(addr, &mix, warm.len(), open, reference_len, conns);
    setups.take(&mix, 0.25);
    let saturation_len = Duration::from_secs_f64(seconds * 0.2);
    let saturation = phase(
        addr,
        &mix,
        warm.len() + reference.len(),
        Plan::Closed { window: WINDOW },
        saturation_len,
        conns,
    );
    server.shutdown();
    setups.take(&mix, 0.25);

    let Setups {
        walls: setup,
        raw: raw_setup,
        mut attempted,
        mut failed,
        mut problems,
    } = setups;
    attempted += (warm.len() + reference.len() + saturation.len()) as u64;
    verify_all(&mix, &warm, &mut failed, &mut problems);
    let ok_ref = verify_all(&mix, &reference, &mut failed, &mut problems);
    let ok_sat = verify_all(&mix, &saturation, &mut failed, &mut problems);
    let lat = latencies_ms(&ok_ref);
    let sat_span = ok_sat
        .iter()
        .filter_map(|(s, _)| s.recv)
        .max()
        .unwrap_or(saturation_len)
        .as_secs_f64();
    let late = lateness_ms(&reference);

    let mut m = Metrics::default();
    m.put("throughput_rps", ok_sat.len() as f64 / sat_span);
    m.put("setup_s", median(&setup));
    m.put("peak_rss_mb", peak_rss_mb());
    m.put("offload_p50_ms", quantile(&lat, 0.5).unwrap_or(0.0));
    m.put("offload_p95_ms", quantile(&lat, 0.95).unwrap_or(0.0));
    let p99 = quantile(&lat, 0.99).unwrap_or(0.0);
    let notes = vec![
        format!(
            "setup: {} reps, raw median {:.6} s, raw p10 {:.6} s, raw p90 {:.6} s",
            raw_setup.len(),
            median(&raw_setup),
            quantile(&raw_setup, 0.1).unwrap_or(0.0),
            quantile(&raw_setup, 0.9).unwrap_or(0.0)
        ),
        format!(
            "reference: {REFERENCE_RATE} req/s open loop on {conns} connections, {} samples, {} beyond p95",
            lat.len(),
            lat.iter().filter(|&&x| x > quantile(&lat, 0.95).unwrap_or(0.0)).count()
        ),
        format!(
            "reference p90 {:.3} ms, p99 {p99:.3} ms",
            quantile(&lat, 0.90).unwrap_or(0.0)
        ),
        format!(
            "generator late p50 {:.3} ms, p99 {:.3} ms",
            quantile(&late, 0.5).unwrap_or(0.0),
            quantile(&late, 0.99).unwrap_or(0.0)
        ),
        format!(
            "saturation: {} replies in {sat_span:.3} s with {WINDOW} in flight per connection",
            ok_sat.len()
        ),
    ];
    Measured {
        metrics: m,
        attempted,
        failed,
        problems,
        notes,
    }
}

/// How the handler placed a request, from its reply's detail.
fn reason_of(resp: &OffloadResponse) -> &str {
    resp.detail.rsplit(" via ").next().unwrap_or("")
}

/// The traced run: a reference phase whose requests become spans, then
/// an in-process replay of those requests through
/// `OffloadRequest::from_json`, `FleetHandler::handle`,
/// `execute_kernel` and the handler's own `Router`.
pub fn run_traced(prov: &Provenance, tracer: &mut Tracer, seconds: f64) -> Measured {
    let mix = Mix::new(prov.seed, 8192);
    let (mut failed, mut problems) = (0u64, Vec::new());
    let conns = connections(prov);

    let news: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let h = FleetHandler::new(HOSTS, WORKERS, MAX_IN_FLIGHT);
            let wall = t.elapsed().as_secs_f64();
            drop(h);
            wall
        })
        .collect();
    let rebuild: Vec<f64> = (0..5)
        .map(|_| {
            let mut r = Router::new(64);
            let t = Instant::now();
            r.rebuild(&(0..HOSTS).collect());
            black_box(&r);
            t.elapsed().as_secs_f64()
        })
        .collect();

    let mut server = serve(
        "127.0.0.1:0",
        FleetHandler::new(HOSTS, WORKERS, MAX_IN_FLIGHT),
    )
    .expect("bind a loopback port");
    let addr = server.addr();
    let open = Plan::Open {
        rate: REFERENCE_RATE,
    };
    let len = Duration::from_secs_f64(seconds * 0.6);
    let warm = phase(addr, &mix, 0, open, Duration::from_millis(500), conns);
    let origin = Instant::now();
    let traced = phase(addr, &mix, warm.len(), open, len, conns);
    server.shutdown();

    let attempted = (warm.len() + traced.len()) as u64;
    verify_all(&mix, &warm, &mut failed, &mut problems);
    let ok_t = verify_all(&mix, &traced, &mut failed, &mut problems);

    // Spans of the traced phase, one id per request: the request from
    // due to reply, and the generator's lateness inside it.
    for (i, s) in traced.iter().enumerate() {
        let id = i as u64;
        if let Some(recv) = s.recv {
            let req = tracer.record("request", "serve", None, id, origin + s.due, origin + recv);
            tracer.record(
                "loadgen.late",
                "loadgen",
                Some(req),
                id,
                origin + s.due,
                origin + s.sent,
            );
        }
    }

    // In-process replay of the traced phase's requests, in order.
    let handler = FleetHandler::new(HOSTS, WORKERS, MAX_IN_FLIGHT);
    let (mut parse_us, mut handler_us, mut handle_total_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut kernel_ms: BTreeMap<WorkloadKind, Vec<f64>> = BTreeMap::new();
    for (i, s) in traced.iter().enumerate() {
        let id = i as u64;
        let line = mix.lines[s.req].trim_end();
        let t = Instant::now();
        let req = OffloadRequest::from_json(line);
        let parsed = Instant::now();
        tracer.record("from_json", "json", None, id, t, parsed);
        let Ok(req) = req else {
            failed += 1;
            problems.push(format!("replay: unparsable {line}"));
            continue;
        };
        parse_us.push((parsed - t).as_secs_f64() * 1e6);
        let t = Instant::now();
        let resp = handler.handle(&req);
        let handled = Instant::now();
        tracer.record("handle", "handler", None, id, t, handled);
        let total = (handled - t).as_secs_f64() * 1e6;
        handle_total_us.push(total);
        handler_us.push(total - resp.exec_micros as f64);
        let t = Instant::now();
        let out = execute_kernel(req.kind, req.size, req.seed);
        let done = Instant::now();
        tracer.record("execute_kernel", "exec", None, id, t, done);
        kernel_ms
            .entry(req.kind)
            .or_default()
            .push((done - t).as_secs_f64() * 1e3);
        if !resp.ok || resp.checksum != out.checksum {
            failed += 1;
            problems.push(format!("replay: wrong answer for {line}"));
        }
    }
    drop(handler);

    // Network and server-loop share: the end-to-end time from send,
    // minus the in-process handle time of the same request.
    let net_us: Vec<f64> = traced
        .iter()
        .zip(&handle_total_us)
        .filter_map(|(s, &h)| {
            s.recv
                .map(|r| (r.saturating_sub(s.sent)).as_secs_f64() * 1e6 - h)
        })
        .collect();

    // The handler's own router, replayed over each served decision.
    let mut router = Router::new(64);
    router.rebuild(&(0..HOSTS).collect());
    let aids = sim::aids();
    let (mut walks, mut affinity, mut spill) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    for (s, resp) in &ok_t {
        let aid = sim::aid_for(&aids, mix.requests[s.req].kind);
        let h = resp.host;
        let d = match reason_of(resp) {
            "affinity" => {
                affinity += 1;
                router.route(aid, &[h], |x| x == h)
            }
            reason => {
                walks += 1;
                spill += u64::from(reason == "spill");
                router.route(aid, &[], |x| x == h)
            }
        };
        black_box(d);
    }
    let busy = t.elapsed().as_secs_f64();
    let calls = ok_t.len() as u64;
    let frac = |a: u64| {
        if calls > 0 {
            a as f64 / calls as f64
        } else {
            0.0
        }
    };
    let shed = traced
        .iter()
        .filter(|s| {
            s.reply
                .as_deref()
                .is_some_and(|r| r.contains("every host is full"))
        })
        .count() as u64;

    let lat_t = latencies_ms(&ok_t);
    let late = lateness_ms(&traced);
    let mut m = Metrics::default();
    let handled_s = handle_total_us.iter().sum::<f64>() * 1e-6;
    sim::router_metrics(&mut m, calls, walks, affinity, busy, handled_s);
    m.put("router.rebuild_s", median(&rebuild));
    m.put(
        "admission.shed_frac",
        shed as f64 / traced.len().max(1) as f64,
    );
    m.put("admission.spill_frac", frac(spill));
    m.put("setup.s_per_host", median(&news) / HOSTS as f64);
    m.put("serve.json_parse_us", median(&parse_us));
    m.put("serve.handler_us", median(&handler_us));
    m.put("serve.net_us", median(&net_us));
    for (kind, v) in &kernel_ms {
        m.put(
            &format!("exec.kernel_ms.{}", kind.label().to_ascii_lowercase()),
            median(v),
        );
    }
    m.put("handler.affinity_frac", frac(affinity));
    m.put("serve.conns", conns as f64);
    m.put("loadgen.late_p99_ms", quantile(&late, 0.99).unwrap_or(0.0));
    let notes = vec![format!(
        "reference p50 {:.3} ms over {} replies",
        median(&lat_t),
        lat_t.len()
    )];
    Measured {
        metrics: m,
        attempted,
        failed,
        problems,
        notes,
    }
}
