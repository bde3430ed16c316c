//! A thin offload API server over the compute backends.
//!
//! The wire protocol is one JSON object per line over TCP — the
//! smallest protocol that exercises the paper's full loop (submit →
//! route/admit → execute → result back):
//!
//! ```json
//! → {"kind": "OCR", "size": "M", "seed": 7}
//! ← {"ok": true, "kind": "OCR", "size": "M", "host": 3,
//!    "backend": "real", "checksum": "988d5275376ae587",
//!    "queue_micros": 120, "exec_micros": 41873, "detail": "..."}
//! ```
//!
//! Checksums travel as hex *strings*: the JSON reader holds numbers as
//! `f64`, which cannot carry a full 64-bit checksum.
//!
//! Replies on a connection come back in request order, so a client may
//! pipeline: send several lines, then read as many replies. Each reply
//! leaves in one `write` on a `TCP_NODELAY` socket as soon as it is
//! encoded. (Written as body then newline, Nagle's algorithm would hold
//! the newline until the client's delayed ACK of the body, ~40 ms.)
//!
//! Input is untrusted: a request line is read into a reused buffer of
//! at most [`MAX_LINE`] bytes, JSON nesting is bounded by
//! [`json::MAX_DEPTH`], and at most [`MAX_CONNECTIONS`] connections are
//! served at once. An over-long line, or a connection over the cap,
//! gets one error reply and is closed; a line that is not UTF-8 or not
//! a valid request gets an error reply and the connection goes on.
//!
//! Routing/admission is behind [`OffloadHandler`]; the `fleet` crate
//! provides the control-plane-backed implementation (consistent-hash
//! routing + admission bounds), while [`DirectHandler`] here executes
//! on a local [`RealBackend`] with no control plane — enough for
//! loopback tests and single-host serving.

use crate::real::RealBackend;
use crate::workset::{kind_from_label, SizeClass};
use obsv::json::{self, Value};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use workloads::WorkloadKind;

/// Longest request line the server reads, newline included. A request
/// is ~50 bytes.
pub const MAX_LINE: usize = 64 * 1024;

/// Most connections [`serve`] handles at once; one more is told the
/// server is busy and closed.
pub const MAX_CONNECTIONS: usize = 256;

/// One offload request as submitted by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadRequest {
    /// Workload to execute.
    pub kind: WorkloadKind,
    /// Kernel input size.
    pub size: SizeClass,
    /// Deterministic kernel input seed.
    pub seed: u64,
}

impl OffloadRequest {
    /// Encode as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append the protocol line (no trailing newline) to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"kind\": \"{}\", \"size\": \"{}\", \"seed\": {}}}",
            self.kind.label(),
            self.size.label(),
            self.seed
        );
    }

    /// Parse one protocol line.
    pub fn from_json(line: &str) -> Result<OffloadRequest, String> {
        let v = json::parse(line)?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .and_then(kind_from_label)
            .ok_or("request: bad or missing \"kind\"")?;
        let size = v
            .get("size")
            .and_then(Value::as_str)
            .and_then(SizeClass::from_label)
            .ok_or("request: bad or missing \"size\"")?;
        let seed = v
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or("request: bad or missing \"seed\"")? as u64;
        Ok(OffloadRequest { kind, size, seed })
    }
}

/// Outcome of one served offload, as returned to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadResponse {
    /// Whether execution succeeded.
    pub ok: bool,
    /// Error description when `ok` is false.
    pub error: String,
    /// Deterministic kernel output checksum (the client's proof the
    /// right work ran).
    pub checksum: u64,
    /// Host index the request was routed to (0 for direct serving).
    pub host: usize,
    /// Backend label that executed the request.
    pub backend: String,
    /// Time spent queued/routed before execution, microseconds.
    pub queue_micros: u64,
    /// Kernel execution wall time, microseconds.
    pub exec_micros: u64,
    /// Human-readable result summary.
    pub detail: String,
}

impl OffloadResponse {
    /// An error response.
    pub fn error(msg: impl Into<String>) -> OffloadResponse {
        OffloadResponse {
            ok: false,
            error: msg.into(),
            checksum: 0,
            host: 0,
            backend: String::new(),
            queue_micros: 0,
            exec_micros: 0,
            detail: String::new(),
        }
    }

    /// Encode as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append the protocol line (no trailing newline) to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"ok\": {}, \"error\": \"", self.ok);
        escape_into(out, &self.error);
        let _ = write!(
            out,
            "\", \"checksum\": \"{:016x}\", \"host\": {}, \"backend\": \"",
            self.checksum, self.host
        );
        escape_into(out, &self.backend);
        let _ = write!(
            out,
            "\", \"queue_micros\": {}, \"exec_micros\": {}, \"detail\": \"",
            self.queue_micros, self.exec_micros
        );
        escape_into(out, &self.detail);
        out.push_str("\"}");
    }

    /// Parse one protocol line.
    pub fn from_json(line: &str) -> Result<OffloadResponse, String> {
        let v = json::parse(line)?;
        let b = |key: &str| {
            v.get(key).and_then(|x| match x {
                Value::Bool(b) => Some(*b),
                _ => None,
            })
        };
        let s = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .unwrap_or_default()
        };
        let n = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let checksum = u64::from_str_radix(&s("checksum"), 16)
            .map_err(|e| format!("response: bad checksum: {e}"))?;
        Ok(OffloadResponse {
            ok: b("ok").ok_or("response: missing \"ok\"")?,
            error: s("error"),
            checksum,
            host: n("host") as usize,
            backend: s("backend"),
            queue_micros: n("queue_micros"),
            exec_micros: n("exec_micros"),
            detail: s("detail"),
        })
    }
}

/// Append `s` to `out` as the body of a JSON string.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Routes, admits, and executes one offload request. The server is
/// generic over this so the fleet control plane can sit behind it
/// without `exec` depending on `fleet`.
pub trait OffloadHandler: Send + Sync + 'static {
    /// Serve one request to completion.
    fn handle(&self, req: &OffloadRequest) -> OffloadResponse;
}

/// The no-control-plane handler: every request executes on a local
/// [`RealBackend`] pool as host 0.
#[derive(Debug)]
pub struct DirectHandler {
    backend: RealBackend,
}

impl DirectHandler {
    /// Direct handler with `workers` pool threads.
    pub fn new(workers: usize) -> DirectHandler {
        DirectHandler {
            backend: RealBackend::new(workers),
        }
    }
}

impl OffloadHandler for DirectHandler {
    fn handle(&self, req: &OffloadRequest) -> OffloadResponse {
        let queued = Instant::now();
        let (out, wall) = self.backend.execute(req.kind, req.size, req.seed);
        let total = queued.elapsed().as_micros() as u64;
        OffloadResponse {
            ok: true,
            error: String::new(),
            checksum: out.checksum,
            host: 0,
            backend: "real".into(),
            queue_micros: total.saturating_sub(wall),
            exec_micros: wall,
            detail: out.detail,
        }
    }
}

/// A running offload API server.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag between connections;
        // poke it awake with a throwaway connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start serving `handler` on `addr` (e.g. `"127.0.0.1:0"`).
/// Connections are handled one thread each, at most
/// [`MAX_CONNECTIONS`] at once; every line received is one request,
/// answered with one response line.
pub fn serve<H: OffloadHandler>(addr: &str, handler: H) -> std::io::Result<Server> {
    serve_capped(addr, handler, MAX_CONNECTIONS)
}

/// [`serve`] with a connection cap of `max_conns`.
pub(crate) fn serve_capped<H: OffloadHandler>(
    addr: &str,
    handler: H,
    max_conns: usize,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let handler = Arc::new(handler);
    let live = Arc::new(AtomicUsize::new(0));
    let stop_flag = Arc::clone(&stop);
    let accept_thread = thread::Builder::new()
        .name("exec-serve-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let _ = stream.set_nodelay(true);
                let Some(slot) = ConnSlot::claim(&live, max_conns) else {
                    let _ = send_reply(
                        &stream,
                        &OffloadResponse::error("server busy"),
                        &mut String::new(),
                    );
                    continue;
                };
                let handler = Arc::clone(&handler);
                // A failed spawn drops the closure, and the slot with it.
                let _ = thread::Builder::new()
                    .name("exec-serve-conn".into())
                    .spawn(move || {
                        serve_connection(&stream, &*handler);
                        // Free the place before the socket closes, so a
                        // client that sees the close may reconnect.
                        drop(slot);
                    });
            }
        })?;
    Ok(Server {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// One of a server's live connections; gives its place back on drop.
struct ConnSlot(Arc<AtomicUsize>);

impl ConnSlot {
    /// Take a place if fewer than `cap` are taken.
    fn claim(live: &Arc<AtomicUsize>, cap: usize) -> Option<ConnSlot> {
        live.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < cap).then_some(n + 1)
        })
        .ok()
        .map(|_| ConnSlot(Arc::clone(live)))
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Encode `response` and its newline into `buf` (cleared first) and
/// send it in one write.
fn send_reply(
    mut stream: &TcpStream,
    response: &OffloadResponse,
    buf: &mut String,
) -> std::io::Result<()> {
    buf.clear();
    response.write_json(buf);
    buf.push('\n');
    stream.write_all(buf.as_bytes())
}

fn serve_connection<H: OffloadHandler>(stream: &TcpStream, handler: &H) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut reply = String::new();
    loop {
        line.clear();
        match reader
            .by_ref()
            .take(MAX_LINE as u64)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let overlong = line.len() == MAX_LINE && line.last() != Some(&b'\n');
        let response = if overlong {
            OffloadResponse::error(format!("request: line longer than {MAX_LINE} bytes"))
        } else {
            match std::str::from_utf8(&line) {
                Err(_) => OffloadResponse::error("request: line is not UTF-8"),
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => match OffloadRequest::from_json(text) {
                    Ok(req) => handler.handle(&req),
                    Err(e) => OffloadResponse::error(e),
                },
            }
        };
        if send_reply(stream, &response, &mut reply).is_err() || overlong {
            return;
        }
    }
}

/// Client side: submit one request to a running server and wait for
/// the response.
pub fn submit(addr: impl ToSocketAddrs, req: &OffloadRequest) -> Result<OffloadResponse, String> {
    let mut replies = submit_pipelined(addr, std::slice::from_ref(req))?;
    Ok(replies.swap_remove(0).0)
}

/// Client side: send `reqs` on one new connection in a single write,
/// then read one reply per request, in order. Each reply comes with the
/// time from the send to its arrival.
pub fn submit_pipelined(
    addr: impl ToSocketAddrs,
    reqs: &[OffloadRequest],
) -> Result<Vec<(OffloadResponse, Duration)>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut wire = String::new();
    for req in reqs {
        req.write_json(&mut wire);
        wire.push('\n');
    }
    let sent = Instant::now();
    stream
        .write_all(wire.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reqs.iter()
        .map(|_| {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            if line.is_empty() {
                return Err("recv: connection closed".into());
            }
            Ok((OffloadResponse::from_json(line.trim_end())?, sent.elapsed()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workset::execute_kernel;
    use std::net::Shutdown;

    #[test]
    fn request_and_response_round_trip() {
        let req = OffloadRequest {
            kind: WorkloadKind::VirusScan,
            size: SizeClass::Large,
            seed: 77,
        };
        assert_eq!(OffloadRequest::from_json(&req.to_json()).unwrap(), req);

        let resp = OffloadResponse {
            ok: true,
            error: String::new(),
            checksum: 0xdead_beef_0102_0304,
            host: 5,
            backend: "real".into(),
            queue_micros: 12,
            exec_micros: 3456,
            detail: "said \"hi\"".into(),
        };
        assert_eq!(OffloadResponse::from_json(&resp.to_json()).unwrap(), resp);

        let nasty: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/é→\u{7f}".chars())
            .collect();
        let mut resp = OffloadResponse::error(nasty.clone());
        resp.detail = nasty.clone();
        resp.backend = nasty;
        assert_eq!(OffloadResponse::from_json(&resp.to_json()).unwrap(), resp);
    }

    #[test]
    fn direct_serving_end_to_end() {
        let mut server = serve("127.0.0.1:0", DirectHandler::new(2)).unwrap();
        let req = OffloadRequest {
            kind: WorkloadKind::Linpack,
            size: SizeClass::Small,
            seed: 11,
        };
        let resp = submit(server.addr(), &req).unwrap();
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(
            resp.checksum,
            execute_kernel(req.kind, req.size, req.seed).checksum
        );
        assert!(resp.exec_micros > 0);
        server.shutdown();
    }

    /// Write `bytes` on `stream` and read back one reply line.
    fn exchange(stream: &TcpStream, bytes: &[u8]) -> OffloadResponse {
        let mut w = stream;
        w.write_all(bytes).unwrap();
        read_reply(stream)
    }

    fn read_reply(stream: &TcpStream) -> OffloadResponse {
        let mut line = Vec::new();
        // One byte at a time, so no reply is buffered past this call.
        let mut byte = [0u8; 1];
        let mut r = stream;
        while line.last() != Some(&b'\n') {
            assert_eq!(r.read(&mut byte).unwrap(), 1, "connection closed");
            line.push(byte[0]);
        }
        OffloadResponse::from_json(std::str::from_utf8(&line).unwrap()).unwrap()
    }

    fn linpack(seed: u64) -> OffloadRequest {
        OffloadRequest {
            kind: WorkloadKind::Linpack,
            size: SizeClass::Small,
            seed,
        }
    }

    #[test]
    fn malformed_requests_get_an_error_line() {
        let mut server = serve("127.0.0.1:0", DirectHandler::new(1)).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let resp = exchange(&stream, b"{\"kind\": \"Doom\"}\n");
        assert!(!resp.ok);
        assert!(resp.error.contains("kind"));
        // Neither a bad request nor a line that is not UTF-8 ends the
        // connection.
        let resp = exchange(&stream, b"\xff\xfe{}\n");
        assert!(!resp.ok);
        assert!(resp.error.contains("UTF-8"), "{}", resp.error);
        let req = linpack(3);
        let resp = exchange(&stream, format!("{}\n", req.to_json()).as_bytes());
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(
            resp.checksum,
            execute_kernel(req.kind, req.size, req.seed).checksum
        );
        server.shutdown();
    }

    #[test]
    fn overlong_line_gets_one_error_and_a_close() {
        let mut server = serve("127.0.0.1:0", DirectHandler::new(1)).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        // The server may close before the last bytes are sent.
        let _ = (&stream).write_all(&vec![b' '; MAX_LINE + 10]);
        let resp = read_reply(&stream);
        assert!(resp.error.contains("longer than"), "{}", resp.error);
        let mut rest = Vec::new();
        // The server closes, unread bytes still in its buffer, which
        // may reset the connection instead of ending it cleanly.
        let _ = (&stream).read_to_end(&mut rest);
        assert!(rest.is_empty());
        // A line of exactly the cap is read as a request.
        let stream = TcpStream::connect(server.addr()).unwrap();
        let json = linpack(4).to_json();
        let mut line = json.into_bytes();
        line.resize(MAX_LINE - 1, b' ');
        line.push(b'\n');
        let resp = exchange(&stream, &line);
        assert!(resp.ok, "{}", resp.error);
        server.shutdown();
    }

    #[test]
    fn connections_over_the_cap_are_told_the_server_is_busy() {
        let mut server = serve_capped("127.0.0.1:0", DirectHandler::new(1), 1).unwrap();
        let first = TcpStream::connect(server.addr()).unwrap();
        let req = format!("{}\n", linpack(5).to_json());
        assert!(exchange(&first, req.as_bytes()).ok);

        let second = TcpStream::connect(server.addr()).unwrap();
        let busy = read_reply(&second);
        assert!(!busy.ok);
        assert_eq!(busy.error, "server busy");
        let mut rest = Vec::new();
        assert_eq!((&second).read_to_end(&mut rest).unwrap(), 0);

        // The first connection is still served. Once the server has
        // closed it, its place is free again.
        assert!(exchange(&first, req.as_bytes()).ok);
        first.shutdown(Shutdown::Write).unwrap();
        assert_eq!((&first).read_to_end(&mut rest).unwrap(), 0);
        let third = TcpStream::connect(server.addr()).unwrap();
        let resp = exchange(&third, req.as_bytes());
        assert!(resp.ok, "{}", resp.error);
        server.shutdown();
    }
}
