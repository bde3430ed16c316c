//! End-to-end offload serving: a TCP client submits requests to an
//! `exec::serve` server backed by the fleet control plane
//! ([`fleet::FleetHandler`]) and verifies the returned checksums
//! against local kernel execution — the full submit → route/admit →
//! execute-for-real → copy-back loop of the paper's platform.

use exec::serve::{serve, submit, submit_pipelined, OffloadRequest, OffloadResponse};
use exec::{execute_kernel, SizeClass};
use fleet::FleetHandler;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use workloads::WorkloadKind;

#[test]
fn served_checksums_match_local_execution_for_every_kernel() {
    let mut server = serve("127.0.0.1:0", FleetHandler::new(2, 2, 4)).expect("bind loopback");
    let addr = server.addr();
    for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let req = OffloadRequest {
            kind,
            size: SizeClass::Small,
            seed: 0x2017_0529 + i as u64,
        };
        let resp = submit(addr, &req).expect("round trip");
        assert!(resp.ok, "{}: {}", kind.label(), resp.error);
        assert_eq!(
            resp.checksum,
            execute_kernel(req.kind, req.size, req.seed).checksum,
            "{} served a wrong result",
            kind.label()
        );
        assert!(resp.exec_micros > 0, "{}", kind.label());
        assert_eq!(resp.backend, "real");
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_are_all_served_correctly() {
    let mut server = serve("127.0.0.1:0", FleetHandler::new(3, 2, 8)).expect("bind loopback");
    let addr = server.addr();
    let handles: Vec<_> = (0..8u64)
        .map(|i| {
            std::thread::spawn(move || {
                let kind = WorkloadKind::ALL[(i % 4) as usize];
                let req = OffloadRequest {
                    kind,
                    size: SizeClass::Small,
                    seed: 1000 + i,
                };
                let resp = submit(addr, &req).expect("round trip");
                (req, resp)
            })
        })
        .collect();
    for h in handles {
        let (req, resp) = h.join().expect("client thread");
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(
            resp.checksum,
            execute_kernel(req.kind, req.size, req.seed).checksum
        );
    }
    server.shutdown();
}

#[test]
fn sequential_round_trips_on_one_connection_do_not_stall() {
    // An ordinary client: Nagle and delayed ACKs left on. A reply sent
    // in two writes would wait ~40 ms for the ACK of its first part.
    let reqs: Vec<OffloadRequest> = (0..50u64)
        .map(|i| OffloadRequest {
            kind: WorkloadKind::Linpack,
            size: SizeClass::Small,
            seed: 0x5eed + i,
        })
        .collect();
    let expected: Vec<u64> = reqs
        .iter()
        .map(|r| execute_kernel(r.kind, r.size, r.seed).checksum)
        .collect();
    let mut server = serve("127.0.0.1:0", FleetHandler::new(3, 2, 8)).expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    let mut handled = Duration::ZERO;
    let start = Instant::now();
    for (req, want) in reqs.iter().zip(&expected) {
        stream
            .write_all(format!("{}\n", req.to_json()).as_bytes())
            .expect("send");
        line.clear();
        reader.read_line(&mut line).expect("recv");
        let resp = OffloadResponse::from_json(line.trim_end()).expect("reply");
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.checksum, *want);
        handled += Duration::from_micros(resp.queue_micros + resp.exec_micros);
    }
    // The kernels' own time (several ms each in an unoptimized build)
    // is left out, so the bound is on the wire and the server loop.
    let took = start.elapsed();
    let wire = took.saturating_sub(handled);
    assert!(
        wire < Duration::from_secs(1),
        "50 round trips took {took:?}, {wire:?} of it outside the handler: \
         replies are stalling on the wire"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let mut server = serve("127.0.0.1:0", FleetHandler::new(3, 2, 8)).expect("bind loopback");
    let reqs: Vec<OffloadRequest> = (0..16u64)
        .map(|i| OffloadRequest {
            kind: WorkloadKind::ALL[(i % 4) as usize],
            size: SizeClass::Small,
            seed: 0x2017_0529 + i,
        })
        .collect();
    let replies = submit_pipelined(server.addr(), &reqs).expect("pipelined round trip");
    assert_eq!(replies.len(), reqs.len());
    for (req, (resp, _)) in reqs.iter().zip(&replies) {
        assert!(resp.ok, "{}: {}", req.kind.label(), resp.error);
        assert_eq!(
            resp.checksum,
            execute_kernel(req.kind, req.size, req.seed).checksum,
            "reply out of order or wrong for {}",
            req.to_json()
        );
    }
    server.shutdown();
}

#[test]
fn hostile_lines_get_an_error_reply_while_others_are_served() {
    let mut server = serve("127.0.0.1:0", FleetHandler::new(2, 2, 4)).expect("bind loopback");
    let addr = server.addr();
    let req = OffloadRequest {
        kind: WorkloadKind::Ocr,
        size: SizeClass::Small,
        seed: 99,
    };
    let want = execute_kernel(req.kind, req.size, req.seed).checksum;
    let read_reply = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        OffloadResponse::from_json(line.trim_end()).expect("reply")
    };

    // Nested past the JSON depth limit but within the line cap: an
    // error reply, and the connection goes on serving.
    let mut deep = TcpStream::connect(addr).expect("connect");
    let mut deep_reader = BufReader::new(deep.try_clone().expect("clone"));
    deep.write_all(format!("{}\n", "[".repeat(60_000)).as_bytes())
        .expect("send");
    let resp = read_reply(&mut deep_reader);
    assert!(!resp.ok);
    assert!(resp.error.contains("nesting"), "{}", resp.error);

    // 100,000 nested `[`: past the line cap, one error reply, then the
    // server closes the connection.
    let mut long = TcpStream::connect(addr).expect("connect");
    let mut long_reader = BufReader::new(long.try_clone().expect("clone"));
    let _ = long.write_all(format!("{}\n", "[".repeat(100_000)).as_bytes());
    let resp = read_reply(&mut long_reader);
    assert!(!resp.ok);
    assert!(resp.error.contains("longer than"), "{}", resp.error);

    // Another client is served correctly while the hostile connection
    // is still open, and so is the hostile connection's next request.
    let resp = submit(addr, &req).expect("round trip");
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.checksum, want);
    deep.write_all(format!("{}\n", req.to_json()).as_bytes())
        .expect("send");
    let resp = read_reply(&mut deep_reader);
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.checksum, want);
    server.shutdown();
}
