//! Thin offload API server: the fleet control plane (routing,
//! admission, warm-affinity) in front of real kernel execution, served
//! over line-delimited JSON on TCP.
//!
//! Usage: `exec_serve [addr] [--hosts N] [--workers N] [--cap N] [--probe]`
//!
//! Default address is `127.0.0.1:7117`. With `--probe` the server
//! binds an ephemeral port, submits one request per kernel through a
//! real TCP client, then the same four pipelined in one write on one
//! connection, verifies every returned checksum (in request order)
//! against local re-execution, prints the timing breakdowns and each
//! pipelined reply's round trip, and exits — the CI smoke for the
//! end-to-end submit → route/admit → execute → copy-back loop. Without
//! it the server runs until killed.
use exec::serve::{serve, submit, submit_pipelined, OffloadRequest};
use exec::{execute_kernel, SizeClass};
use fleet::FleetHandler;
use workloads::WorkloadKind;

fn flag(name: &str, default: usize) -> usize {
    std::env::args()
        .skip_while(|a| a != name)
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let probe = std::env::args().any(|a| a == "--probe");
    let addr = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| {
            if probe {
                "127.0.0.1:0".to_owned()
            } else {
                "127.0.0.1:7117".to_owned()
            }
        });
    let (hosts, workers, cap) = (flag("--hosts", 3), flag("--workers", 2), flag("--cap", 8));
    let handler = FleetHandler::new(hosts, workers, cap);
    let mut server = serve(&addr, handler).expect("bind offload server");
    println!(
        "# exec_serve: listening on {} ({hosts} hosts × {workers} workers, cap {cap})",
        server.addr()
    );

    if probe {
        let at = server.addr();
        let reqs: Vec<OffloadRequest> = WorkloadKind::ALL
            .into_iter()
            .enumerate()
            .map(|(i, kind)| OffloadRequest {
                kind,
                size: SizeClass::Small,
                seed: 0x2017_0529 + i as u64,
            })
            .collect();
        let local: Vec<u64> = reqs
            .iter()
            .map(|r| execute_kernel(r.kind, r.size, r.seed).checksum)
            .collect();
        for (req, &want) in reqs.iter().zip(&local) {
            let label = req.kind.label();
            let resp = submit(at, req).expect("probe round trip");
            assert!(resp.ok, "{label}: {}", resp.error);
            assert_eq!(resp.checksum, want, "{label} checksum mismatch");
            println!(
                "probe {:<10} host={} queue={}us exec={}us checksum={:016x} ok",
                label, resp.host, resp.queue_micros, resp.exec_micros, resp.checksum
            );
        }
        let replies = submit_pipelined(at, &reqs).expect("pipelined probe");
        for ((req, &want), (resp, rtt)) in reqs.iter().zip(&local).zip(&replies) {
            let label = req.kind.label();
            assert!(resp.ok, "pipelined {label}: {}", resp.error);
            assert_eq!(
                resp.checksum, want,
                "pipelined {label}: reply out of order or wrong"
            );
            println!(
                "pipelined {:<10} host={} rtt={}us checksum={:016x} ok",
                label,
                resp.host,
                rtt.as_micros(),
                resp.checksum
            );
        }
        println!(
            "# exec_serve: probe passed (4/4 checksums verified, then 4/4 pipelined in order)"
        );
        server.shutdown();
        return;
    }

    // Serve until killed; the accept loop owns the process from here.
    loop {
        std::thread::park();
    }
}
