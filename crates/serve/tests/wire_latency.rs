//! Wire latency of the serve protocol over loopback.
//!
//! A batch is one `batch` frame followed by its `annotate` frames, and its
//! replies are frames written back to back. With Nagle's algorithm on
//! either end, every frame after the first in a group waits for the
//! peer's delayed ACK (~40 ms), once for the request group and once for
//! the reply group. These tests pin both that and the accept path: a
//! fresh connection to an idle daemon must be taken as soon as it arrives.

use gana_core::Task;
use gana_serve::client::Client;
use gana_serve::protocol::{Request, Response};
use gana_serve::server::{serve, ServerConfig};
use gana_serve::transport::{accept_transport, ReadRequest};
use gana_serve::{Annotation, Engine};
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Members per batch, as `gana loadgen` and the benchmark send them.
const GROUP: usize = 4;
/// The kernel quick-ACKs the first exchanges of a fresh connection, so a
/// stall shows only from the second round on; the median of this many
/// rounds lies well past them.
const ROUNDS: usize = 20;

fn reply() -> Response {
    Response::Ok(Annotation {
        circuit_name: "ota".to_string(),
        device_labels: (0..12)
            .map(|i| (format!("M{i}"), "DiffPair".to_string()))
            .collect(),
        sub_blocks: vec!["DiffPair".to_string(), "CurrentMirror".to_string()],
        constraint_count: 4,
        hierarchical_spice: ".SUBCKT ota in out\nM0 a b c d NMOS\n.ENDS\n".repeat(8),
    })
}

fn request() -> Request {
    Request::Annotate {
        task: Task::OtaBias,
        deadline_ms: None,
        netlist: "M0 out inp tail gnd NMOS W=2u L=0.18u\n".repeat(16),
    }
}

/// Serves one connection through [`accept_transport`]: for every batch
/// header it reads the announced members, then writes one reply each.
fn batch_echo(listener: TcpListener) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accepts the client");
        let stop = AtomicBool::new(false);
        let mut transport = accept_transport(stream, &stop)
            .expect("transport set-up")
            .expect("client sends before closing");
        loop {
            let count = match transport.read_request(&stop) {
                ReadRequest::Request(Request::Batch(count)) => count,
                ReadRequest::Closed => return,
                _ => panic!("expected a batch header"),
            };
            for _ in 0..count {
                assert!(matches!(
                    transport.read_request(&stop),
                    ReadRequest::Request(Request::Annotate { .. })
                ));
            }
            for _ in 0..count {
                transport.write_response(&reply()).expect("writes a reply");
            }
        }
    })
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Median round trip of a pipelined batch group on one connection.
fn batch_round_trip(binary: bool) -> Duration {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds loopback");
    let addr = listener.local_addr().expect("bound address");
    let server = batch_echo(listener);
    let mut client = if binary {
        Client::connect_binary(addr)
    } else {
        Client::connect(addr)
    }
    .expect("connects");
    let member = request();
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        client
            .send_request(&Request::Batch(GROUP))
            .expect("sends the header");
        for _ in 0..GROUP {
            client.send_request(&member).expect("sends a member");
        }
        for _ in 0..GROUP {
            assert_eq!(client.read_reply().expect("reads a reply"), reply());
        }
        samples.push(start.elapsed());
    }
    drop(client);
    server.join().expect("echo thread exits cleanly");
    median(samples)
}

#[test]
fn pipelined_binary_batches_do_not_stall_on_delayed_acks() {
    let rtt = batch_round_trip(true);
    assert!(
        rtt < Duration::from_millis(20),
        "binary batch round trip median {rtt:?}: frames are waiting on delayed ACKs"
    );
}

#[test]
fn pipelined_text_batches_do_not_stall_on_delayed_acks() {
    let rtt = batch_round_trip(false);
    assert!(
        rtt < Duration::from_millis(20),
        "text batch round trip median {rtt:?}: lines are waiting on delayed ACKs"
    );
}

#[test]
fn idle_daemon_accepts_fresh_connections_promptly() {
    let handle = serve(
        Arc::new(Engine::builder().workers(1).build()),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            stats_interval: None,
            snapshot_interval: None,
        },
    )
    .expect("binds an ephemeral port");
    let addr = handle.local_addr();
    std::thread::sleep(Duration::from_millis(200));
    let samples = (0..10)
        .map(|_| {
            let start = Instant::now();
            let mut client = Client::connect_binary(addr).expect("connects");
            client.ping().expect("daemon answers");
            start.elapsed()
        })
        .collect();
    let rtt = median(samples);
    assert!(
        rtt < Duration::from_millis(10),
        "connect + ping median {rtt:?}: the accept loop is not taking connections promptly"
    );
    handle.shutdown();
}
