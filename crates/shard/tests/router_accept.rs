//! The router takes a fresh connection as soon as it arrives, even after
//! idling, and its stop path wakes the blocked accept so shutdown returns.

use gana_serve::client::{Client, RetryPolicy};
use gana_shard::{serve_router, RouterConfig, Topology};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn idle_router_accepts_fresh_connections_promptly() {
    // `ping` is answered by the router itself, so no shard is needed.
    let router = serve_router(
        Arc::new(Topology::new(Vec::new())),
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            upstream_retry: RetryPolicy::none(),
        },
    )
    .expect("binds an ephemeral port");
    let addr = router.local_addr();
    std::thread::sleep(Duration::from_millis(200));
    let mut samples: Vec<Duration> = (0..10)
        .map(|_| {
            let start = Instant::now();
            let mut client = Client::connect(addr).expect("connects");
            client.ping().expect("router answers");
            start.elapsed()
        })
        .collect();
    samples.sort();
    let rtt = samples[samples.len() / 2];
    assert!(
        rtt < Duration::from_millis(10),
        "connect + ping median {rtt:?}: the accept loop is not taking connections promptly"
    );
    router.shutdown();
    assert!(router.is_stopped());
}
