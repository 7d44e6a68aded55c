//! The elastic controller inside the threaded server: floods must flip
//! the server to vanilla execution, and recovery must restore splitting.

use split_core::ElasticConfig;
use split_core::SplitPlan;
use split_runtime::{Deployment, RequestStatus, Server, ServerConfig};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn deployment() -> Deployment {
    let mut d = Deployment::new();
    d.deploy_plan(&SplitPlan {
        model: "long".into(),
        cuts: vec![50],
        block_times_us: vec![11_000.0, 11_000.0],
        vanilla_us: 20_000.0,
        overhead_ratio: 0.1,
        std_us: 0.0,
        fitness: -1.0,
        transfer_bytes: vec![0],
    });
    d.deploy_vanilla("short", 5_000.0);
    d
}

#[test]
fn same_type_flood_switches_to_vanilla_blocks() {
    // Aggressive elastic thresholds + fast clock so the flood is visible
    // in the windowed arrival rate.
    let elastic = ElasticConfig {
        window_us: 2_000_000.0,
        density_off_per_s: 1_000_000.0, // density rule effectively off
        density_on_per_s: 999_999.0,
        same_type_frac: 0.8,
        min_samples: 4,
    };
    let server = Server::start(
        deployment(),
        ServerConfig {
            alpha: 4.0,
            elastic: Some(elastic),
            compression: 2_000.0,
        },
    );
    let client = server.client();
    let rxs: Vec<_> = (0..12).map(|_| client.infer("long")).collect();
    let replies: Vec<_> = rxs
        .into_iter()
        .map(|rx| rx.recv_timeout(Duration::from_secs(20)).unwrap())
        .collect();
    assert!(replies.iter().all(|r| r.status == RequestStatus::Completed));
    // Early requests (before min_samples) run split (2 blocks); once the
    // same-type flood is detected, later ones run vanilla (1 block).
    assert!(
        replies.iter().take(3).all(|r| r.blocks_run == 2),
        "early requests should be split: {:?}",
        replies.iter().map(|r| r.blocks_run).collect::<Vec<_>>()
    );
    assert!(
        replies.iter().skip(6).any(|r| r.blocks_run == 1),
        "flood must switch to vanilla: {:?}",
        replies.iter().map(|r| r.blocks_run).collect::<Vec<_>>()
    );
    server.shutdown();
}

#[test]
fn elastic_observer_progresses_while_combiner_busy() {
    // Regression test for the ROADMAP item-2 follow-on: elastic state is
    // observed through `CombiningCore::with_state`, so an observer waits
    // behind at most the in-flight combiner pass — never the whole
    // backlog, and never a separate server lock.
    let elastic = ElasticConfig {
        window_us: 2_000_000.0,
        density_off_per_s: 1_000_000.0,
        density_on_per_s: 999_999.0,
        same_type_frac: 0.8,
        min_samples: 4,
    };
    let server = Server::start(
        deployment(),
        ServerConfig {
            alpha: 4.0,
            elastic: Some(elastic),
            compression: 2_000.0,
        },
    );
    // Every combined `Infer` spins 3 ms before deciding: a 40-request
    // flood keeps the decision core busy for ~120 ms of combiner passes.
    const STALL_NS: u64 = 3_000_000;
    const FLOOD: usize = 40;
    server.set_combiner_stall_ns(STALL_NS);
    let client = server.client();
    let start = Arc::new(Barrier::new(2));
    let flood = {
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            let rxs: Vec<_> = (0..FLOOD).map(|_| client.infer("short")).collect();
            rxs.into_iter()
                .filter(|rx| rx.recv_timeout(Duration::from_secs(30)).is_ok())
                .count()
        })
    };

    // Observe concurrently with the flood, from the moment it starts
    // publishing. Each read must come back in bounded time (a pass or
    // two), so well before the flood's ~120 ms of stalled passes drain,
    // many reads have completed.
    start.wait();
    let t0 = std::time::Instant::now();
    let mut reads = 0usize;
    let mut saw_window = false;
    while t0.elapsed() < Duration::from_millis(60) {
        let snap = server.elastic().expect("elasticity is enabled");
        saw_window |= snap.window_len > 0;
        reads += 1;
    }
    assert!(
        reads >= 3,
        "observer managed only {reads} reads while the combiner was busy"
    );
    assert!(
        saw_window,
        "observer never saw the controller's windowed arrivals"
    );
    // 40 serialized 3 ms stalls cannot drain in 60 ms, so every read
    // above overlapped a busy combiner.
    assert!(
        !flood.is_finished(),
        "the flood finished inside the observation window"
    );

    assert_eq!(flood.join().unwrap(), FLOOD, "flood must fully complete");
    server.shutdown();
}

#[test]
fn mixed_traffic_keeps_splitting() {
    let elastic = ElasticConfig {
        window_us: 2_000_000.0,
        density_off_per_s: 1_000_000.0,
        density_on_per_s: 999_999.0,
        same_type_frac: 0.8,
        min_samples: 4,
    };
    let server = Server::start(
        deployment(),
        ServerConfig {
            alpha: 4.0,
            elastic: Some(elastic),
            compression: 2_000.0,
        },
    );
    let client = server.client();
    let mut long_rxs = Vec::new();
    for _ in 0..8 {
        long_rxs.push(client.infer("long"));
        let _ = client.infer("short");
    }
    for rx in long_rxs {
        let r = rx.recv_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!(r.blocks_run, 2, "mixed traffic must stay split");
    }
    server.shutdown();
}
