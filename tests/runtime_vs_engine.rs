//! The two execution paths must agree: the threaded runtime (wall-clock,
//! real locks) and the deterministic policy engine serve the same trace
//! with the same plans; their QoS statistics should be close — identical
//! ordering decisions, timing differences bounded by clock compression
//! noise.

use split_repro::experiment;
use split_repro::gpu_sim::DeviceConfig;
use split_repro::qos_metrics::violation_rate;
use split_repro::sched::policy::SplitCfg;
use split_repro::sched::{simulate, Policy};
use split_repro::split_runtime::{drive, Server, ServerConfig};
use split_repro::workload::{RequestTrace, Scenario};

#[test]
fn runtime_and_engine_agree_on_qos() {
    let dev = DeviceConfig::jetson_nano();
    let deployment = experiment::paper_deployment(&dev);

    // A short trace (compressed wall time must stay test-friendly).
    let mut sc = Scenario::table2(3);
    sc.requests = 60;
    let trace = RequestTrace::generate(sc, &experiment::PAPER_MODEL_NAMES);

    // Deterministic engine.
    let engine = simulate(
        &Policy::Split(SplitCfg { elastic: None }),
        &trace.arrivals,
        deployment.table(),
    );
    let engine_outcomes = engine.outcomes();

    // Threaded runtime at gentle 10x compression: blocks span milliseconds
    // of wall time, so OS scheduling noise (this may be an oversubscribed
    // host) stays small relative to the simulated quantities.
    let server = Server::start(
        deployment,
        ServerConfig {
            alpha: 4.0,
            elastic: None,
            compression: 10.0,
        },
    );
    let report = drive(&server, &trace.arrivals);
    let runtime_outcomes = report.outcomes();
    let shutdown = server.shutdown();

    assert_eq!(runtime_outcomes.len(), 60, "all requests served");
    assert_eq!(shutdown.served, 60);

    // Timing agreement is only meaningful when the host actually let the
    // driver keep pace. Under heavy co-scheduling (e.g. the whole test
    // suite running in parallel on an oversubscribed box), arrivals fire
    // late and every latency inflates; the structural assertions above
    // still hold, but comparing wall-clock-derived QoS would test the CI
    // machine, not the code.
    if report.late_fires > 5 {
        eprintln!(
            "skipping timing comparison: {} late fires (contended host)",
            report.late_fires
        );
        return;
    }

    // Mean response ratios agree within a generous tolerance (the runtime
    // pays sleep quantization on every block).
    let mean_rr = |outs: &[split_repro::qos_metrics::RequestOutcome]| {
        outs.iter().map(|o| o.response_ratio()).sum::<f64>() / outs.len() as f64
    };
    let e = mean_rr(&engine_outcomes);
    let r = mean_rr(&runtime_outcomes);
    assert!(
        (r - e).abs() / e < 1.0,
        "engine mean RR {e:.2} vs runtime {r:.2}"
    );

    // Violation rates land in the same regime.
    let ve = violation_rate(&engine_outcomes, 4.0);
    let vr = violation_rate(&runtime_outcomes, 4.0);
    assert!(
        (vr - ve).abs() < 0.25,
        "engine viol@4 {ve:.3} vs runtime {vr:.3}"
    );
}
