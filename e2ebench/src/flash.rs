//! `flash-crowd`: one Jetson Nano under a 3× flash crowd, served by
//! `sched::simulate` with SPLIT.
//!
//! Why: the surge drives the single queue hundreds deep, so greedy
//! preemption scans long queues and elastic splitting downgrades many
//! requests; no router, pool or server runs. It is the workload on which a
//! change to the policy, preemption or lifecycle recording shows.

use crate::report::Outcome;
use crate::run::{self, RunCfg, SetupTimer};
use crate::sim::{self, Counts};
use crate::spans::Tracer;
use crate::stats;
use std::time::Instant;
use workload::{Arrival, DriftGen, DriftProfile};

/// Requests per trace.
pub const REQUESTS: usize = 20_000;

/// Traces per run. Iterations cycle through them, and QoS pools all of
/// them: one surge's luck moves a single trace's violation rate by several
/// percent.
pub const TRACES: usize = 8;

/// Flash-crowd arrivals: base interval twice the mean isolated execution
/// (ρ ≈ 0.5), with the rate tripled over 10% of the span.
pub fn trace(seed: u64, models: &[String], mean_exec_us: f64, n: usize) -> Vec<Arrival> {
    let base_interval_us = 2.0 * mean_exec_us;
    const SURGE: f64 = 3.0;
    const DWELL: f64 = 0.1;
    // Span that n arrivals fill: 90% at the base rate, 10% at SURGE×.
    let span_us = n as f64 * base_interval_us / (1.0 - DWELL + DWELL * SURGE);
    let profile = DriftProfile::FlashCrowd {
        base_interval_us,
        onset_us: 0.45 * span_us,
        surge: SURGE,
        dwell_us: DWELL * span_us,
    };
    let times = DriftGen::new(profile, seed).take(n);
    crate::setup::arrivals(&times, models, seed)
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = SetupTimer::new(cfg);
    let deployment = setup.time(crate::setup::paper_deployment);
    let table = deployment.table();
    let models = crate::setup::model_names(&deployment);
    let mean_exec_us = split_cluster::mean_exec_us(table);
    let n = cfg.requests;
    // Traces are made again from their seeds where they are used, outside
    // the timed region, so the benchmark's own inputs do not sit in the
    // peak resident set.
    let trace_k = |k: usize| {
        trace(
            crate::setup::sub_seed(cfg.seed, k % TRACES),
            &models,
            mean_exec_us,
            n,
        )
    };
    let policy = sim::split_policy();

    // First pass, untimed: each trace's schedule digest and QoS, which
    // every later iteration must reproduce bit for bit.
    let mut want = Vec::with_capacity(TRACES);
    let mut ratios = Vec::with_capacity(TRACES * n);
    let mut fails = Vec::with_capacity(TRACES);
    let mut counts = Counts::default();
    for k in 0..TRACES {
        let r = sched::simulate(&policy, &trace_k(k), table);
        let errors = r.recorder.validate();
        out.check(errors.is_empty(), || {
            format!(
                "flash-crowd trace {k}: recording invalid: {} errors, first: {}",
                errors.len(),
                errors[0]
            )
        });
        sim::check_conservation(&mut out, &r, n, "flash-crowd");
        let q = sim::qos(&r, n);
        want.push((r.schedule_digest(), sim::qos_bits(&q)));
        ratios.extend(r.completions.iter().map(|c| c.response_ratio()));
        fails.push(q.failed);
        counts = counts.add(Counts::of(&r));
    }
    let qos = stats::Qos::new(ratios, fails.iter().sum());
    counts.report(n * TRACES, &mut out.layers);

    let mut untraced_ns = Vec::new();
    let mut rss_mb = Vec::new();
    let mut admit_p50 = Vec::new();
    let mut admit_p99 = Vec::new();
    let mut t = Tracer::new();
    let mut changed = 0usize;
    let iters = run::until(cfg.deadline(), 3, |i| {
        if setup.due() {
            drop(setup.time(crate::setup::paper_deployment));
        }
        let arrivals = trace_k(i);
        let rss = crate::machine::RssProbe::start();
        let t0 = Instant::now();
        let r = sched::simulate(&policy, &arrivals, table);
        untraced_ns.push(t0.elapsed().as_nanos() as f64);
        rss_mb.push(rss.peak_mb());
        let (p50, p99) = sim::admit_p50_p99(&sim::admit_us(&r));
        admit_p50.push(p50);
        admit_p99.push(p99);
        changed +=
            usize::from((r.schedule_digest(), sim::qos_bits(&sim::qos(&r, n))) != want[i % TRACES]);
        drop(r);
        if cfg.traced {
            let r = t.span("sched.simulate", |t| {
                sim::traced_simulate(t, &arrivals, table)
            });
            sim::traced_observers(&mut t, &r);
            changed += usize::from(r.schedule_digest() != want[i % TRACES].0);
        }
    });
    out.check(changed == 0, || {
        format!("flash-crowd: {changed} iterations changed a schedule or its QoS")
    });

    out.attempted = (n * iters) as u64;
    out.failed = (0..iters).map(|i| fails[i % TRACES] as u64).sum();
    let host_ns = stats::median(&untraced_ns) / n as f64;
    out.e2e.insert("host_ns_per_req", host_ns);
    out.insert_qos(&qos);
    out.layers.insert("admit_p50_us", stats::mean(&admit_p50));
    out.layers.insert("admit_p99_us", stats::mean(&admit_p99));
    println!(
        "flash-crowd: {TRACES} traces x {n} requests, {iters} iterations; {}",
        stats::sample_note(qos.attempted)
    );
    if cfg.traced {
        sim::sim_layers(&mut out, &t, n, host_ns);
        crate::spans::print_self_times(&t, (n * iters) as u64);
        t.write_jsonl(&crate::spans_path("flash-crowd", cfg.seed))
            .unwrap_or_else(|e| eprintln!("spans not written: {e}"));
    }
    setup.report(&mut out, crate::setup::paper_deployment);
    out.e2e.insert("peak_rss_mb", stats::min(&rss_mb));
    out
}
