//! `live-server`: the threaded `split_runtime::Server` over the paper
//! deployment, fed an open-loop Poisson trace at ρ ≈ 0.6 by one pacer
//! thread.
//!
//! Why: it is the only workload that runs the combining decision core, the
//! compressed clock, the executor thread and the live recorder, SLO and
//! drift feeds. The pacer sleeps, then spins, to each due time and times
//! every request from that due time, so a stalled pacer or server shows as
//! latency instead of shifting the arrivals. Live simulated-time QoS is
//! bound by this host's scheduling noise, so it is reported per layer next
//! to the ideal schedule of the same trace.

use crate::report::Outcome;
use crate::run::{self, RunCfg, SetupTimer};
use crate::sim::{self, Counts};
use crate::spans::Tracer;
use crate::stats::{self, Qos};
use split_runtime::{Deployment, RequestStatus, Server, ServerConfig, SimClock};
use split_telemetry::Event;
use std::time::{Duration, Instant};
use workload::{Arrival, PoissonGen};

/// Requests per live session. A session's lifecycle recording (about ten
/// events a request) must fit the server's 65,536-event ring, or the
/// oldest arrivals are evicted and the recording cannot be validated.
pub const REQUESTS: usize = 1_000;

/// Clock compression: one simulated ms lasts 50 wall µs. At the server's
/// default 100× the executor spins a third of a core, so on a two-core
/// host admission latency followed the neighbours' load: p50 8.1 µs quiet
/// against 4.6 µs beside one busy core. At 20× the executor mostly sleeps
/// and the same pair read 10.6 and 12.1 µs.
const COMPRESSION: f64 = 20.0;

/// Offered load as a share of the one device's capacity.
const LOAD: f64 = 0.6;

/// Sessions per run at least: a traced run traces every other one.
const MIN_SESSIONS: usize = 2;

/// Session traces whose ideal schedules make the end-to-end QoS: a fixed
/// count, so those metrics depend on the seed alone, and enough requests
/// (64,000) that the pooled violation rate and p99.9 move little from seed
/// to seed.
const IDEAL_TRACES: usize = 64;

/// The pacer sleeps until this long before a due time, then spins. The
/// spin keeps the pacer's core awake, so admission latency measures the
/// server's decision path rather than the core waking from idle: with a
/// 100 µs spin the admission p50 read 7.2–10.3 µs across runs, with 600 µs
/// 5.9–6.2 µs.
const PACER_SPIN: Duration = Duration::from_micros(500);

/// A request fired more than this many wall µs after its due time was late.
const LATE_US: f64 = 20.0;

/// Simulated µs between a session's start and its first due time.
const LEAD_US: f64 = 20_000.0;

/// What one live session measured.
#[derive(Default)]
struct Session {
    /// Due-time response ratios of completed requests.
    ratios: Vec<f64>,
    failed: usize,
    /// Wall µs each `Client::infer` took.
    admit_us: Vec<f64>,
    /// Wall µs each request fired after its due time.
    lag_us: Vec<f64>,
    serve_wall_ns: u64,
    spin_ns: u64,
    shutdown_ns: u64,
    decision_us: Vec<f64>,
    recorder_events: usize,
}

/// Sleep, then spin, until `clock` reads `due_us`.
fn pace(clock: &SimClock, due_us: f64) {
    loop {
        let left_us = (due_us - clock.now_us()) / clock.compression();
        if left_us <= 0.0 {
            return;
        }
        let left = Duration::from_secs_f64(left_us * 1e-6);
        if left > PACER_SPIN {
            std::thread::sleep(left - PACER_SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Serve `arrivals` on `server` from one pacer thread, then shut it down
/// and check what it reports.
fn serve(
    out: &mut Outcome,
    server: Server,
    arrivals: &[Arrival],
    t: Option<&mut Tracer>,
) -> Session {
    let mut scratch = Tracer::new();
    let traced = t.is_some();
    let t = t.unwrap_or(&mut scratch);
    let client = server.client();
    let clock = server.clock().clone();
    let c = clock.compression();
    let mut s = Session::default();
    let mut pending = Vec::with_capacity(arrivals.len());
    let base_us = clock.now_us() + LEAD_US;
    let spin0 = clock.spin_ns();
    let wall0 = Instant::now();
    for a in arrivals {
        let due_us = base_us + a.arrival_us;
        if traced {
            t.span("gen.pace", |_| pace(&clock, due_us));
        } else {
            pace(&clock, due_us);
        }
        s.lag_us.push((clock.now_us() - due_us) / c);
        let t0 = Instant::now();
        let rx = if traced {
            t.span("split-runtime.infer", |_| client.infer(a.model.as_str()))
        } else {
            client.infer(a.model.as_str())
        };
        s.admit_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        pending.push((due_us, rx));
    }
    for (due_us, rx) in pending {
        match rx.recv() {
            Ok(r) if r.status == RequestStatus::Completed => {
                s.ratios.push(stats::due_ratio(due_us, r.end_us, r.exec_us))
            }
            _ => s.failed += 1,
        }
    }
    s.serve_wall_ns = wall0.elapsed().as_nanos() as u64;
    s.spin_ns = clock.spin_ns() - spin0;
    let t0 = Instant::now();
    let report = t.span("split-runtime.shutdown", |_| server.shutdown());
    s.shutdown_ns = t0.elapsed().as_nanos() as u64;

    let n = arrivals.len();
    out.check(s.ratios.len() + s.failed == n, || {
        format!(
            "live: {} completed + {} failed != {n} attempted",
            s.ratios.len(),
            s.failed
        )
    });
    out.check(report.served == s.ratios.len() as u64, || {
        format!(
            "live: server served {} but {} replies completed",
            report.served,
            s.ratios.len()
        )
    });
    let errors = report.recorder.validate();
    out.check(errors.is_empty(), || {
        format!(
            "live recording invalid: {} errors, first: {}",
            errors.len(),
            errors[0]
        )
    });
    s.recorder_events = report.recorder.len();
    s.decision_us = report
        .recorder
        .events()
        .filter_map(|e| match e {
            Event::PreemptDecision { publish_ns, .. } => Some(*publish_ns as f64 / 1e3),
            _ => None,
        })
        .collect();
    s
}

/// The server's default configuration at this workload's compression.
fn server_cfg() -> ServerConfig {
    ServerConfig {
        compression: COMPRESSION,
        ..ServerConfig::default()
    }
}

/// Set-up: the paper deployment and a server started over it.
fn build(t: &mut Tracer) -> (Deployment, Server) {
    let d = crate::setup::paper_deployment(t);
    let server = t.span("split-runtime.server_start", |_| {
        Server::start(d.clone(), server_cfg())
    });
    (d, server)
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    // Every session serves from a set-up of its own, so the timed set-ups
    // are spread over the run.
    let mut setup = SetupTimer::new(cfg);
    let (deployment, first_server) = setup.time(build);
    let table = deployment.table();
    let models = crate::setup::model_names(&deployment);
    let interval_us = split_cluster::mean_exec_us(table) / LOAD;
    // Traces are made again from their seeds where they are used, so the
    // benchmark's own inputs do not sit in the peak resident set.
    let session_trace = |k: usize| {
        let seed = crate::setup::sub_seed(cfg.seed, k);
        let times = PoissonGen::new(interval_us, seed).take(cfg.requests);
        crate::setup::arrivals(&times, &models, seed)
    };
    let policy = sim::split_policy();

    // The ideal: each session trace through the discrete-event engine.
    let mut ideal_ratios: Vec<Vec<f64>> = Vec::with_capacity(IDEAL_TRACES);
    let mut counts = Counts::default();
    for k in 0..IDEAL_TRACES {
        let r = sched::simulate(&policy, &session_trace(k), table);
        sim::check_conservation(&mut out, &r, cfg.requests, "live-server ideal");
        ideal_ratios.push(r.completions.iter().map(|c| c.response_ratio()).collect());
        counts = counts.add(Counts::of(&r));
    }
    let pooled: Vec<f64> = ideal_ratios.iter().flatten().copied().collect();
    let ideal_failed = IDEAL_TRACES * cfg.requests - pooled.len();
    let ideal = Qos::new(pooled, ideal_failed);
    let mut ideal_ns = Vec::new();
    let mut changed = 0usize;

    let mut server = Some(first_server);
    let mut t = Tracer::new();
    let (mut plain, mut traced_admit) = (Vec::new(), Vec::new());
    let (mut live_ratios, mut served_ideal) = (Vec::new(), Vec::new());
    let (mut lag, mut decisions, mut shutdown_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failed, mut spin_ns, mut wall_ns, mut events) = (0usize, 0u64, 0u64, 0usize);
    let mut rss_mb = Vec::new();
    let sessions = run::until(cfg.deadline(), MIN_SESSIONS, |k| {
        let arrivals = session_trace(k);
        let server = server.take().unwrap_or_else(|| setup.time(build).1);
        // A traced run traces every other session, so the untraced ones
        // measure the tracing overhead on admission.
        let traced = cfg.traced && k % 2 == 1;
        let rss = crate::machine::RssProbe::start();
        let s = serve(&mut out, server, &arrivals, traced.then_some(&mut t));
        rss_mb.push(rss.peak_mb());
        while setup.due() {
            drop(setup.time(build));
        }
        if traced {
            traced_admit.extend(&s.admit_us);
        } else {
            plain.extend(&s.admit_us);
        }
        live_ratios.extend(&s.ratios);
        failed += s.failed;
        lag.extend(&s.lag_us);
        decisions.extend(&s.decision_us);
        shutdown_ns.push(s.shutdown_ns as f64);
        spin_ns += s.spin_ns;
        wall_ns += s.serve_wall_ns;
        events += s.recorder_events;
        match ideal_ratios.get(k) {
            Some(r) => served_ideal.extend(r),
            None => served_ideal.extend(
                sched::simulate(&policy, &arrivals, table)
                    .completions
                    .iter()
                    .map(|c| c.response_ratio()),
            ),
        }
        if cfg.traced {
            let r = t.span("sched.simulate", |t| {
                sim::traced_simulate(t, &arrivals, table)
            });
            sim::traced_observers(&mut t, &r);
        }
        // Time the ideal simulations between sessions, spread over the run
        // rather than in one burst that a neighbour's spike could cover.
        for (j, want) in ideal_ratios.iter().enumerate() {
            let arrivals = session_trace(j);
            let t0 = Instant::now();
            let r = sched::simulate(&policy, &arrivals, table);
            ideal_ns.push(t0.elapsed().as_nanos() as f64 / arrivals.len() as f64);
            changed += usize::from(
                !r.completions
                    .iter()
                    .map(|c| c.response_ratio())
                    .eq(want.iter().copied()),
            );
        }
    });
    out.check(changed == 0, || {
        format!("live-server: {changed} ideal simulations changed their QoS")
    });

    let attempted = sessions * cfg.requests;
    out.attempted = attempted as u64;
    out.failed = failed as u64;
    let live = Qos::new(live_ratios, failed);
    let served_ideal_failed = attempted - served_ideal.len();
    let served_ideal = Qos::new(served_ideal, served_ideal_failed);
    let host_ns = stats::median(&ideal_ns);
    out.e2e.insert("host_ns_per_req", host_ns);
    out.insert_qos(&ideal);
    out.e2e.insert("served_share", 1.0 - live.fail_share());
    plain.sort_by(f64::total_cmp);
    let (p50, p99) = sim::admit_p50_p99(&plain);
    out.layers.insert("admit_p50_us", p50);
    out.layers.insert("admit_p99_us", p99);
    println!(
        "live-server: {sessions} sessions x {} requests; admission sample count {} (p99 has {} \
         beyond); live viol_rate {:.4} rr_p50 {:.3} against ideal {:.4} / {:.3} on the same \
         traces; ideal of {IDEAL_TRACES} traces: {}",
        cfg.requests,
        plain.len(),
        stats::beyond(plain.len(), 0.99),
        live.viol_rate,
        live.rr_p50,
        served_ideal.viol_rate,
        served_ideal.rr_p50,
        stats::sample_note(ideal.attempted),
    );

    if cfg.traced {
        let l = &mut out.layers;
        decisions.sort_by(f64::total_cmp);
        let (d50, d99) = sim::admit_p50_p99(&decisions);
        l.insert("split-runtime.decision_p50_us", d50);
        l.insert("split-runtime.decision_p99_us", d99);
        l.insert(
            "split-runtime.clock_spin_share",
            spin_ns as f64 / wall_ns as f64,
        );
        l.insert(
            "split-runtime.recorder_events_per_req",
            events as f64 / attempted as f64,
        );
        l.insert(
            "split-runtime.shutdown_ms",
            stats::median(&shutdown_ns) / 1e6,
        );
        l.insert("split-runtime.live_viol_rate", live.viol_rate);
        l.insert("split-runtime.live_rr_p50", live.rr_p50);
        l.insert("split-runtime.ideal_viol_rate", served_ideal.viol_rate);
        lag.sort_by(f64::total_cmp);
        l.insert("gen.lag_p99_us", stats::quantile_sorted(&lag, 0.99));
        l.insert(
            "gen.late_share",
            lag.iter().filter(|&&x| x > LATE_US).count() as f64 / lag.len() as f64,
        );
        counts.report(IDEAL_TRACES * cfg.requests, l);
        sim::sim_layers(&mut out, &t, cfg.requests, host_ns);
        traced_admit.sort_by(f64::total_cmp);
        println!(
            "live-server: admission p50 {:.3} us traced against {p50:.3} us untraced",
            stats::quantile_sorted(&traced_admit, 0.5)
        );
        crate::spans::print_self_times(&t, attempted as u64);
        t.write_jsonl(&crate::spans_path("live-server", cfg.seed))
            .unwrap_or_else(|e| eprintln!("spans not written: {e}"));
    }
    setup.report(&mut out, build);
    out.e2e.insert("peak_rss_mb", stats::min(&rss_mb));
    out
}
