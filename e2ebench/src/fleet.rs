//! `fleet-steady`: a 16-lane heterogeneous fleet under stationary Poisson
//! load, served by `split_cluster::simulate_fleet` with SPLIT per lane.
//!
//! Why: routing, the per-lane shards on the pool and the merge do the work
//! while every lane queue stays shallow. It is the contrast for any change
//! to preemption (which barely runs here) and the workload on which a
//! change to the router, the pool or the merge shows.

use crate::report::Outcome;
use crate::run::{self, RunCfg, SetupTimer};
use crate::sim::{self, Counts};
use crate::spans::Tracer;
use crate::stats::{self, Qos};
use gpu_sim::FleetSpec;
use sched::Policy;
use split_cluster::{ClusterResult, Fleet, Placement, RouteCfg};
use std::time::Instant;
use workload::{Arrival, PoissonGen};

/// Requests per trace.
pub const REQUESTS: usize = 40_000;

/// Eight Jetson Nanos and eight single-partition Xavier NXs: 16 lanes.
const SPEC: &str = "jetson*8,nx:1*8";

/// Traces per run. Iterations cycle through them, and QoS pools all of
/// them: at this load violations are rare and come in bursts, so one
/// trace's violation rate moves by a quarter from seed to seed.
const TRACES: usize = 32;

/// Offered load as a share of the fleet's capacity.
const LOAD: f64 = 0.7;

/// What `simulate_fleet` serves against.
struct Cluster {
    deployment: split_runtime::Deployment,
    fleet: Fleet,
    placement: Placement,
}

/// Set-up: the paper deployment, the fleet and its placement.
fn build(t: &mut Tracer) -> Cluster {
    let deployment = crate::setup::paper_deployment(t);
    let spec = FleetSpec::parse(SPEC).expect("the fleet spec is valid");
    let (fleet, placement) = t.span("split-cluster.fleet", |_| {
        let fleet = Fleet::new(&spec, deployment.table());
        let placement = Placement::full(&fleet, deployment.table());
        (fleet, placement)
    });
    Cluster {
        deployment,
        fleet,
        placement,
    }
}

/// The serving call: route, simulate every lane on the pool, merge.
fn serve(c: &Cluster, arrivals: &[Arrival], policy: &Policy) -> (ClusterResult, Merged) {
    let r = split_cluster::simulate_fleet(
        policy,
        arrivals,
        &c.fleet,
        &c.placement,
        &RouteCfg::default(),
    );
    let merged = merge(&r);
    (r, merged)
}

/// The merged views a fleet user reads.
struct Merged {
    metrics: split_telemetry::Registry,
    outcomes: Vec<qos_metrics::RequestOutcome>,
}

fn merge(r: &ClusterResult) -> Merged {
    let metrics = r.merged_metrics();
    drop(r.merged_sketches());
    Merged {
        metrics,
        outcomes: r.outcomes(),
    }
}

fn qos(m: &Merged, attempted: usize) -> Qos {
    let ratios: Vec<f64> = m.outcomes.iter().map(|o| o.response_ratio()).collect();
    let failed = attempted.saturating_sub(ratios.len());
    Qos::new(ratios, failed)
}

/// Check one serving result against the first: every request routed and
/// completed, and the same schedule and QoS.
fn check(
    out: &mut Outcome,
    r: &ClusterResult,
    m: &Merged,
    n: usize,
    want: Option<(u64, [u64; 4])>,
) -> (u64, [u64; 4]) {
    let shard_routed: u64 = r.shards.iter().map(|s| s.routed).sum();
    out.check(
        r.route.routed == n as u64 && shard_routed == r.completed() && r.completed() == n as u64,
        || {
            format!(
                "fleet: {n} arrivals, {} routed, {shard_routed} on shards, {} completed",
                r.route.routed,
                r.completed()
            )
        },
    );
    out.check(
        m.outcomes.iter().enumerate().all(|(i, o)| o.id == i as u64),
        || "fleet: outcomes are not each arrival once, in id order".to_string(),
    );
    let got = (r.digest(), sim::qos_bits(&qos(m, n)));
    if let Some(want) = want {
        out.check(got == want, || {
            format!("fleet: schedule or QoS changed: {got:?} != {want:?}")
        });
    }
    got
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = SetupTimer::new(cfg);
    let cluster = setup.time(build);
    let table = cluster.deployment.table();
    let models = crate::setup::model_names(&cluster.deployment);
    let interval_us = split_cluster::offered_interval_us(table, &cluster.fleet, LOAD);
    let n = cfg.requests;
    // Traces are made again from their seeds where they are used, outside
    // the timed region, so the benchmark's own inputs do not sit in the
    // peak resident set.
    let trace_k = |k: usize| {
        let seed = crate::setup::sub_seed(cfg.seed, k % TRACES);
        let times = PoissonGen::new(interval_us, seed).take(n);
        crate::setup::arrivals(&times, &models, seed)
    };
    let policy = sim::split_policy();
    let threads = rayon::current_threads();
    let lanes = cluster.fleet.lanes().len();

    // First pass, untimed: each trace's digest and QoS at the pool's
    // width, which one thread and every later iteration must reproduce.
    let mut want = Vec::with_capacity(TRACES);
    let mut ratios = Vec::with_capacity(TRACES * n);
    let mut fails = Vec::with_capacity(TRACES);
    let mut imbalance = 0.0;
    for k in 0..TRACES {
        let arrivals = trace_k(k);
        let (r, m) = serve(&cluster, &arrivals, &policy);
        let got = check(&mut out, &r, &m, n, None);
        want.push(got);
        fails.push(n.saturating_sub(m.outcomes.len()));
        ratios.extend(m.outcomes.iter().map(|o| o.response_ratio()));
        if k == 0 {
            imbalance = route_imbalance(&r);
        }
        drop((r, m));
        let (one, one_merged) = rayon::with_threads(1, || serve(&cluster, &arrivals, &policy));
        out.check(one.digest() == got.0, || {
            format!(
                "fleet: digest at 1 thread {:#x} != at {threads} threads {:#x}",
                one.digest(),
                got.0
            )
        });
        check(&mut out, &one, &one_merged, n, Some(got));
    }
    let qos = Qos::new(ratios, fails.iter().sum());

    let mut pool_ns = Vec::new();
    let mut rss_mb = Vec::new();
    let mut one_ns = Vec::new();
    let mut admit_p50 = Vec::new();
    let mut admit_p99 = Vec::new();
    let mut counts = Counts::default();
    let mut t = Tracer::new();
    let iters = run::until(cfg.deadline(), 3, |i| {
        if setup.due() {
            drop(setup.time(build));
        }
        let (arrivals, want) = (trace_k(i), Some(want[i % TRACES]));
        let rss = crate::machine::RssProbe::start();
        let t0 = Instant::now();
        let (r, m) = serve(&cluster, &arrivals, &policy);
        pool_ns.push(t0.elapsed().as_nanos() as f64);
        rss_mb.push(rss.peak_mb());
        let decision_ns = m.metrics.histogram("sched.preempt.decision_ns");
        admit_p50.push(decision_ns.p50() as f64 / 1e3);
        admit_p99.push(decision_ns.p99() as f64 / 1e3);
        check(&mut out, &r, &m, n, want);
        drop((r, m));
        if cfg.traced {
            let t0 = Instant::now();
            let (r, m) = rayon::with_threads(1, || serve(&cluster, &arrivals, &policy));
            one_ns.push(t0.elapsed().as_nanos() as f64);
            check(&mut out, &r, &m, n, want);
            drop(m);
            let c = t.span("fleet.sequential", |t| {
                traced_serve(t, &cluster, &arrivals, &r)
            });
            if i < TRACES {
                counts = counts.add(c);
            }
        }
    });

    out.attempted = (n * iters) as u64;
    out.failed = (0..iters).map(|i| fails[i % TRACES] as u64).sum();
    let host_ns = stats::median(&pool_ns) / n as f64;
    out.e2e.insert("host_ns_per_req", host_ns);
    out.insert_qos(&qos);
    out.layers.insert("admit_p50_us", stats::mean(&admit_p50));
    out.layers.insert("admit_p99_us", stats::mean(&admit_p99));
    println!(
        "fleet-steady: {TRACES} traces x {n} requests, {iters} iterations on {lanes} lanes at \
         {threads} threads; {}",
        stats::sample_note(qos.attempted)
    );
    if cfg.traced {
        out.layers
            .insert("split-cluster.route_imbalance", imbalance);
        layers(&mut out, &t, lanes, n, iters, host_ns, &one_ns, threads);
        counts.report(n * iters.min(TRACES), &mut out.layers);
        crate::spans::print_self_times(&t, (n * iters) as u64);
        t.write_jsonl(&crate::spans_path("fleet-steady", cfg.seed))
            .unwrap_or_else(|e| eprintln!("spans not written: {e}"));
    }
    setup.report(&mut out, build);
    out.e2e.insert("peak_rss_mb", stats::min(&rss_mb));
    out
}

/// Router saturation: max lane load ÷ mean lane load.
fn route_imbalance(r: &ClusterResult) -> f64 {
    let loads: Vec<f64> = r.route.lanes.iter().map(|l| l.saturation).collect();
    let mean_load = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    loads.iter().copied().fold(0.0, f64::max) / mean_load
}

/// `simulate_fleet` taken apart and run one layer at a time on this
/// thread: route, renumber each lane's sub-trace, simulate each lane
/// (policy, lifecycle, metrics registry), and merge `r`, a result of the
/// same serving call. Returns the lanes' recording counts.
fn traced_serve(t: &mut Tracer, c: &Cluster, arrivals: &[Arrival], r: &ClusterResult) -> Counts {
    let routed = t.span("split-cluster.route", |_| {
        split_cluster::route(arrivals, &c.fleet, &c.placement, &RouteCfg::default())
    });
    let lanes: Vec<Vec<Arrival>> = t.span("split-cluster.renumber", |_| {
        routed
            .assignments
            .into_iter()
            .map(|arrs| {
                arrs.into_iter()
                    .enumerate()
                    .map(|(i, mut a)| {
                        a.id = i as u64;
                        a
                    })
                    .collect()
            })
            .collect()
    });
    let mut counts = Counts::default();
    for (lane, arrs) in lanes.iter().enumerate() {
        let result = t.span("split-cluster.lane", |t| {
            let result = sim::traced_simulate(t, arrs, c.fleet.lane_table(lane));
            t.span("split-telemetry.metrics", |_| drop(result.metrics()));
            result
        });
        counts = counts.add(Counts::of(&result));
    }
    t.span("split-cluster.merge", |_| drop(merge(r)));
    counts
}

/// Sums of the spans named `name` per traced iteration.
fn per_iteration_sums(t: &Tracer, name: &str, iters: usize) -> Vec<f64> {
    let d: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    d.chunks(d.len().div_ceil(iters).max(1))
        .map(|c| c.iter().sum())
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn layers(
    out: &mut Outcome,
    t: &Tracer,
    lanes: usize,
    n: usize,
    iters: usize,
    host_ns: f64,
    one_ns: &[f64],
    threads: usize,
) {
    let per_req = |name: &str| stats::median(&per_iteration_sums(t, name, iters)) / n as f64;
    let route = per_req("split-cluster.route");
    let renumber = per_req("split-cluster.renumber");
    let policy = per_req("sched.policy.split");
    let lifecycle = per_req("sched.attach_lifecycle");
    let registry = per_req("split-telemetry.metrics");
    let merge_ns = run::median_span_ns(t, "split-cluster.merge");
    out.layers.insert("split-cluster.route_ns_per_req", route);
    out.layers.insert("sched.policy_ns_per_req", policy);
    out.layers.insert("sched.lifecycle_ns_per_req", lifecycle);
    out.layers
        .insert("split-telemetry.registry_ns_per_req", registry);
    out.layers.insert("split-cluster.merge_ms", merge_ns / 1e6);

    // Each lane's simulate is its policy span plus its lifecycle span.
    let policy_spans = t.spans().iter().filter(|s| s.name == "sched.policy.split");
    let lifecycle_spans = t
        .spans()
        .iter()
        .filter(|s| s.name == "sched.attach_lifecycle");
    let lane_ns: Vec<f64> = policy_spans
        .zip(lifecycle_spans)
        .map(|(p, l)| (p.dur_ns() + l.dur_ns()) as f64)
        .collect();
    let lanes = lanes.max(1);
    let max: Vec<f64> = lane_ns
        .chunks(lanes)
        .map(|c| c.iter().copied().fold(0.0, f64::max))
        .collect();
    let sum: Vec<f64> = lane_ns.chunks(lanes).map(|c| c.iter().sum()).collect();
    out.layers
        .insert("split-cluster.lane_ms_max", stats::median(&max) / 1e6);
    out.layers
        .insert("split-cluster.lane_ms_sum", stats::median(&sum) / 1e6);

    let one_ns_per_req = stats::median(one_ns) / n as f64;
    let speedup = one_ns_per_req / host_ns;
    out.layers.insert("rayon.speedup", speedup);
    out.layers.insert(
        "rayon.efficiency",
        speedup / crate::machine::nproc().min(threads) as f64,
    );
    // The decomposition runs on one thread, so it accounts for the
    // serving call at one thread; the pool divides that by the speedup.
    let sum_layers = route + renumber + policy + lifecycle + registry + merge_ns / n as f64;
    out.layers.insert("trace.layers_ns_per_req", sum_layers);
    out.layers.insert(
        "trace.unattributed_share",
        1.0 - sum_layers / one_ns_per_req,
    );
    out.layers.insert(
        "trace.overhead_share",
        stats::median(&per_iteration_sums(t, "fleet.sequential", iters))
            / n as f64
            / one_ns_per_req
            - 1.0,
    );
    println!(
        "fleet-steady: layers {sum_layers:.1} ns/req on one thread against the serving call's \
         {one_ns_per_req:.1} ns/req at 1 thread and {host_ns:.1} ns/req at {threads} threads \
         (speedup {speedup:.2}); critical path route + renumber + slowest lane + merge = {:.1} ns/req",
        route + renumber + stats::median(&max) / n as f64 + merge_ns / n as f64
    );
}
