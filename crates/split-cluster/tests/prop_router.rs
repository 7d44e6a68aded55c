//! Property tests over the cluster router and sharded engine: every
//! routing policy must conserve requests — no drops, no duplicates, and
//! every completion on a replica device — for arbitrary heterogeneous
//! fleets, placements, and arrival processes; and the router, which
//! drains only the lane it picks, must route exactly like a reference
//! that drains every candidate lane at every arrival.

use gpu_sim::{device_class_labels, FleetEntry, FleetSpec};
use proptest::prelude::*;
use sched::{ModelRuntime, ModelTable, Policy};
use split_cluster::{
    route, simulate_fleet, Fleet, LaneLoad, Placement, RouteCfg, RouteOutcome, RoutePolicy,
    RouteReport,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use workload::Arrival;

/// 1–5 devices drawn from every backend class, with 1–4 spatial
/// partitions each.
fn spec_strategy() -> impl Strategy<Value = FleetSpec> {
    proptest::collection::vec((0usize..device_class_labels().len(), 1usize..4), 1..5).prop_map(
        |entries| FleetSpec {
            entries: entries
                .into_iter()
                .map(|(class, streams)| FleetEntry {
                    class: device_class_labels()[class].to_string(),
                    count: 1,
                    streams,
                })
                .collect(),
        },
    )
}

fn table_strategy() -> impl Strategy<Value = ModelTable> {
    proptest::collection::vec((3_000.0f64..40_000.0, 1usize..4), 1..4).prop_map(|models| {
        let mut t = ModelTable::new();
        for (i, (exec, blocks)) in models.into_iter().enumerate() {
            let name = format!("m{i}");
            if blocks == 1 {
                t.insert(ModelRuntime::vanilla(name, i as u32, exec));
            } else {
                t.insert(ModelRuntime::split(
                    name,
                    i as u32,
                    exec,
                    vec![exec * 1.1 / blocks as f64; blocks],
                ));
            }
        }
        t
    })
}

#[allow(clippy::type_complexity)]
fn cluster_strategy() -> impl Strategy<Value = (FleetSpec, ModelTable, Vec<Arrival>, usize, u64)> {
    (
        spec_strategy(),
        table_strategy(),
        proptest::collection::vec((0.0f64..600_000.0, 0usize..4), 1..80),
        1usize..5,
        0u64..u64::MAX,
    )
        .prop_map(|(spec, table, raw, replicas, seed)| {
            let n_models = table.len();
            let mut arrivals: Vec<Arrival> = raw
                .into_iter()
                .map(|(at, m)| Arrival {
                    id: 0,
                    model: format!("m{}", m % n_models),
                    arrival_us: at,
                })
                .collect();
            arrivals.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
            for (i, a) in arrivals.iter_mut().enumerate() {
                a.id = i as u64;
            }
            (spec, table, arrivals, replicas, seed)
        })
}

/// Like [`cluster_strategy`], but on a 1 ms grid with gaps of 0–3
/// slots, so same-time arrivals are common and lanes stay busy.
#[allow(clippy::type_complexity)]
fn tied_cluster_strategy(
) -> impl Strategy<Value = (FleetSpec, ModelTable, Vec<Arrival>, usize, u64)> {
    (
        spec_strategy(),
        table_strategy(),
        proptest::collection::vec((0u64..4, 0usize..4), 1..120),
        1usize..5,
        0u64..u64::MAX,
    )
        .prop_map(|(spec, table, raw, replicas, seed)| {
            let n_models = table.len();
            let mut t = 0u64;
            let arrivals = raw
                .into_iter()
                .enumerate()
                .map(|(id, (gap, m))| {
                    t += gap * 1_000;
                    Arrival {
                        id: id as u64,
                        model: format!("m{}", m % n_models),
                        arrival_us: t as f64,
                    }
                })
                .collect();
            (spec, table, arrivals, replicas, seed)
        })
}

/// The router as it was before lazy draining: two map lookups per
/// arrival and every candidate lane drained at every arrival.
fn eager_route(
    arrivals: &[Arrival],
    fleet: &Fleet,
    placement: &Placement,
    cfg: &RouteCfg,
) -> RouteOutcome {
    struct LaneState {
        work_end_us: f64,
        finishes: VecDeque<f64>,
        routed: u64,
        demand_us: f64,
        peak_queue: usize,
    }
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn argmin_by(cands: &[usize], key: impl Fn(usize) -> f64) -> usize {
        let mut best = cands[0];
        let mut best_key = key(best);
        for &lane in &cands[1..] {
            let k = key(lane);
            if k < best_key || (k == best_key && lane < best) {
                best = lane;
                best_key = k;
            }
        }
        best
    }
    let lane_count = fleet.lanes().len();
    let mut candidates: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (model, devices) in placement.iter() {
        let mut lanes = Vec::new();
        for &d in devices {
            lanes.extend_from_slice(fleet.device_lanes(d));
        }
        candidates.insert(model.as_str(), lanes);
    }
    let mut states: Vec<LaneState> = (0..lane_count)
        .map(|_| LaneState {
            work_end_us: 0.0,
            finishes: VecDeque::new(),
            routed: 0,
            demand_us: 0.0,
            peak_queue: 0,
        })
        .collect();
    let outstanding = |st: &LaneState, now: f64| (st.work_end_us - now).max(0.0);
    let mut assignments: Vec<Vec<Arrival>> = vec![Vec::new(); lane_count];
    let mut rng = cfg.seed ^ 0x9E3779B97F4A7C15;
    if rng == 0 {
        rng = 0x9E3779B97F4A7C15;
    }
    for a in arrivals {
        let cands = &candidates[a.model.as_str()];
        let t = a.arrival_us;
        for &lane in cands {
            let st = &mut states[lane];
            while st.finishes.front().is_some_and(|&f| f <= t) {
                st.finishes.pop_front();
            }
        }
        let pick = match cfg.policy {
            RoutePolicy::LeastOutstandingWork => {
                argmin_by(cands, |lane| outstanding(&states[lane], t))
            }
            RoutePolicy::JoinShortestQueue => {
                argmin_by(cands, |lane| states[lane].finishes.len() as f64)
            }
            RoutePolicy::PowerOfTwoChoices => {
                let i = (xorshift(&mut rng) % cands.len() as u64) as usize;
                let j = (xorshift(&mut rng) % cands.len() as u64) as usize;
                let (a_lane, b_lane) = (cands[i], cands[j]);
                let (sa, sb) = (
                    outstanding(&states[a_lane], t),
                    outstanding(&states[b_lane], t),
                );
                if sb < sa || (sb == sa && b_lane < a_lane) {
                    b_lane
                } else {
                    a_lane
                }
            }
        };
        let exec = fleet.lane_table(pick).get(&a.model).exec_us;
        let st = &mut states[pick];
        st.work_end_us = st.work_end_us.max(t) + exec;
        st.finishes.push_back(st.work_end_us);
        st.peak_queue = st.peak_queue.max(st.finishes.len());
        st.routed += 1;
        st.demand_us += exec;
        assignments[pick].push(a.clone());
    }
    let span_us = match (arrivals.first(), arrivals.last()) {
        (Some(first), Some(last)) => (last.arrival_us - first.arrival_us).max(1.0),
        _ => 1.0,
    };
    let lanes = states
        .iter()
        .enumerate()
        .map(|(i, st)| LaneLoad {
            lane: i,
            device: fleet.lanes()[i].device,
            stream: fleet.lanes()[i].stream,
            routed: st.routed,
            demand_us: st.demand_us,
            peak_queue: st.peak_queue,
            saturation: st.demand_us / span_us,
        })
        .collect();
    RouteOutcome {
        report: RouteReport {
            policy: cfg.policy.name().to_string(),
            lanes,
            span_us,
            routed: arrivals.len() as u64,
        },
        assignments,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lazy draining is exact: under every policy, on full and
    /// replicated placements, the router's report (peak queues
    /// included, every float bit for bit) and assignments equal the
    /// eager reference's.
    #[test]
    fn lazy_drain_routes_like_the_eager_reference(
        (spec, table, arrivals, replicas, seed) in tied_cluster_strategy()
    ) {
        let fleet = Fleet::new(&spec, &table);
        for placement in [
            Placement::full(&fleet, &table),
            Placement::replicated(&fleet, &table, replicas),
        ] {
            for policy in RoutePolicy::all() {
                let cfg = RouteCfg { policy, seed };
                let got = route(&arrivals, &fleet, &placement, &cfg);
                let want = eager_route(&arrivals, &fleet, &placement, &cfg);
                prop_assert_eq!(format!("{:?}", got.report), format!("{:?}", want.report));
                prop_assert_eq!(&got.assignments, &want.assignments, "{}", policy.name());
            }
        }
    }

    /// The router assigns every arrival to exactly one lane of a replica
    /// device, and the totals it reports agree with the assignments.
    #[test]
    fn every_policy_conserves_routed_requests(
        (spec, table, arrivals, replicas, seed) in cluster_strategy()
    ) {
        let fleet = Fleet::new(&spec, &table);
        let placement = Placement::replicated(&fleet, &table, replicas);
        for policy in RoutePolicy::all() {
            let out = route(&arrivals, &fleet, &placement, &RouteCfg { policy, seed });
            let assigned: usize = out.assignments.iter().map(Vec::len).sum();
            prop_assert_eq!(assigned, arrivals.len(), "{} dropped or duplicated", policy.name());
            prop_assert_eq!(out.report.routed, arrivals.len() as u64);
            let mut seen = BTreeSet::new();
            for (lane, assigned) in out.assignments.iter().enumerate() {
                let device = fleet.lanes()[lane].device;
                for a in assigned {
                    prop_assert!(seen.insert(a.id), "request {} routed twice", a.id);
                    prop_assert!(
                        placement.devices_for(&a.model).contains(&device),
                        "request {} routed off-replica to device {device}",
                        a.id
                    );
                }
            }
        }
    }

    /// End to end: the sharded engine completes exactly the routed set,
    /// once each, under every policy.
    #[test]
    fn every_policy_conserves_completions(
        (spec, table, arrivals, replicas, seed) in cluster_strategy()
    ) {
        let fleet = Fleet::new(&spec, &table);
        let placement = Placement::replicated(&fleet, &table, replicas);
        for policy in RoutePolicy::all() {
            let result = simulate_fleet(
                &Policy::Split(Default::default()),
                &arrivals,
                &fleet,
                &placement,
                &RouteCfg { policy, seed },
            );
            prop_assert_eq!(result.completed(), arrivals.len() as u64, "{}", policy.name());
            let ids: BTreeSet<u64> = result
                .shards
                .iter()
                .flat_map(|s| s.completions.iter().map(|c| c.id))
                .collect();
            prop_assert_eq!(
                ids.len(),
                arrivals.len(),
                "{}: duplicate or missing completion ids",
                policy.name()
            );
            prop_assert!(arrivals.iter().all(|a| ids.contains(&a.id)));
        }
    }
}
