//! The cluster router: assign each arrival to one scheduler lane.
//!
//! Routing is a single deterministic pass over the time-ordered arrival
//! stream. For every lane the router maintains a fluid view of its
//! outstanding work — the estimated virtual time at which its queued
//! requests finish — using the lane's own speed-scaled table, so a
//! request "weighs" more on a slow Jetson lane than on an edge-server
//! lane. The balancing policies consult that saturation telemetry:
//!
//! * [`RoutePolicy::LeastOutstandingWork`] — pick the candidate lane
//!   with the least pending work (µs).
//! * [`RoutePolicy::JoinShortestQueue`] — pick the candidate lane with
//!   the fewest requests still queued/running.
//! * [`RoutePolicy::PowerOfTwoChoices`] — sample two candidate lanes
//!   with a seeded xorshift generator and keep the less-loaded one.
//!
//! Ties always break toward the lowest lane index, and the random
//! policy draws from its own deterministic stream, so a `(arrivals,
//! fleet, placement, cfg)` tuple routes identically on every run and at
//! every `SPLIT_THREADS`.

use crate::fleet::{Fleet, Placement};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use workload::Arrival;

/// Balancing policy used by [`route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// Send to the candidate lane with the least outstanding work (µs).
    LeastOutstandingWork,
    /// Send to the candidate lane with the shortest queue (requests).
    JoinShortestQueue,
    /// Sample two candidate lanes; send to the less loaded.
    PowerOfTwoChoices,
}

impl RoutePolicy {
    /// Display name used in figures and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            RoutePolicy::LeastOutstandingWork => "least-outstanding-work",
            RoutePolicy::JoinShortestQueue => "join-shortest-queue",
            RoutePolicy::PowerOfTwoChoices => "power-of-two-choices",
        }
    }

    /// All policies, in a fixed order.
    pub fn all() -> Vec<RoutePolicy> {
        vec![
            RoutePolicy::LeastOutstandingWork,
            RoutePolicy::JoinShortestQueue,
            RoutePolicy::PowerOfTwoChoices,
        ]
    }

    /// Parse a CLI spelling (`low`, `jsq`, `p2c`, or the full name).
    pub fn parse(text: &str) -> Option<RoutePolicy> {
        match text {
            "low" | "least-outstanding-work" => Some(RoutePolicy::LeastOutstandingWork),
            "jsq" | "join-shortest-queue" => Some(RoutePolicy::JoinShortestQueue),
            "p2c" | "power-of-two-choices" => Some(RoutePolicy::PowerOfTwoChoices),
            _ => None,
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteCfg {
    /// Balancing policy.
    pub policy: RoutePolicy,
    /// Seed for the power-of-two-choices sampler (unused by the
    /// deterministic-argmin policies, but part of the reproducibility
    /// tuple either way).
    pub seed: u64,
}

impl Default for RouteCfg {
    fn default() -> Self {
        Self {
            policy: RoutePolicy::LeastOutstandingWork,
            seed: 0x51C,
        }
    }
}

/// Per-lane routing telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneLoad {
    /// Lane index.
    pub lane: usize,
    /// Device the lane belongs to.
    pub device: usize,
    /// Partition index within the device.
    pub stream: usize,
    /// Requests routed to the lane.
    pub routed: u64,
    /// Estimated work routed to the lane, µs of lane time.
    pub demand_us: f64,
    /// Peak number of requests simultaneously outstanding (router's
    /// fluid estimate).
    pub peak_queue: usize,
    /// `demand_us` over the arrival span — sustained saturation of the
    /// lane; above 1.0 the lane cannot drain what it was sent.
    pub saturation: f64,
}

/// Routing summary kept after the per-lane arrival lists are consumed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteReport {
    /// Balancing policy name.
    pub policy: String,
    /// Per-lane telemetry, lane-major.
    pub lanes: Vec<LaneLoad>,
    /// Arrival span (first to last arrival), µs.
    pub span_us: f64,
    /// Total requests routed.
    pub routed: u64,
}

/// Full routing outcome: the report plus each lane's sub-trace.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    /// Summary telemetry.
    pub report: RouteReport,
    /// Per-lane arrival lists (time-ordered, original request ids).
    pub assignments: Vec<Vec<Arrival>>,
}

/// xorshift64* — tiny deterministic sampler for power-of-two-choices.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

struct LaneState {
    /// Virtual time at which the lane's queued work is estimated to
    /// finish.
    work_end_us: f64,
    /// Estimated finish time of each outstanding request.
    finishes: VecDeque<f64>,
    routed: u64,
    demand_us: f64,
    peak_queue: usize,
}

impl LaneState {
    fn outstanding_us(&self, now_us: f64) -> f64 {
        (self.work_end_us - now_us).max(0.0)
    }

    fn drain(&mut self, now_us: f64) {
        while self.finishes.front().is_some_and(|&f| f <= now_us) {
            self.finishes.pop_front();
        }
    }
}

/// Route `arrivals`, which must be in nondecreasing arrival time (as
/// every workload generator emits them), over the fleet's lanes.
///
/// Each arrival's model is looked up once, in per-call tables of its
/// candidate lanes and of their `exec_us`. A lane's queue is drained
/// lazily, when it is picked: its finish times only grow and arrivals
/// come in time order, so draining at the pick leaves the same queue as
/// draining at every arrival. The policies that pick by outstanding work
/// never read another lane's queue; join-shortest-queue reads every
/// candidate's length, so it drains them all first.
///
/// # Panics
/// Panics when an arrival references a model with no placement, when
/// the placement names a device outside the fleet, or when a placed
/// model is missing from one of its lanes' tables.
pub fn route(
    arrivals: &[Arrival],
    fleet: &Fleet,
    placement: &Placement,
    cfg: &RouteCfg,
) -> RouteOutcome {
    let lane_count = fleet.lanes().len();
    // Per placed model: its index, its candidate lanes (all lanes of
    // every replica device) and each candidate's execution time.
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(placement.len());
    let mut exec_us: Vec<Vec<f64>> = Vec::with_capacity(placement.len());
    for (model, devices) in placement.iter() {
        let mut lanes = Vec::new();
        for &d in devices {
            assert!(
                d < fleet.devices().len(),
                "placement names device {d} outside the {}-device fleet",
                fleet.devices().len()
            );
            lanes.extend_from_slice(fleet.device_lanes(d));
        }
        index.insert(model.as_str(), candidates.len());
        exec_us.push(
            lanes
                .iter()
                .map(|&lane| fleet.lane_table(lane).get(model).exec_us)
                .collect(),
        );
        candidates.push(lanes);
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
    let mut assignments: Vec<Vec<Arrival>> = vec![Vec::new(); lane_count];
    let mut rng = cfg.seed ^ 0x9E3779B97F4A7C15;
    if rng == 0 {
        rng = 0x9E3779B97F4A7C15;
    }

    for a in arrivals {
        let m = *index
            .get(a.model.as_str())
            .unwrap_or_else(|| panic!("model {:?} has no placement", a.model));
        let cands = &candidates[m];
        let t = a.arrival_us;
        // Position of the picked lane within `cands`.
        let k = match cfg.policy {
            RoutePolicy::LeastOutstandingWork => {
                argmin_by(cands, |lane| states[lane].outstanding_us(t))
            }
            RoutePolicy::JoinShortestQueue => {
                for &lane in cands {
                    states[lane].drain(t);
                }
                argmin_by(cands, |lane| states[lane].finishes.len() as f64)
            }
            RoutePolicy::PowerOfTwoChoices => {
                let i = (xorshift(&mut rng) % cands.len() as u64) as usize;
                let j = (xorshift(&mut rng) % cands.len() as u64) as usize;
                let (a_lane, b_lane) = (cands[i], cands[j]);
                let (sa, sb) = (
                    states[a_lane].outstanding_us(t),
                    states[b_lane].outstanding_us(t),
                );
                if sb < sa || (sb == sa && b_lane < a_lane) {
                    j
                } else {
                    i
                }
            }
        };
        let (pick, exec) = (cands[k], exec_us[m][k]);
        let st = &mut states[pick];
        st.drain(t);
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

/// Position in `cands` of the lane minimizing `key`, ties toward the
/// lowest lane index. `key` must return finite values.
fn argmin_by(cands: &[usize], key: impl Fn(usize) -> f64) -> usize {
    let mut best = 0;
    let mut best_key = key(cands[0]);
    for (pos, &lane) in cands.iter().enumerate().skip(1) {
        let k = key(lane);
        if k < best_key || (k == best_key && lane < cands[best]) {
            best = pos;
            best_key = k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::FleetSpec;
    use sched::{ModelRuntime, ModelTable};

    fn base_table() -> ModelTable {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("small", 0, 10_000.0));
        t.insert(ModelRuntime::vanilla("big", 1, 40_000.0));
        t
    }

    fn arrivals(n: u64, gap_us: f64) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                id: i,
                model: (if i % 4 == 0 { "big" } else { "small" }).to_string(),
                arrival_us: i as f64 * gap_us,
            })
            .collect()
    }

    fn fleet() -> Fleet {
        Fleet::new(&FleetSpec::parse("jetson*2,nx:2*1").unwrap(), &base_table())
    }

    #[test]
    fn every_policy_conserves_requests() {
        let f = fleet();
        let p = Placement::full(&f, &base_table());
        let a = arrivals(200, 3_000.0);
        for policy in RoutePolicy::all() {
            let out = route(&a, &f, &p, &RouteCfg { policy, seed: 7 });
            let total: usize = out.assignments.iter().map(Vec::len).sum();
            assert_eq!(total, 200, "{}", policy.name());
            assert_eq!(out.report.routed, 200);
            let mut ids: Vec<u64> = out
                .assignments
                .iter()
                .flat_map(|l| l.iter().map(|a| a.id))
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..200).collect::<Vec<_>>(), "{}", policy.name());
        }
    }

    #[test]
    fn lane_sub_traces_stay_time_ordered() {
        let f = fleet();
        let p = Placement::full(&f, &base_table());
        let a = arrivals(300, 1_000.0);
        let out = route(&a, &f, &p, &RouteCfg::default());
        for lane in &out.assignments {
            for w in lane.windows(2) {
                assert!(w[0].arrival_us <= w[1].arrival_us);
            }
        }
    }

    #[test]
    fn least_outstanding_work_prefers_fast_lanes_under_pressure() {
        let f = fleet();
        let p = Placement::full(&f, &base_table());
        // Arrivals far faster than the jetson lanes can drain: the two
        // nx lanes (speed 4/lane pre-contention) must absorb more work.
        let a = arrivals(400, 2_000.0);
        let out = route(&a, &f, &p, &RouteCfg::default());
        let jetson: u64 = out.report.lanes[..2].iter().map(|l| l.routed).sum();
        let nx: u64 = out.report.lanes[2..].iter().map(|l| l.routed).sum();
        assert!(nx > jetson, "nx {nx} vs jetson {jetson}");
    }

    #[test]
    fn routing_is_reproducible() {
        let f = fleet();
        let p = Placement::full(&f, &base_table());
        let a = arrivals(200, 2_500.0);
        for policy in RoutePolicy::all() {
            let cfg = RouteCfg { policy, seed: 42 };
            let x = route(&a, &f, &p, &cfg);
            let y = route(&a, &f, &p, &cfg);
            assert_eq!(x.report, y.report);
        }
    }

    #[test]
    fn p2c_seed_changes_the_sample_stream() {
        let f = fleet();
        let p = Placement::full(&f, &base_table());
        let a = arrivals(300, 2_000.0);
        let policy = RoutePolicy::PowerOfTwoChoices;
        let x = route(&a, &f, &p, &RouteCfg { policy, seed: 1 });
        let y = route(&a, &f, &p, &RouteCfg { policy, seed: 2 });
        let rx: Vec<u64> = x.report.lanes.iter().map(|l| l.routed).collect();
        let ry: Vec<u64> = y.report.lanes.iter().map(|l| l.routed).collect();
        assert_ne!(rx, ry, "different seeds should route differently");
    }

    #[test]
    fn respects_partial_placement() {
        let f = fleet();
        let p = Placement::replicated(&f, &base_table(), 1);
        let a = arrivals(100, 5_000.0);
        let out = route(&a, &f, &p, &RouteCfg::default());
        for (lane, assigned) in out.assignments.iter().enumerate() {
            let device = f.lanes()[lane].device;
            for arr in assigned {
                assert!(
                    p.devices_for(&arr.model).contains(&device),
                    "request routed off-replica"
                );
            }
        }
    }

    #[test]
    fn policy_parse_roundtrips() {
        for policy in RoutePolicy::all() {
            assert_eq!(RoutePolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(
            RoutePolicy::parse("p2c"),
            Some(RoutePolicy::PowerOfTwoChoices)
        );
        assert_eq!(RoutePolicy::parse("fifo"), None);
    }
}
