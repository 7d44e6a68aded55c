//! The paper deployment and the seeded request streams every workload
//! is built from.

use crate::spans::Tracer;
use gpu_sim::DeviceConfig;
use model_zoo::ModelId;
use split_core::{PlanSet, SplitPlan};
use split_runtime::Deployment;
use workload::Arrival;

/// Models SPLIT splits (§5.4 splits the long ones).
const SPLIT_MODELS: [ModelId; 2] = [ModelId::ResNet50, ModelId::Vgg19];

/// GA seed of the offline stage; fixed, so every seed serves one plan.
const OFFLINE_SEED: u64 = 99;

/// Calibrate the five Table 1 models to the Jetson Nano, GA-split the long
/// ones into 2–4 blocks, and deploy all five. Each layer call gets a span.
pub fn paper_deployment(t: &mut Tracer) -> Deployment {
    let dev = DeviceConfig::jetson_nano();
    let graphs: Vec<_> = t.span("model-zoo.build_calibrated", |_| {
        model_zoo::benchmark_models()
            .into_iter()
            .map(|id| (id, id.build_calibrated(&dev)))
            .collect()
    });
    let plans = t.span("split-core.plan", |_| {
        let mut plans = PlanSet::new();
        for (id, g) in &graphs {
            plans.insert(if SPLIT_MODELS.contains(id) {
                SplitPlan::offline(g, &dev, 2..=4, OFFLINE_SEED).0
            } else {
                SplitPlan::vanilla(g, &dev)
            });
        }
        plans
    });
    t.span("split-runtime.deploy_all", |_| {
        let mut d = Deployment::new();
        d.deploy_all(&plans);
        d
    })
}

/// Deployed model names, in the table's (sorted) order.
pub fn model_names(d: &Deployment) -> Vec<String> {
    d.table().iter().map(|m| m.name.to_string()).collect()
}

/// SplitMix64: the benchmark's own model-draw generator, kept apart from
/// the arrival-time generators so either can change without moving the
/// other.
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed of a workload's `k`-th trace; trace 0 takes the run's seed itself.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Pair arrival times with models drawn uniformly (the paper's mix) by a
/// generator seeded from `seed`; ids are dense from 0.
pub fn arrivals(times: &[f64], models: &[String], seed: u64) -> Vec<Arrival> {
    let mut draw = SplitMix::new(seed ^ 0x6D6F_6465_6C73);
    times
        .iter()
        .enumerate()
        .map(|(i, &t)| Arrival {
            id: i as u64,
            model: models[draw.below(models.len())].clone(),
            arrival_us: t,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let models: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let times: Vec<f64> = (0..64).map(f64::from).collect();
        let x = arrivals(&times, &models, 7);
        assert_eq!(x, arrivals(&times, &models, 7));
        assert_ne!(x, arrivals(&times, &models, 8));
        assert!(x.iter().enumerate().all(|(i, a)| a.id == i as u64));
        for m in &models {
            assert!(x.iter().any(|a| &a.model == m), "{m} never drawn");
        }
    }
}
