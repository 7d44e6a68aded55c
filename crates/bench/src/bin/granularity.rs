//! Preemption granularity — the §6 discussion, run as an experiment.
//!
//! The paper positions SPLIT's block granularity between two extremes:
//! request-level scheduling (ClockWork; cheap but shorts wait out whole
//! long models) and kernel-level preemption (REEF; near-zero waiting but
//! "at the cost of higher hardware dependency"). PREMA's NPU checkpoints
//! sit in between. This harness serves the same Table 2 scenario at all
//! four granularities:
//!
//! * request-level — ClockWork;
//! * checkpoint (4 ms + switch cost) — PREMA in `npu_style`;
//! * **block-level (GA plans) — SPLIT**;
//! * operator-level — an idealized REEF: preemption allowed after every
//!   operator with zero extra overhead (the hardware-assisted upper
//!   bound).

use gpu_sim::{op_times_us, DeviceConfig};
use model_zoo::{benchmark_models, ModelId};
use qos_metrics::{per_model_std, violation_rate};
use sched::policy::{PremaCfg, SplitCfg};
use sched::{simulate, ModelRuntime, ModelTable, Policy};
use split_repro::experiment;
use workload::{RequestTrace, Scenario};

fn main() {
    let dev = DeviceConfig::jetson_nano();
    let deployment = experiment::paper_deployment(&dev);

    // Operator-granularity table: every op is a "block", no added cost —
    // what REEF's hardware support would buy.
    let mut op_table = ModelTable::new();
    for (task, id) in benchmark_models().iter().enumerate() {
        let g = id.build_calibrated(&dev);
        let exec = gpu_sim::block_time_us(&g, &dev);
        if matches!(id, ModelId::ResNet50 | ModelId::Vgg19) {
            let blocks: Vec<f64> = op_times_us(&g, &dev)
                .into_iter()
                .filter(|t| *t > 0.0)
                .collect();
            op_table.insert(ModelRuntime::split(
                g.name.clone(),
                task as u32,
                exec,
                blocks,
            ));
        } else {
            op_table.insert(ModelRuntime::vanilla(g.name.clone(), task as u32, exec));
        }
    }

    let trace = RequestTrace::generate(Scenario::table2(5), &experiment::PAPER_MODEL_NAMES);
    let shorts = experiment::short_model_names();

    println!("Preemption granularity on scenario 5 (λ = 120 ms, 1000 requests)\n");
    println!(
        "{:34} {:>10} {:>10} {:>14}",
        "granularity", "viol@α=2", "viol@α=4", "short jitter"
    );

    let runs: Vec<(&str, Policy, &ModelTable)> = vec![
        (
            "request-level (ClockWork)",
            Policy::ClockWork,
            deployment.table(),
        ),
        (
            "checkpoint 4ms (PREMA, NPU hw)",
            Policy::Prema(PremaCfg::npu_style()),
            deployment.table(),
        ),
        (
            "block-level GA plans (SPLIT)",
            Policy::Split(SplitCfg { elastic: None }),
            deployment.table(),
        ),
        (
            "operator-level, free (REEF-like)",
            Policy::Split(SplitCfg { elastic: None }),
            &op_table,
        ),
    ];

    for (name, policy, table) in runs {
        let r = simulate(&policy, &trace.arrivals, table);
        let outcomes = r.outcomes();
        let short_std = per_model_std(&outcomes)
            .iter()
            .filter(|x| shorts.contains(&x.model.as_str()))
            .map(|x| x.std_us)
            .sum::<f64>()
            / shorts.len() as f64;
        println!(
            "{:34} {:>9.1}% {:>9.1}% {:>11.2} ms",
            name,
            100.0 * violation_rate(&outcomes, 2.0),
            100.0 * violation_rate(&outcomes, 4.0),
            short_std / 1e3
        );
    }

    println!("\nReading: finer granularity helps the shorts monotonically; the");
    println!("operator-level row is the zero-overhead upper bound that needs");
    println!("REEF's hardware support, while SPLIT's block row gets most of the");
    println!("benefit from software alone — the §6 positioning.");
}
