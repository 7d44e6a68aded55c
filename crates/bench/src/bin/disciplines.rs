//! The full discipline ladder on one scenario — every scheduling idea in
//! the repository side by side, from naive concurrency through classical
//! queueing theory to SPLIT. A capstone table for orientation; the
//! per-figure harnesses make the individual comparisons rigorously.

use gpu_sim::DeviceConfig;
use qos_metrics::{markdown_table, per_model_std, violation_rate};
use sched::policy::{block_round_robin, edf, sjf, EdfCfg, SplitCfg};
use sched::{simulate, Policy, SimResult};
use split_repro::experiment;
use workload::{RequestTrace, Scenario};

fn main() {
    let dev = DeviceConfig::jetson_nano();
    let deployment = experiment::paper_deployment(&dev);
    let sc = Scenario::table2(5);
    let trace = RequestTrace::generate(sc, &experiment::PAPER_MODEL_NAMES);
    let shorts = experiment::short_model_names();

    let score = |r: &SimResult| -> (f64, f64, f64) {
        let o = r.outcomes();
        let v4 = violation_rate(&o, 4.0);
        let mean_rr = o.iter().map(|x| x.response_ratio()).sum::<f64>() / o.len() as f64;
        let jitter = per_model_std(&o)
            .iter()
            .filter(|x| shorts.contains(&x.model.as_str()))
            .map(|x| x.std_us)
            .sum::<f64>()
            / shorts.len() as f64;
        (v4, mean_rr, jitter)
    };

    let table = deployment.table();
    let runs: Vec<(&str, SimResult)> = vec![
        (
            "Stream-Parallel (naive concurrency)",
            simulate(
                &Policy::StreamParallel(Default::default()),
                &trace.arrivals,
                table,
            ),
        ),
        (
            "RT-A (aligned concurrency)",
            simulate(&Policy::Rta(Default::default()), &trace.arrivals, table),
        ),
        (
            "ClockWork (FCFS)",
            simulate(&Policy::ClockWork, &trace.arrivals, table),
        ),
        ("SJF", sjf(&trace.arrivals, table)),
        ("EDF", edf(&trace.arrivals, table, &EdfCfg::default())),
        (
            "PREMA (token priority)",
            simulate(&Policy::Prema(Default::default()), &trace.arrivals, table),
        ),
        (
            "Block round-robin (partial preempt)",
            block_round_robin(&trace.arrivals, table),
        ),
        (
            "SPLIT (even blocks + greedy preempt)",
            simulate(
                &Policy::Split(SplitCfg { elastic: None }),
                &trace.arrivals,
                table,
            ),
        ),
    ];

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, r)| {
            let (v4, rr, j) = score(r);
            vec![
                name.to_string(),
                format!("{:.1}%", 100.0 * v4),
                format!("{rr:.2}"),
                format!("{:.2}", j / 1e3),
            ]
        })
        .collect();

    println!(
        "Discipline ladder on scenario {} (λ = {:.0} ms, 1000 requests)\n",
        sc.index, sc.lambda_ms
    );
    println!(
        "{}",
        markdown_table(
            &["Discipline", "viol@α=4", "mean RR", "short jitter (ms)"],
            &rows
        )
    );
    qos_metrics::write_csv(
        &bench::results_dir().join("disciplines.csv"),
        &["discipline", "viol_at_4", "mean_rr", "short_jitter_ms"],
        &rows,
    )
    .expect("write csv");
    println!("(CSV written to results/disciplines.csv)");
}
