//! Figure 1, quantified: one short request A arriving behind one long
//! request B, under each scheduling scheme, reporting the *average
//! response ratio* the figure annotates. The arrival offset is swept so
//! the comparison doesn't hinge on one lucky phase.

use qos_metrics::markdown_table;
use rayon::prelude::*;
use sched::policy::{SplitCfg, StreamParallelCfg};
use sched::{simulate, ModelRuntime, ModelTable, Policy};
use workload::Arrival;

fn table(blocks: Vec<f64>) -> ModelTable {
    let mut t = ModelTable::new();
    t.insert(ModelRuntime::split("B-long", 0, 60_000.0, blocks));
    t.insert(ModelRuntime::vanilla("A-short", 1, 10_000.0));
    t
}

fn main() {
    // Sweep A's arrival across B's busy period.
    let offsets: Vec<f64> = (1..=29).map(|i| i as f64 * 2_000.0).collect();

    let lanes: Vec<(&str, Policy, ModelTable)> = vec![
        (
            "Stream-Parallel",
            Policy::StreamParallel(StreamParallelCfg::default()),
            table(vec![60_000.0]),
        ),
        (
            "Runtime-Aware",
            Policy::Rta(Default::default()),
            table(vec![60_000.0]),
        ),
        ("Sequential", Policy::ClockWork, table(vec![60_000.0])),
        (
            "Uneven split (48+6+6)",
            Policy::Split(SplitCfg { elastic: None }),
            table(vec![48_000.0, 6_000.0, 6_000.0]),
        ),
        (
            "SPLIT even (3 x 20)",
            Policy::Split(SplitCfg { elastic: None }),
            table(vec![20_000.0, 20_000.0, 20_000.0]),
        ),
    ];

    // Lanes are independent simulations; run them through the pool.
    // par_iter collects in lane order, so the table (and fig1.csv) is
    // byte-identical to the sequential sweep at any SPLIT_THREADS.
    let rows: Vec<Vec<String>> = lanes
        .par_iter()
        .map(|(name, policy, t)| {
            let mut rr_a = 0.0;
            let mut rr_b = 0.0;
            let mut worst_a = 0.0f64;
            for &off in &offsets {
                let arrivals = vec![
                    Arrival {
                        id: 0,
                        model: "B-long".into(),
                        arrival_us: 0.0,
                    },
                    Arrival {
                        id: 1,
                        model: "A-short".into(),
                        arrival_us: off,
                    },
                ];
                let r = simulate(policy, &arrivals, t);
                bench::verify_schedule(policy, &arrivals, t, &r);
                let a = r.completions.iter().find(|c| c.id == 1).unwrap();
                let b = r.completions.iter().find(|c| c.id == 0).unwrap();
                rr_a += a.response_ratio();
                rr_b += b.response_ratio();
                worst_a = worst_a.max(a.response_ratio());
            }
            let n = offsets.len() as f64;
            vec![
                name.to_string(),
                format!("{:.2}", rr_a / n),
                format!("{:.2}", worst_a),
                format!("{:.2}", rr_b / n),
                format!("{:.2}", (rr_a + rr_b) / (2.0 * n)),
            ]
        })
        .collect();

    println!("Figure 1, averaged over A's arrival phase (B = 60 ms, A = 10 ms):\n");
    println!(
        "{}",
        markdown_table(
            &["Scheme", "A mean RR", "A worst RR", "B mean RR", "Avg RR"],
            &rows
        )
    );
    qos_metrics::write_csv(
        &bench::results_dir().join("fig1.csv"),
        &["scheme", "a_mean_rr", "a_worst_rr", "b_mean_rr", "avg_rr"],
        &rows,
    )
    .expect("write csv");
    println!("(CSV written to results/fig1.csv)");

    // One representative run per lane as a Perfetto trace: A arriving
    // mid-way through B, the exact schedule the figure draws.
    let mid = 14_000.0;
    for (name, policy, t) in &lanes {
        let arrivals = vec![
            Arrival {
                id: 0,
                model: "B-long".into(),
                arrival_us: 0.0,
            },
            Arrival {
                id: 1,
                model: "A-short".into(),
                arrival_us: mid,
            },
        ];
        let r = simulate(policy, &arrivals, t);
        bench::verify_schedule(policy, &arrivals, t, &r);
        let slug: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let path = bench::results_dir().join(format!("fig1_{slug}.trace.json"));
        split_repro::split_telemetry::write_chrome_trace(&r.recorder, name, &path)
            .expect("write trace");
    }
    println!("(Perfetto traces written to results/fig1_*.trace.json)");
    println!("\nPaper claim: even splitting minimizes the average response ratio —");
    println!("the last column — among the sequential/aligned schemes, and caps A's");
    println!("worst case at one block. Stream-Parallel looks competitive with only");
    println!("two requests because contention is mild at k=2; Figure 6's full");
    println!("workloads are where its interference compounds.");
}
