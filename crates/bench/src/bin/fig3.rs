//! Figure 3, quantified: partial versus full preemption.
//!
//! Request A (3 × 10 ms blocks) is preempted by request B (2 × 8 ms
//! blocks). Under *partial* preemption (block-level round-robin) B's
//! blocks interleave with A's and B's last block becomes a straggler;
//! under SPLIT's *full* preemption B's blocks run together. The offset of
//! B's arrival is swept across A's first block.

use qos_metrics::markdown_table;
use sched::policy::{block_round_robin, split, SplitCfg};
use sched::{attach_lifecycle, ModelRuntime, ModelTable};
use workload::Arrival;

fn main() {
    let mut t = ModelTable::new();
    t.insert(ModelRuntime::split("A", 0, 28_000.0, vec![10_000.0; 3]));
    t.insert(ModelRuntime::split(
        "B",
        1,
        15_000.0,
        vec![8_000.0, 8_000.0],
    ));

    let mut rows = Vec::new();
    for off_ms in [1.0f64, 3.0, 5.0, 7.0, 9.0] {
        let arrivals = vec![
            Arrival {
                id: 0,
                model: "A".into(),
                arrival_us: 0.0,
            },
            Arrival {
                id: 1,
                model: "B".into(),
                arrival_us: off_ms * 1e3,
            },
        ];
        // Attach the uniform lifecycle events so the analyzer can check
        // the full recording, then gate the figure's numbers on it.
        let partial = attach_lifecycle(&arrivals, block_round_robin(&arrivals, &t));
        let full = attach_lifecycle(&arrivals, split(&arrivals, &t, &SplitCfg { elastic: None }));
        bench::verify_block_granular("block round-robin", &arrivals, &t, &partial);
        bench::verify_block_granular("SPLIT", &arrivals, &t, &full);
        let get = |r: &sched::SimResult, id: u64| {
            r.completions.iter().find(|c| c.id == id).unwrap().e2e_us() / 1e3
        };
        rows.push(vec![
            format!("{off_ms:.0} ms"),
            format!("{:.1}", get(&partial, 1)),
            format!("{:.1}", get(&full, 1)),
            format!("{:.1}", get(&partial, 0)),
            format!("{:.1}", get(&full, 0)),
        ]);
    }

    println!("Figure 3: partial (round-robin blocks) vs full preemption (SPLIT)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "B arrives",
                "B e2e partial",
                "B e2e full",
                "A e2e partial",
                "A e2e full"
            ],
            &rows
        )
    );
    qos_metrics::write_csv(
        &bench::results_dir().join("fig3.csv"),
        &[
            "b_arrival_ms",
            "b_e2e_partial_ms",
            "b_e2e_full_ms",
            "a_e2e_partial_ms",
            "a_e2e_full_ms",
        ],
        &rows,
    )
    .expect("write csv");
    println!("(CSV written to results/fig3.csv)");

    // Perfetto traces of the mid-sweep case (B at 5 ms) for both modes.
    // The policy functions are called directly above, bypassing
    // `sched::simulate`, so attach the uniform lifecycle events here.
    let arrivals = vec![
        Arrival {
            id: 0,
            model: "A".into(),
            arrival_us: 0.0,
        },
        Arrival {
            id: 1,
            model: "B".into(),
            arrival_us: 5_000.0,
        },
    ];
    for (mode, r) in [
        ("partial", block_round_robin(&arrivals, &t)),
        ("full", split(&arrivals, &t, &SplitCfg { elastic: None })),
    ] {
        let r = attach_lifecycle(&arrivals, r);
        let path = bench::results_dir().join(format!("fig3_{mode}.trace.json"));
        split_repro::split_telemetry::write_chrome_trace(
            &r.recorder,
            &format!("fig3 {mode} preemption"),
            &path,
        )
        .expect("write trace");
    }
    println!("(Perfetto traces written to results/fig3_{{partial,full}}.trace.json)");
    println!("\nPaper claim (§3.4, obs. 1): all blocks of one request executing");
    println!("preemption together beats partial preemption — B's column drops,");
    println!("and A pays nothing for it (its last block ends at the same time).");
}
