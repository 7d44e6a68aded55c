//! Schedule gallery: the paper's Figure 1 and Figure 3, as ASCII Gantt
//! charts from real simulator traces.
//!
//! Figure 1: a short request A arriving just after a long request B, under
//! Stream-Parallel, Runtime-Aware alignment, sequential execution, uneven
//! splitting, and SPLIT's even splitting.
//!
//! Figure 3: partial versus full preemption — why all blocks of the
//! preempting request run together.
//!
//! Run with: `cargo run --release --example schedule_gallery`

use split_repro::sched::policy::{SplitCfg, StreamParallelCfg};
use split_repro::sched::{simulate, ModelRuntime, ModelTable, Policy};
use split_repro::workload::Arrival;

fn main() {
    // Figure 1's cast: long request B (60 ms), short request A (10 ms)
    // arriving 5 ms later.
    let arrivals = vec![
        Arrival {
            id: 0,
            model: "B-long".into(),
            arrival_us: 0.0,
        },
        Arrival {
            id: 1,
            model: "A-short".into(),
            arrival_us: 5_000.0,
        },
    ];

    let table_with = |blocks: Vec<f64>| {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::split("B-long", 0, 60_000.0, blocks));
        t.insert(ModelRuntime::vanilla("A-short", 1, 10_000.0));
        t
    };

    println!("=== Figure 1: one short request behind one long request ===\n");

    let lanes: Vec<(&str, Policy, ModelTable)> = vec![
        (
            "Stream-Parallel (contend on every kernel)",
            Policy::StreamParallel(StreamParallelCfg::default()),
            table_with(vec![60_000.0]),
        ),
        (
            "Runtime-Aware (aligned: A welded to B)",
            Policy::Rta(Default::default()),
            table_with(vec![60_000.0]),
        ),
        (
            "Sequential (ClockWork: A waits out B)",
            Policy::ClockWork,
            table_with(vec![60_000.0]),
        ),
        (
            "Uneven split (B = 57 + 5.5 ms blocks)",
            Policy::Split(SplitCfg { elastic: None }),
            table_with(vec![57_000.0, 5_500.0]),
        ),
        (
            "SPLIT even split (B = 3 x 21 ms blocks)",
            Policy::Split(SplitCfg { elastic: None }),
            table_with(vec![21_000.0, 21_000.0, 21_000.0]),
        ),
    ];

    for (title, policy, table) in lanes {
        let r = simulate(&policy, &arrivals, &table);
        let a = r.completions.iter().find(|c| c.id == 1).unwrap();
        let b = r.completions.iter().find(|c| c.id == 0).unwrap();
        println!(
            "--- {title}\n    A: e2e {:>6.1} ms (RR {:>4.1})   B: e2e {:>6.1} ms (RR {:>4.1})",
            a.e2e_us() / 1e3,
            a.response_ratio(),
            b.e2e_us() / 1e3,
            b.response_ratio()
        );
        print!("{}", r.trace.render_ascii(64));
        println!();
    }

    println!("=== Figure 3: partial vs full preemption ===\n");
    // Request A (3 blocks of 10 ms) is preempted by request B (2 blocks of
    // 8 ms). Full preemption (what SPLIT does): B's blocks run together.
    let mut t = ModelTable::new();
    t.insert(ModelRuntime::split("A", 0, 28_000.0, vec![10_000.0; 3]));
    t.insert(ModelRuntime::split(
        "B",
        1,
        15_000.0,
        vec![8_000.0, 8_000.0],
    ));
    let arrivals = vec![
        Arrival {
            id: 0,
            model: "A".into(),
            arrival_us: 0.0,
        },
        Arrival {
            id: 1,
            model: "B".into(),
            arrival_us: 2_000.0,
        },
    ];
    let r = simulate(&Policy::Split(SplitCfg { elastic: None }), &arrivals, &t);
    println!("full preemption (SPLIT): B's two blocks run back to back");
    print!("{}", r.trace.render_ascii(64));
    let b = r.completions.iter().find(|c| c.id == 1).unwrap();
    println!("B total latency: {:.1} ms\n", b.e2e_us() / 1e3);
    println!("(partial preemption would interleave A's blocks between B's,");
    println!("stretching B's last block far to the right — see §3.4, Fig. 3a)");
}
