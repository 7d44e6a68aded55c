//! Ablations of SPLIT's design choices (DESIGN.md §4):
//!
//! 1. **Even vs uneven splitting** — validates Eq. 1 end to end: same
//!    block count, same overhead budget, different evenness.
//! 2. **Observation-guided vs uniform GA initialization** — what the §2.4
//!    observations buy the search.
//! 3. **Elastic splitting on/off** — under a same-type flood, splitting
//!    overhead with nothing to preempt is pure loss.
//! 4. **Greedy preemption vs FIFO insert vs full re-sort** — QoS of the
//!    queue discipline (the decision-latency side lives in the
//!    `preempt_latency` criterion bench).

use gpu_sim::DeviceConfig;
use model_zoo::ModelId;
use qos_metrics::{per_model_std, violation_rate};
use sched::policy::SplitCfg;
use sched::{simulate, ModelRuntime, ModelTable, Policy};
use split_core::{evolve, expected_waiting_us, ElasticConfig, GaConfig, InitStrategy};
use split_repro::experiment;
use workload::{Arrival, RequestTrace, Scenario};

fn main() {
    let dev = DeviceConfig::jetson_nano();
    ablation_even_vs_uneven(&dev);
    ablation_ga_init(&dev);
    ablation_elastic(&dev);
    ablation_queue_discipline(&dev);
    ablation_admission_control(&dev);
}

/// ClockWork's admission control vs serving everything: dropping
/// stragglers buys a perfect violation score *for the admitted* at the
/// price of not answering at all — SPLIT keeps both.
fn ablation_admission_control(dev: &DeviceConfig) {
    println!("\n== Ablation 5: straggler dropping (ClockWork) vs preemption (SPLIT)\n");
    let deployment = experiment::paper_deployment(dev);
    let trace = RequestTrace::generate(Scenario::table2(6), &experiment::PAPER_MODEL_NAMES);
    let alpha = 4.0;

    let plain = simulate(&Policy::ClockWork, &trace.arrivals, deployment.table());
    let (dropping, dropped) =
        sched::policy::clockwork_with_dropping(&trace.arrivals, deployment.table(), alpha);
    let split = simulate(
        &Policy::Split(SplitCfg { elastic: None }),
        &trace.arrivals,
        deployment.table(),
    );

    let row = |name: &str, outcomes: &[qos_metrics::RequestOutcome], dropped: usize| {
        // Score drops as violations: the user never got an answer.
        let served_viol = outcomes.iter().filter(|o| o.violates(alpha)).count();
        let total = outcomes.len() + dropped;
        println!(
            "  {name:24}: answered {:>4}/{total}, violation+drop rate {:>5.1}%",
            outcomes.len(),
            100.0 * (served_viol + dropped) as f64 / total as f64
        );
    };
    row("ClockWork (serve all)", &plain.outcomes(), 0);
    row(
        "ClockWork (drop stragglers)",
        &dropping.outcomes(),
        dropped.len(),
    );
    row("SPLIT", &split.outcomes(), 0);
    println!("  (dropping trades answers for predictability; preemption keeps both)");
}

/// Eq. 1 made operational: two 3-block plans for VGG19 with the same
/// total time, one even and one skewed; measure short-request waiting.
fn ablation_even_vs_uneven(_dev: &DeviceConfig) {
    println!("== Ablation 1: even vs uneven splitting (Eq. 1 end to end)\n");
    let table = |blocks: Vec<f64>| {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("short", 0, 10_000.0));
        t.insert(ModelRuntime::split("long", 1, 67_500.0, blocks));
        t
    };
    let even = vec![25_000.0, 25_000.0, 25_000.0];
    let uneven = vec![60_000.0, 7_500.0, 7_500.0];
    println!(
        "predicted mean wait (Eq. 1): even {:.1} ms, uneven {:.1} ms",
        expected_waiting_us(&even) / 1e3,
        expected_waiting_us(&uneven) / 1e3
    );

    let trace =
        RequestTrace::generate_weighted(Scenario::table2(3), &[("short", 3.0), ("long", 2.0)]);
    let cfg = Policy::Split(SplitCfg { elastic: None });
    for (name, blocks) in [("even", even), ("uneven", uneven)] {
        let r = simulate(&cfg, &trace.arrivals, &table(blocks));
        let shorts: Vec<f64> = r
            .completions
            .iter()
            .filter(|c| &*c.model == "short")
            .map(|c| c.e2e_us() - c.exec_us)
            .collect();
        let mean_wait = shorts.iter().sum::<f64>() / shorts.len() as f64;
        let outcomes = r.outcomes();
        println!(
            "  {name:7} plan: short mean wait {:>7.1} ms, violation@4 {:>5.1}%",
            mean_wait / 1e3,
            100.0 * violation_rate(&outcomes, 4.0)
        );
    }
    println!();
}

/// Guided vs uniform initialization at equal budget.
fn ablation_ga_init(dev: &DeviceConfig) {
    println!("== Ablation 2: observation-guided vs uniform GA initialization\n");
    let g = ModelId::ResNet50.build_calibrated(dev);
    for blocks in [3usize, 4] {
        for init in [InitStrategy::Guided, InitStrategy::Uniform] {
            // Average over several seeds — initialization is a distributional
            // effect, not a single-run one.
            let seeds = [1u64, 2, 3, 4, 5];
            let mut gens = 0usize;
            let mut fit = 0.0f64;
            let mut first_gen_fit = 0.0f64;
            for s in seeds {
                let mut cfg = GaConfig::new(blocks).with_seed(s).with_init(init);
                cfg.generations = 40;
                let out = evolve(&g, dev, &cfg);
                gens += out.generations_run;
                fit += split_core::fitness(&out.best_profile);
                first_gen_fit += out.history[0].best_fitness;
            }
            let n = seeds.len() as f64;
            println!(
                "  {blocks}-block {:?}: gen-0 best fitness {:.4}, final {:.4}, avg {:.1} generations",
                init,
                first_gen_fit / n,
                fit / n,
                gens as f64 / n
            );
        }
    }
    println!("  (guided init starts from fitter populations — §3.2's claim)\n");
}

/// Elastic splitting under a same-type flood.
fn ablation_elastic(dev: &DeviceConfig) {
    println!("== Ablation 3: elastic splitting under a same-type flood\n");
    let deployment = experiment::paper_deployment(dev);
    // 300 back-to-back ResNet50 requests, 30 ms apart: same task type,
    // FIFO anyway, so splitting overhead buys nothing.
    let arrivals: Vec<Arrival> = (0..300)
        .map(|i| Arrival {
            id: i,
            model: "resnet50".into(),
            arrival_us: i as f64 * 30_000.0,
        })
        .collect();
    for (name, elastic) in [
        ("elastic ON ", Some(ElasticConfig::default())),
        ("elastic OFF", None),
    ] {
        let r = simulate(
            &Policy::Split(SplitCfg { elastic }),
            &arrivals,
            deployment.table(),
        );
        let outcomes = r.outcomes();
        let mean_rr =
            outcomes.iter().map(|o| o.response_ratio()).sum::<f64>() / outcomes.len() as f64;
        println!(
            "  {name}: mean RR {:.2}, violation@2 {:>5.1}%, makespan {:.1} s",
            mean_rr,
            100.0 * violation_rate(&outcomes, 2.0),
            r.completions.iter().map(|c| c.end_us).fold(0.0, f64::max) / 1e6
        );
    }
    println!("  (with one task type the FIFO rule makes splitting pure overhead)\n");
}

/// Queue discipline: greedy response-ratio preemption vs plain FIFO.
fn ablation_queue_discipline(dev: &DeviceConfig) {
    println!("== Ablation 4: greedy preemption vs FIFO queueing\n");
    let deployment = experiment::paper_deployment(dev);
    let trace = RequestTrace::generate(Scenario::table2(5), &experiment::PAPER_MODEL_NAMES);

    // Greedy (SPLIT proper).
    let greedy = simulate(
        &Policy::Split(SplitCfg { elastic: None }),
        &trace.arrivals,
        deployment.table(),
    );
    // FIFO baseline: the same split plans, served in arrival order with no
    // preemption — i.e. ClockWork over each model's summed block time.
    let mut fifo_table = ModelTable::new();
    for name in experiment::PAPER_MODEL_NAMES {
        let m = deployment.table().get(name);
        fifo_table.insert(ModelRuntime::vanilla(name, m.task, m.split_total_us()));
    }
    let fifo = simulate(&Policy::ClockWork, &trace.arrivals, &fifo_table);
    let sjf = simulate(&Policy::Sjf, &trace.arrivals, &fifo_table);

    for (name, r, table) in [
        ("greedy preemption", &greedy, deployment.table()),
        ("FIFO (split, no preemption)", &fifo, &fifo_table),
        ("SJF (no preemption)", &sjf, &fifo_table),
    ] {
        let _ = table;
        let outcomes = r.outcomes();
        let shorts = experiment::short_model_names();
        let short_std = per_model_std(&outcomes)
            .iter()
            .filter(|x| shorts.contains(&x.model.as_str()))
            .map(|x| x.std_us)
            .sum::<f64>()
            / shorts.len() as f64;
        println!(
            "  {name:28}: violation@4 {:>5.1}%, short jitter {:>6.2} ms",
            100.0 * violation_rate(&outcomes, 4.0),
            short_std / 1e3
        );
    }
    println!("  (block-level preemption, not splitting alone, delivers the QoS win)");
}
