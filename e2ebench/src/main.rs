//! End-to-end benchmark of the SPLIT reproduction.
//!
//! ```text
//! e2ebench --workload <flash-crowd|fleet-steady|live-server> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ```
//!
//! One run sets the workload up several times, serves its seeded
//! open-loop trace for `--seconds`, checks the outputs, and prints every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`)
//! by name and unit. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any output check failed. See README.md beside this crate
//! for why each workload exists and which layer should move which metric.

mod flash;
mod fleet;
mod live;
mod machine;
mod report;
mod run;
mod setup;
mod sim;
mod spans;
mod stats;

use run::RunCfg;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads: name, default seed, requests per trace.
const WORKLOADS: [(&str, u64, usize); 3] = [
    ("flash-crowd", 11, flash::REQUESTS),
    ("fleet-steady", 23, fleet::REQUESTS),
    ("live-server", 37, live::REQUESTS),
];

/// Where traced runs write their spans.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

struct Args {
    workload: &'static str,
    cfg: RunCfg,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(name, ..)| *name == w)
                        .ok_or_else(|| format!("unknown workload {w:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let &(name, default_seed, requests) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: name,
        cfg: RunCfg {
            seed: seed.unwrap_or(default_seed),
            seconds,
            traced,
            requests,
        },
    })
}

fn run(workload: &str, cfg: &RunCfg) -> report::Outcome {
    match workload {
        "flash-crowd" => flash::run(cfg),
        "fleet-steady" => fleet::run(cfg),
        "live-server" => live::run(cfg),
        _ => unreachable!("parse accepts only catalogued workloads"),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let machine = machine::Machine::probe();
    println!("{}", machine.line());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.cfg.traced)
    );
    let mut out = run(args.workload, &args.cfg);
    out.layers.insert("machine.par2_ratio", machine.par2_ratio);
    out.layers.insert("machine.unit_ms", machine.unit_ms);
    report::print_lines("end-to-end:", &report::E2E, &out.e2e);
    println!(
        "  {:40} {:>16.6} ratio",
        "fail_share",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    if args.cfg.traced {
        report::print_lines("per-layer:", &report::LAYERS, &out.layers);
    } else {
        report::print_lines(
            "admission (per-layer, too host-bound to gate):",
            &[("admit_p50_us", "us"), ("admit_p99_us", "us")],
            &out.layers,
        );
    }
    let (line, correct) = report::result_line(&out, args.cfg.traced);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload fleet-steady --seed 5 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "fleet-steady");
        assert_eq!(a.cfg.seed, 5);
        assert_eq!(a.cfg.seconds, 10.0);
        assert!(a.cfg.traced);
        let a = args("--workload live-server").unwrap();
        assert_eq!(a.cfg.seed, 37, "default seed");
        assert!(!a.cfg.traced);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload flash-crowd --trace 2",
            "--workload flash-crowd --seconds -1",
            "--workload flash-crowd --seed x",
            "--workload flash-crowd --extra",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    /// Every workload at a tiny size passes its output checks in both
    /// modes, and serves the same QoS for the same seed.
    fn smoke(workload: &str, requests: usize) {
        for traced in [false, true] {
            let cfg = RunCfg {
                seed: 3,
                seconds: 0.05,
                traced,
                requests,
            };
            let out = run(workload, &cfg);
            assert!(out.errors.is_empty(), "{workload}: {:?}", out.errors);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{workload}");
            let (line, correct) = report::result_line(&out, traced);
            assert!(correct, "{workload}: {line}");
            if !traced {
                let again = run(workload, &cfg);
                for m in ["viol_rate", "rr_p50", "rr_p999"] {
                    assert_eq!(
                        out.e2e[m].to_bits(),
                        again.e2e[m].to_bits(),
                        "{workload} {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn smoke_flash_crowd() {
        smoke("flash-crowd", 1_500);
    }

    #[test]
    fn smoke_fleet_steady() {
        smoke("fleet-steady", 700);
    }

    #[test]
    fn smoke_live_server() {
        smoke("live-server", 200);
    }
}
