//! `SimResult::metrics` reads the lifecycle recording in one pass. On
//! every policy's real recording it must equal, bit for bit, the
//! two-pass reference it replaced (shared with split-telemetry's
//! property test): SPLIT with elastic downgrades, ClockWork with
//! admission drops (arrivals that never run or complete), PREMA, RT-A
//! and SJF.

#[path = "../../split-telemetry/tests/support/registry_reference.rs"]
mod registry_reference;

use registry_reference::{reference_registry, snapshot_bits};
use sched::policy::{clockwork_with_dropping, PremaCfg, RtaCfg, SplitCfg};
use sched::{attach_lifecycle, simulate, ModelRuntime, ModelTable, Policy, SimResult};
use workload::Arrival;

fn table() -> ModelTable {
    let mut t = ModelTable::new();
    t.insert(ModelRuntime::vanilla("short", 0, 4_000.0));
    t.insert(ModelRuntime::split(
        "mid",
        1,
        15_000.0,
        vec![8_000.0, 8_500.0],
    ));
    t.insert(ModelRuntime::split(
        "long",
        2,
        30_000.0,
        vec![11_000.0, 11_000.0, 11_500.0],
    ));
    t
}

/// 1,500 arrivals on a 500 µs grid (same-time ties included) at about
/// 80% load, with a dense burst in the middle.
fn arrivals() -> Vec<Arrival> {
    let models = ["short", "mid", "long"];
    let mut s = 0x0123_4567_89AB_CDEFu64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut t = 0u64;
    (0..1_500u64)
        .map(|id| {
            let span = if (500..800).contains(&id) { 30 } else { 80 };
            t += next() % span * 500;
            Arrival {
                id,
                model: models[(next() % 3) as usize].into(),
                arrival_us: t as f64,
            }
        })
        .collect()
}

fn assert_agrees(name: &str, r: &SimResult) {
    assert_eq!(
        snapshot_bits(&r.metrics()),
        snapshot_bits(&reference_registry(&r.recorder)),
        "{name}"
    );
}

#[test]
fn one_pass_metrics_equal_the_reference_on_every_policy() {
    let (a, t) = (arrivals(), table());
    for policy in [
        Policy::Split(SplitCfg::default()),
        Policy::Prema(PremaCfg::default()),
        Policy::Rta(RtaCfg::default()),
        Policy::Sjf,
    ] {
        let r = simulate(&policy, &a, &t);
        assert_eq!(r.completions.len(), a.len(), "{}", policy.name());
        assert_agrees(policy.name(), &r);
    }
    let split = simulate(&Policy::Split(SplitCfg::default()), &a, &t);
    let downgrades = split.metrics().counter("elastic.downgrades").get();
    assert!(downgrades > 0, "the trace never downgrades");

    let (admitted, dropped) = clockwork_with_dropping(&a, &t, 3.0);
    assert!(!dropped.is_empty(), "the trace never drops");
    let r = attach_lifecycle(&a, admitted);
    assert_eq!(r.completions.len() + dropped.len(), a.len());
    assert_agrees("ClockWork with drops", &r);
    let m = r.metrics();
    assert_eq!(m.counter("requests.arrived").get(), a.len() as u64);
    assert_eq!(
        m.histogram("request.e2e_us").count(),
        r.completions.len() as u64
    );
}
