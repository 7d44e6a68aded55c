//! Pins SPLIT's complete recording — every lifecycle event in order,
//! and the device trace — on one fixed seeded trace, so a change to how
//! the recording is assembled cannot silently reorder same-time ties.
//!
//! The trace mixes three split and unsplit models on a coarse time grid
//! (many arrivals share a timestamp with each other or with a block
//! boundary) and runs a dense burst and a same-model flood through the
//! elastic controller, so downgrades are part of what is pinned. The
//! wall-clock fields `decision_ns` and `publish_ns` are the only parts of
//! the recording left out of the digest.

use sched::policy::SplitCfg;
use sched::{simulate, ModelRuntime, ModelTable, Policy};
use split_telemetry::Event;
use workload::Arrival;

fn table() -> ModelTable {
    let mut t = ModelTable::new();
    t.insert(ModelRuntime::vanilla("short", 0, 4_000.0));
    t.insert(
        ModelRuntime::split("mid", 1, 15_000.0, vec![8_000.0, 8_500.0])
            .with_transfer_bytes(vec![4096]),
    );
    t.insert(
        ModelRuntime::split("long", 2, 30_000.0, vec![11_000.0, 11_000.0, 11_500.0])
            .with_transfer_bytes(vec![8192, 2048]),
    );
    t
}

/// SplitMix64: a self-contained seeded stream, independent of any
/// generator crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// About 2,000 arrivals on a 500 µs grid: a calm phase, a dense mixed
/// burst (elastic density rule), a same-model flood (elastic same-type
/// rule), and a calm tail.
fn arrivals() -> Vec<Arrival> {
    let models = ["short", "mid", "long"];
    let mut rng = Mix(0x005E_ED0F_5EED);
    let mut t = 0u64;
    let mut out = Vec::new();
    for id in 0..2_000u64 {
        let (gap_slots, model) = match id {
            // Calm: ~25 req/s; gaps of 0 make same-time arrivals.
            0..=599 => (rng.next() % 160, models[(rng.next() % 3) as usize]),
            // Dense burst: ~100 req/s, mixed models.
            600..=999 => (rng.next() % 40, models[(rng.next() % 3) as usize]),
            // Same-model flood of long requests at ~30 req/s.
            1_000..=1_299 => (rng.next() % 130, "long"),
            // Calm tail.
            _ => (rng.next() % 160, models[(rng.next() % 3) as usize]),
        };
        t += gap_slots * 500;
        out.push(Arrival {
            id,
            model: model.into(),
            arrival_us: t as f64,
        });
    }
    out
}

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

#[test]
fn split_recording_and_trace_digest_is_pinned() {
    let a = arrivals();
    let r = simulate(&Policy::Split(SplitCfg::default()), &a, &table());
    assert_eq!(r.completions.len(), a.len());

    let mut downgrades = 0usize;
    let mut h = Fnv(0xcbf29ce484222325);
    for e in r.recorder.events() {
        let e = match e {
            Event::PreemptDecision {
                req,
                position,
                comparisons,
                stop,
                t_us,
                ..
            } => Event::PreemptDecision {
                req: *req,
                position: *position,
                comparisons: *comparisons,
                stop: stop.clone(),
                decision_ns: 0,
                publish_ns: 0,
                t_us: *t_us,
            },
            Event::Downgrade { .. } => {
                downgrades += 1;
                e.clone()
            }
            other => other.clone(),
        };
        h.eat(format!("{e:?}").as_bytes());
    }
    for s in r.trace.events() {
        h.eat(s.label.to_string().as_bytes());
        h.eat(&s.stream.to_le_bytes());
        h.eat(&s.start_us.to_bits().to_le_bytes());
        h.eat(&s.end_us.to_bits().to_le_bytes());
    }
    for x in r.trace.transfers() {
        h.eat(&x.req.to_le_bytes());
        h.eat(&x.bytes.to_le_bytes());
        h.eat(&x.start_us.to_bits().to_le_bytes());
        h.eat(&x.dur_us.to_bits().to_le_bytes());
    }

    // The trace must actually exercise what the digest pins.
    assert!(downgrades > 50, "only {downgrades} elastic downgrades");
    let same_time = a
        .windows(2)
        .filter(|w| w[0].arrival_us == w[1].arrival_us)
        .count();
    assert!(same_time >= 10, "only {same_time} same-time arrival pairs");
    let block_ends: std::collections::BTreeSet<u64> = r
        .trace
        .events()
        .iter()
        .map(|s| s.end_us.to_bits())
        .collect();
    let at_boundary = a
        .iter()
        .filter(|x| block_ends.contains(&x.arrival_us.to_bits()))
        .count();
    assert!(
        at_boundary >= 10,
        "only {at_boundary} arrivals on a block boundary"
    );
    assert!(r.recorder.validate().is_empty());

    assert_eq!(
        (r.recorder.len(), h.0),
        (20_564, 0x40fd_e0d1_7352_092e),
        "recording digest moved: a same-time tie was reordered or an event changed"
    );
}

/// The recording as it was assembled before the streaming merge: every
/// source concatenated in a fixed order, then one stable sort.
fn concatenated_and_sorted(arrivals: &[Arrival], raw: &sched::SimResult) -> Vec<Event> {
    let mut events: Vec<Event> = arrivals
        .iter()
        .map(|a| Event::Arrival {
            req: a.id,
            model: a.model.clone(),
            t_us: a.arrival_us,
        })
        .collect();
    events.extend(raw.trace.lifecycle_events());
    events.extend(raw.completions.iter().map(|c| Event::Completion {
        req: c.id,
        t_us: c.end_us,
    }));
    let mut deltas: Vec<(f64, i64)> = arrivals.iter().map(|a| (a.arrival_us, 1)).collect();
    deltas.extend(raw.completions.iter().map(|c| (c.end_us, -1)));
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut depth = 0i64;
    events.extend(deltas.into_iter().map(|(t_us, d)| {
        depth += d;
        Event::QueueDepth {
            depth: depth.max(0) as usize,
            t_us,
        }
    }));
    if let Some(end) = raw.trace.events().iter().map(|e| e.end_us).reduce(f64::max) {
        let t0 = raw
            .trace
            .events()
            .iter()
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        events.extend(raw.trace.utilization_series(((end - t0) / 64.0).max(1.0)));
    }
    events.extend(raw.recorder.events().cloned());
    events.sort_by(|a, b| a.t_us().total_cmp(&b.t_us()).then(a.rank().cmp(&b.rank())));
    events
}

/// The merge must equal the stable sort of the concatenated sources for
/// every policy, including multi-stream ones whose block spans overlap
/// and so reach the merge out of order.
#[test]
fn merged_recording_equals_stable_sort_of_sources() {
    use sched::policy::*;
    let a = arrivals();
    let t = table();
    let runs: Vec<(&str, sched::SimResult)> = vec![
        ("SPLIT", split(&a, &t, &SplitCfg::default())),
        (
            "SPLIT no elastic",
            split(&a, &t, &SplitCfg { elastic: None }),
        ),
        ("ClockWork", clockwork(&a, &t)),
        ("PREMA", prema(&a, &t, &PremaCfg::default())),
        ("RT-A", rta(&a, &t, &RtaCfg::default())),
        (
            "Stream-Parallel",
            stream_parallel(&a, &t, &StreamParallelCfg::default()),
        ),
        ("SJF", sjf(&a, &t)),
        ("EDF", edf(&a, &t, &EdfCfg::default())),
        ("block-RR", block_round_robin(&a, &t)),
    ];
    // The same arrivals listed backwards take the merge's fallback path
    // for out-of-order arrival and queue-depth runs.
    let backwards: Vec<Arrival> = a.iter().rev().cloned().collect();
    for (name, raw) in runs {
        let listed = if name == "ClockWork" { &backwards } else { &a };
        let want = concatenated_and_sorted(listed, &raw);
        let got = sched::attach_lifecycle(listed, raw);
        let got: Vec<Event> = got.recorder.events().cloned().collect();
        assert_eq!(got.len(), want.len(), "{name}");
        if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
            panic!("{name}: event {i} differs: {:?} vs {:?}", got[i], want[i]);
        }
    }
}
