//! `registry_from_events` reads the lifecycle log in one pass; it must
//! produce bit-identical snapshots to the two-pass reference it replaced
//! (kept in `support/registry_reference.rs`) on any recording, however
//! malformed: shuffled event order, duplicate arrivals and completions,
//! block starts logged before their arrival or timed before it, drops,
//! non-finite times, ids near `u64::MAX`, and ring-mode recorders that
//! have evicted arrivals.

#[path = "support/registry_reference.rs"]
mod registry_reference;

use proptest::prelude::*;
use registry_reference::{reference_registry, snapshot_bits};
use split_telemetry::{registry_from_events, Event, Recorder, RecorderMode};

/// SplitMix64: the test's own seeded stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `1/n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }

    /// A time in `[0, 1 s)` at nanosecond resolution, now and then
    /// non-finite.
    fn time(&mut self) -> f64 {
        match self.next() % 64 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => (self.next() % 1_000_000_000) as f64 / 1_000.0,
        }
    }
}

/// One request's events, in the order a well-behaved engine logs them,
/// with duplicates, omissions and out-of-range times mixed in.
fn request_events(rng: &mut Mix, req: u64, out: &mut Vec<Event>) {
    let arrival = rng.time();
    let arrivals = match rng.next() % 8 {
        0 => 0,
        1 => 2,
        _ => 1,
    };
    for i in 0..arrivals {
        out.push(Event::Arrival {
            req,
            model: "m".into(),
            t_us: if i == 0 { arrival } else { rng.time() },
        });
    }
    if rng.one_in(8) {
        out.push(Event::Drop {
            req,
            model: "m".into(),
            t_us: arrival,
        });
    }
    if rng.one_in(8) {
        out.push(Event::Downgrade {
            req,
            from_blocks: 3,
            to_blocks: 1,
            t_us: arrival,
        });
    }
    out.push(Event::PreemptDecision {
        req,
        position: 0,
        comparisons: (rng.next() % 40) as usize,
        stop: "QueueHead".into(),
        decision_ns: rng.next() % 100_000,
        publish_ns: 0,
        t_us: arrival,
    });
    out.push(Event::Enqueue {
        req,
        position: 0,
        displaced: (rng.next() % 3) as usize,
        t_us: arrival,
    });
    let mut t = arrival;
    for block in 0..(rng.next() % 4) as usize {
        // Now and then a block is timed before the arrival.
        let start = if rng.one_in(8) {
            rng.time()
        } else {
            t + (rng.next() % 5_000) as f64
        };
        let end = start + (rng.next() % 20_000) as f64 / 7.0;
        out.push(Event::BlockStart {
            req,
            block,
            stream: 0,
            t_us: start,
        });
        out.push(Event::BlockEnd {
            req,
            block,
            stream: 0,
            t_us: end,
        });
        if rng.one_in(8) {
            out.push(Event::Transfer {
                req,
                bytes: 4096,
                t_us: end,
                dur_us: 3.5,
            });
        }
        t = end;
    }
    let completions = match rng.next() % 8 {
        0 => 0,
        1 => 2,
        _ => 1,
    };
    for _ in 0..completions {
        out.push(Event::Completion {
            req,
            t_us: if rng.one_in(16) { rng.time() } else { t },
        });
    }
}

/// A random recording of `requests` requests plus device samples.
/// `ids`: 0 dense from 0, 1 counting down from `u64::MAX`, 2 strided by
/// 16, 3 random. `order`: 0 as logged per request, 1 stably sorted by
/// time, 2 shuffled. `ring`: 0 keeps every event, otherwise the ring
/// holds that share (in 1/8ths) of them.
fn recording(seed: u64, requests: u64, ids: u64, order: u64, ring: u64) -> Recorder {
    let mut rng = Mix(seed);
    let mut events = Vec::new();
    for i in 0..requests {
        let req = match ids {
            0 => i,
            1 => u64::MAX - i,
            2 => i * 16 + 3,
            _ => rng.next(),
        };
        request_events(&mut rng, req, &mut events);
        if rng.one_in(3) {
            events.push(Event::QueueDepth {
                depth: (rng.next() % 50) as usize,
                t_us: rng.time(),
            });
        }
        if rng.one_in(4) {
            events.push(Event::Utilization {
                busy: 0.5,
                t_us: rng.time(),
            });
        }
    }
    match order {
        0 => {}
        1 => events.sort_by(|a, b| a.t_us().total_cmp(&b.t_us())),
        _ => {
            for i in (1..events.len()).rev() {
                events.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
        }
    }
    let mode = match ring {
        0 => RecorderMode::Unbounded,
        share => RecorderMode::Ring((events.len() * share as usize / 8).max(1)),
    };
    let mut rec = Recorder::with_mode(mode);
    for e in events {
        rec.record(e);
    }
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One pass equals the two-pass reference, bit for bit.
    #[test]
    fn one_pass_registry_equals_the_reference(
        seed in 0u64..u64::MAX,
        requests in 0u64..60,
        ids in 0u64..4,
        order in 0u64..3,
        ring in 0u64..8,
    ) {
        let rec = recording(seed, requests, ids, order, ring);
        prop_assert_eq!(
            snapshot_bits(&registry_from_events(&rec)),
            snapshot_bits(&reference_registry(&rec))
        );
    }
}

/// The generator reaches every case the property is about.
#[test]
fn recordings_cover_the_edge_cases() {
    let (mut dup_arrival, mut dup_completion, mut early_start, mut drops) = (0, 0, 0, 0);
    let mut evicted_arrival = 0;
    for seed in 0..64u64 {
        let rec = recording(seed, 40, seed % 4, 2, 0);
        let mut arrivals = std::collections::BTreeMap::<u64, u32>::new();
        let mut completions = std::collections::BTreeMap::<u64, u32>::new();
        for e in rec.events() {
            match e {
                Event::Arrival { req, .. } => *arrivals.entry(*req).or_default() += 1,
                Event::Completion { req, .. } => *completions.entry(*req).or_default() += 1,
                Event::BlockStart { req, .. } if !arrivals.contains_key(req) => early_start += 1,
                Event::Drop { .. } => drops += 1,
                _ => {}
            }
        }
        dup_arrival += arrivals.values().filter(|&&n| n > 1).count();
        dup_completion += completions.values().filter(|&&n| n > 1).count();
        let ring = recording(seed, 40, seed % 4, 0, 3);
        assert!(ring.dropped() > 0);
        let kept = ring.summary().requests;
        evicted_arrival += kept
            .iter()
            .filter(|r| r.arrival_us.is_nan() && !r.completion_us.is_nan())
            .count();
    }
    for (what, n) in [
        ("duplicate arrivals", dup_arrival),
        ("duplicate completions", dup_completion),
        ("block starts before their arrival", early_start),
        ("drops", drops),
        (
            "completions whose arrival the ring evicted",
            evicted_arrival,
        ),
    ] {
        assert!(n >= 10, "only {n} {what}");
    }
}

/// The definition, case by case: the last arrival, the first block
/// start and the last completion count; a request with no arrival and
/// a drop record nothing.
#[test]
fn per_request_definition() {
    let mut rec = Recorder::new();
    let arrival = |req, t_us| Event::Arrival {
        req,
        model: "m".into(),
        t_us,
    };
    let start = |req, t_us| Event::BlockStart {
        req,
        block: 0,
        stream: 0,
        t_us,
    };
    for e in [
        start(1, 30.0),
        arrival(1, 10.0),
        arrival(1, 20.0),
        start(1, 25.0),
        Event::Completion { req: 1, t_us: 50.0 },
        Event::Completion { req: 1, t_us: 70.0 },
        // No arrival: nothing recorded.
        start(2, 5.0),
        Event::Completion { req: 2, t_us: 9.0 },
        Event::Drop {
            req: 3,
            model: "m".into(),
            t_us: 1.0,
        },
    ] {
        rec.record(e);
    }
    let reg = registry_from_events(&rec);
    let (e2e, wait) = (
        reg.histogram("request.e2e_us"),
        reg.histogram("request.wait_us"),
    );
    assert_eq!((e2e.count(), e2e.max()), (1, 50));
    assert_eq!((wait.count(), wait.max()), (1, 10));
    assert_eq!(reg.counter("requests.arrived").get(), 2);
    assert_eq!(reg.counter("requests.completed").get(), 3);
    assert_eq!(
        snapshot_bits(&reg),
        snapshot_bits(&reference_registry(&rec))
    );
}
