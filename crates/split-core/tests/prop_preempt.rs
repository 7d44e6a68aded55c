//! Property tests for the greedy preemption algorithm: the §3.4
//! guarantees must hold for arbitrary queues.

use proptest::prelude::*;
use split_core::{algorithm1_preempt, greedy_preempt, response_ratio, QueueEntry};

const ALPHA: f64 = 4.0;

fn entry_strategy() -> impl Strategy<Value = QueueEntry> {
    (0u32..8, 1_000.0f64..80_000.0, 0.0f64..50_000.0).prop_map(|(task, exec, arrival)| QueueEntry {
        id: 0,
        task,
        exec_us: exec,
        left_us: exec * 1.1, // some splitting overhead
        arrival_us: arrival,
    })
}

fn queue_strategy() -> impl Strategy<Value = Vec<QueueEntry>> {
    proptest::collection::vec(entry_strategy(), 0..24).prop_map(|mut q| {
        for (i, e) in q.iter_mut().enumerate() {
            e.id = i as u64;
        }
        q
    })
}

/// Sum of the two neighbors' response ratios at position `i`.
fn pair_sum(q: &[QueueEntry], i: usize, base: f64, now: f64) -> f64 {
    let front_wait: f64 = base + q[..i].iter().map(|e| e.left_us).sum::<f64>();
    response_ratio(&q[i], front_wait, now, ALPHA)
        + response_ratio(&q[i + 1], front_wait + q[i].left_us, now, ALPHA)
}

proptest! {
    /// Insertion keeps everyone present and in a valid position.
    #[test]
    fn preempt_preserves_queue(mut q in queue_strategy(), new in entry_strategy()) {
        let n = q.len();
        let mut new = new;
        new.id = 999;
        let d = greedy_preempt(&mut q, new);
        prop_assert_eq!(q.len(), n + 1);
        prop_assert!(d.position <= n);
        prop_assert_eq!(q[d.position].id, 999);
        // Every original entry still present, in the same relative order.
        let rest: Vec<u64> = q.iter().filter(|e| e.id != 999).map(|e| e.id).collect();
        prop_assert_eq!(rest, (0..n as u64).collect::<Vec<_>>());
    }

    /// FIFO per task: the new request never sits in front of an
    /// earlier-arrived request of the same task.
    #[test]
    fn preempt_respects_same_task_fifo(mut q in queue_strategy(), new in entry_strategy()) {
        let mut new = new;
        new.id = 999;
        let task = new.task;
        greedy_preempt(&mut q, new);
        let my_pos = q.iter().position(|e| e.id == 999).unwrap();
        for e in &q[my_pos + 1..] {
            prop_assert!(e.task != task,
                "jumped ahead of same-task request {}", e.id);
        }
    }

    /// Local optimality: after insertion, swapping the new request with
    /// either neighbor cannot lower that pair's summed response ratio
    /// (unless the forward neighbor is same-task, where FIFO overrides).
    #[test]
    fn preempt_is_locally_optimal(mut q in queue_strategy(), new in entry_strategy(), base in 0.0f64..30_000.0) {
        let mut new = new;
        new.id = 999;
        let now = 60_000.0;
        let d = greedy_preempt(&mut q, new);
        let i = d.position;
        // Backward swap (new moves one later).
        if i + 1 < q.len() {
            let before = pair_sum(&q, i, base, now);
            let mut alt = q.clone();
            alt.swap(i, i + 1);
            let after = pair_sum(&alt, i, base, now);
            prop_assert!(after + 1e-9 >= before,
                "moving the new request back would improve the pair");
        }
        // Forward swap (new moves one earlier), unless FIFO stopped it.
        if i > 0 && q[i - 1].task != q[i].task {
            let before = pair_sum(&q, i - 1, base, now);
            let mut alt = q.clone();
            alt.swap(i - 1, i);
            let after = pair_sum(&alt, i - 1, base, now);
            prop_assert!(after + 1e-9 >= before,
                "the bubble stopped too early");
        }
    }

    /// Comparisons are bounded by the queue length (O(n) worst case).
    #[test]
    fn preempt_comparisons_linear(mut q in queue_strategy(), new in entry_strategy()) {
        let n = q.len();
        let mut new = new;
        new.id = 999;
        let d = greedy_preempt(&mut q, new);
        prop_assert!(d.comparisons <= n);
    }

    /// For two-entry queues the greedy order matches the brute-force
    /// best order by total response ratio (FIFO permitting).
    #[test]
    fn preempt_matches_bruteforce_on_pairs(a in entry_strategy(), b in entry_strategy()) {
        let now = 60_000.0;
        let mut a = a; a.id = 1;
        let mut b = b; b.id = 2;
        prop_assume!(a.task != b.task);
        let mut q = vec![a.clone()];
        greedy_preempt(&mut q, b.clone());

        let total = |first: &QueueEntry, second: &QueueEntry| {
            response_ratio(first, 0.0, now, ALPHA)
                + response_ratio(second, first.left_us, now, ALPHA)
        };
        let greedy_total = total(&q[0], &q[1]);
        let best = total(&a, &b).min(total(&b, &a));
        prop_assert!((greedy_total - best).abs() < 1e-9,
            "greedy {greedy_total} vs best {best}");
    }
}

/// An entry whose remaining time is independent of its isolated time
/// (a partly run head, an elastic downgrade) and whose arrival lies
/// anywhere in the first 1e9 µs.
fn wide_entry_strategy() -> impl Strategy<Value = QueueEntry> {
    (0u32..8, 1_000.0f64..80_000.0, 1.0f64..90_000.0, 0.0f64..1e9).prop_map(
        |(task, exec, left, arrival)| QueueEntry {
            id: 0,
            task,
            exec_us: exec,
            left_us: left,
            arrival_us: arrival,
        },
    )
}

/// The context Algorithm 1 reads and the key rule ignores: α ∈ {1,2,4,8},
/// `now` up to 1e9 µs, and the in-flight block's remainder.
fn context_strategy() -> impl Strategy<Value = (f64, f64, f64)> {
    (0u32..4, 0.0f64..1e9, 0.0f64..100_000.0)
        .prop_map(|(k, now, base)| (f64::from(1u32 << k), now, base))
}

proptest! {
    /// The key comparison and the paper's transliterated Algorithm 1
    /// choose the same insertion position and stop (and hence produce
    /// identical queues) whatever α, `now` and the in-flight remainder:
    /// all three cancel out of the swap test.
    #[test]
    fn algorithm1_equals_key_rule(
        q in proptest::collection::vec(wide_entry_strategy(), 0..24),
        new in wide_entry_strategy(),
        ctx in context_strategy(),
    ) {
        let (alpha, now, base) = ctx;
        let mut q1: Vec<QueueEntry> = q
            .into_iter()
            .enumerate()
            .map(|(i, e)| QueueEntry { id: i as u64, ..e })
            .collect();
        let mut q2 = q1.clone();
        let new = QueueEntry { id: 999, ..new };
        let d1 = greedy_preempt(&mut q1, new.clone());
        let d2 = algorithm1_preempt(&mut q2, new, base, now, alpha);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(q1, q2);
    }
}
