//! Block-level round-robin — the *partial preemption* strawman of the
//! paper's Figure 3(a).
//!
//! Splitting a model into blocks opens two scheduling choices: run a
//! preempting request's blocks **together** (SPLIT's rule, Figure 3b) or
//! time-slice blocks fairly among whoever is waiting. The fair-looking
//! round-robin turns out to be wrong: a request's completion time is the
//! end of its *last* block, so interleaving delays every participant's
//! last block and the total latency of the preemptor grows
//! ("the partial preemption produces straggler and increases total
//! latency of request A" — §3.4, observation 1). This module exists so
//! that claim is measured, not asserted.

use crate::engine::SimResult;
use crate::request::{Completion, ModelTable};
use gpu_sim::Trace;
use std::collections::VecDeque;
use std::sync::Arc;
use workload::Arrival;

struct Live {
    id: u64,
    model_idx: usize,
    arrival_us: f64,
    blocks: VecDeque<f64>,
    blocks_total: usize,
    started: Option<f64>,
}

/// Serve the trace with round-robin *block* scheduling: the device cycles
/// through the resident requests, one block each.
pub fn block_round_robin(arrivals: &[Arrival], models: &ModelTable) -> SimResult {
    let resolved: Vec<(Arc<str>, u32, f64, Vec<f64>)> = arrivals
        .iter()
        .map(|a| {
            let m = models.get(&a.model);
            (m.name.clone(), m.task, m.exec_us, m.blocks_us.clone())
        })
        .collect();

    let mut live: VecDeque<Live> = VecDeque::new();
    let mut completions = Vec::with_capacity(arrivals.len());
    let mut trace = Trace::new();
    let mut now = 0.0f64;
    let mut next = 0usize;

    loop {
        while next < arrivals.len() && arrivals[next].arrival_us <= now + 1e-9 {
            let a = &arrivals[next];
            live.push_back(Live {
                id: a.id,
                model_idx: next,
                arrival_us: a.arrival_us,
                blocks: resolved[next].3.iter().copied().collect(),
                blocks_total: resolved[next].3.len(),
                started: None,
            });
            next += 1;
        }
        let Some(mut r) = live.pop_front() else {
            if next >= arrivals.len() {
                break;
            }
            now = arrivals[next].arrival_us;
            continue;
        };

        let blk = r.blocks.pop_front().expect("live request has blocks");
        let (name, task, exec, _) = &resolved[r.model_idx];
        let idx = r.blocks_total - r.blocks.len() - 1;
        trace.record_block(name.clone(), r.id, Some(idx), 0, now, now + blk);
        r.started.get_or_insert(now);
        now += blk;

        // Admit anyone who arrived during this block *before* re-queueing
        // the current request, so newcomers join the rotation immediately.
        while next < arrivals.len() && arrivals[next].arrival_us <= now + 1e-9 {
            let a = &arrivals[next];
            live.push_back(Live {
                id: a.id,
                model_idx: next,
                arrival_us: a.arrival_us,
                blocks: resolved[next].3.iter().copied().collect(),
                blocks_total: resolved[next].3.len(),
                started: None,
            });
            next += 1;
        }

        if r.blocks.is_empty() {
            completions.push(Completion {
                id: r.id,
                model: name.clone(),
                task: *task,
                arrival_us: r.arrival_us,
                start_us: r.started.unwrap(),
                end_us: now,
                exec_us: *exec,
            });
        } else {
            // Back of the rotation: someone else's block runs next.
            live.push_back(r);
        }
    }

    completions.sort_by(|a, b| a.end_us.total_cmp(&b.end_us).then(a.id.cmp(&b.id)));
    SimResult {
        completions,
        trace,
        recorder: Default::default(),
        flight: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelRuntime;

    fn table() -> ModelTable {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::split("a", 0, 28_000.0, vec![10_000.0; 3]));
        t.insert(ModelRuntime::split(
            "b",
            1,
            15_000.0,
            vec![8_000.0, 8_000.0],
        ));
        t
    }

    fn arrival(id: u64, model: &str, at: f64) -> Arrival {
        Arrival {
            id,
            model: model.into(),
            arrival_us: at,
        }
    }

    #[test]
    fn blocks_interleave_round_robin() {
        // A arrives first, B during A's first block: blocks alternate.
        let arrivals = vec![arrival(0, "a", 0.0), arrival(1, "b", 2_000.0)];
        let r = block_round_robin(&arrivals, &table());
        let labels: Vec<String> = r
            .trace
            .events()
            .iter()
            .map(|e| e.label.to_string())
            .collect();
        assert_eq!(
            labels,
            vec!["a#0/b0", "b#1/b0", "a#0/b1", "b#1/b1", "a#0/b2"]
        );
    }

    #[test]
    fn partial_preemption_stretches_the_preemptor() {
        // Figure 3's comparison: under round-robin, B's last block lands
        // after A's interleaved blocks; under SPLIT's full preemption B
        // runs contiguously and finishes sooner.
        let arrivals = vec![arrival(0, "a", 0.0), arrival(1, "b", 2_000.0)];
        let t = table();
        let partial = block_round_robin(&arrivals, &t);
        let full = crate::policy::split(&arrivals, &t, &crate::policy::SplitCfg { elastic: None });
        let b_partial = partial.completions.iter().find(|c| c.id == 1).unwrap();
        let b_full = full.completions.iter().find(|c| c.id == 1).unwrap();
        assert!(
            b_full.e2e_us() < b_partial.e2e_us(),
            "full {} must beat partial {}",
            b_full.e2e_us(),
            b_partial.e2e_us()
        );
    }

    #[test]
    fn conservation_and_no_overlap() {
        let arrivals: Vec<Arrival> = (0..30)
            .map(|i| arrival(i, if i % 2 == 0 { "a" } else { "b" }, i as f64 * 9_000.0))
            .collect();
        let r = block_round_robin(&arrivals, &table());
        assert_eq!(r.completions.len(), 30);
        assert!(r.trace.first_overlap().is_none());
        for c in &r.completions {
            assert!(c.e2e_us() >= c.exec_us - 1e-6);
        }
    }
}
