//! Structured per-request lifecycle recording.
//!
//! Every layer of the serving pipeline emits the same [`Event`] model:
//! the discrete-event simulator replays a whole schedule into a
//! [`Recorder`] after the fact, while the threaded runtime's decision
//! core owns a ring-bounded one and records each event as it happens.
//! Timestamps are microseconds on the
//! recording layer's own clock (simulated time for `gpu-sim`/`sched`,
//! wall time for `split-runtime`); decision costs are nanoseconds so the
//! §3.4 "microsecond-scale preemption" claim can be checked directly.
//!
//! [`Recorder::validate`] checks the structural invariants a well-formed
//! recording must satisfy — phase monotonicity per request, one
//! completion per arrival, and no same-stream block overlap — and is the
//! backbone of the cross-policy property tests.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One observation in a request's lifecycle, or a device-level sample.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A request entered the system.
    Arrival {
        /// Request id.
        req: u64,
        /// Model name.
        model: String,
        /// Time of arrival (µs).
        t_us: f64,
    },
    /// A request was placed into the wait queue.
    Enqueue {
        /// Request id.
        req: u64,
        /// Queue position after insertion (0 = head).
        position: usize,
        /// Number of queued requests it jumped over (preemption
        /// displacement; 0 for a plain tail insert).
        displaced: usize,
        /// Time of insertion (µs).
        t_us: f64,
    },
    /// A greedy preemption decision was evaluated (SPLIT §3.4).
    PreemptDecision {
        /// Request id the decision was made for.
        req: u64,
        /// Chosen queue position.
        position: usize,
        /// Queue entries examined.
        comparisons: usize,
        /// Why the scan stopped (policy-specific label; a static name
        /// such as `split_core::StopReason::as_str` on the hot paths).
        stop: Cow<'static, str>,
        /// Wall-clock cost of the decision itself (ns).
        decision_ns: u64,
        /// Wall-clock latency from the client publishing the request
        /// into its combining slot to the decision being applied (ns).
        /// This is the number §3.4's "microsecond-scale" claim is
        /// judged on: it includes the wait for the current combiner
        /// pass, not just the greedy scan. Engines with no publication
        /// step (the discrete-event simulator) set it to `decision_ns`.
        publish_ns: u64,
        /// Scheduler time at which the decision ran (µs).
        t_us: f64,
    },
    /// One model block started executing on a stream.
    BlockStart {
        /// Request id.
        req: u64,
        /// Block index within the request's split plan.
        block: usize,
        /// GPU stream (track) the block runs on.
        stream: u32,
        /// Start time (µs).
        t_us: f64,
    },
    /// The matching end of a [`Event::BlockStart`].
    BlockEnd {
        /// Request id.
        req: u64,
        /// Block index within the request's split plan.
        block: usize,
        /// GPU stream (track) the block ran on.
        stream: u32,
        /// End time (µs).
        t_us: f64,
    },
    /// A payload moved across a boundary (e.g. an activation hand-off
    /// between two blocks).
    Transfer {
        /// Request id.
        req: u64,
        /// Payload size.
        bytes: u64,
        /// Transfer start (µs).
        t_us: f64,
        /// Transfer duration (µs).
        dur_us: f64,
    },
    /// The request finished; exactly one per arrival.
    Completion {
        /// Request id.
        req: u64,
        /// Completion time (µs).
        t_us: f64,
    },
    /// The elastic controller downgraded a request's split plan (§3.3).
    Downgrade {
        /// Request id.
        req: u64,
        /// Block count before.
        from_blocks: usize,
        /// Block count after.
        to_blocks: usize,
        /// Time of the downgrade (µs).
        t_us: f64,
    },
    /// Wait-queue depth sample (drives the Perfetto counter track).
    QueueDepth {
        /// Requests waiting (not including the one executing).
        depth: usize,
        /// Sample time (µs).
        t_us: f64,
    },
    /// Device busy-fraction sample over the preceding interval.
    Utilization {
        /// Busy fraction in `[0, 1]`.
        busy: f64,
        /// Sample time (µs).
        t_us: f64,
    },
    /// A request was rejected before it was queued (unknown model). It
    /// has no enqueue, blocks or completion, so it yields no span tree
    /// and no attribution.
    Drop {
        /// Request id.
        req: u64,
        /// Model name the client asked for.
        model: String,
        /// Time of the rejection (µs).
        t_us: f64,
    },
}

impl Event {
    /// The event's timestamp (µs).
    pub fn t_us(&self) -> f64 {
        match self {
            Event::Arrival { t_us, .. }
            | Event::Enqueue { t_us, .. }
            | Event::PreemptDecision { t_us, .. }
            | Event::BlockStart { t_us, .. }
            | Event::BlockEnd { t_us, .. }
            | Event::Transfer { t_us, .. }
            | Event::Completion { t_us, .. }
            | Event::Downgrade { t_us, .. }
            | Event::QueueDepth { t_us, .. }
            | Event::Utilization { t_us, .. }
            | Event::Drop { t_us, .. } => *t_us,
        }
    }

    /// The request this event belongs to, if any.
    pub fn req(&self) -> Option<u64> {
        match self {
            Event::Arrival { req, .. }
            | Event::Enqueue { req, .. }
            | Event::PreemptDecision { req, .. }
            | Event::BlockStart { req, .. }
            | Event::BlockEnd { req, .. }
            | Event::Transfer { req, .. }
            | Event::Completion { req, .. }
            | Event::Downgrade { req, .. }
            | Event::Drop { req, .. } => Some(*req),
            Event::QueueDepth { .. } | Event::Utilization { .. } => None,
        }
    }

    /// Ordering rank among events sharing a timestamp, so a time-sorted
    /// merge satisfies [`Recorder::validate`]: a request arrives before
    /// it is enqueued, a block ends before the next one starts at the
    /// same boundary, and completion follows the final block end.
    #[inline]
    pub fn rank(&self) -> u8 {
        match self {
            Event::Arrival { .. } | Event::Drop { .. } => 0,
            Event::Downgrade { .. } => 1,
            Event::PreemptDecision { .. } => 2,
            Event::Enqueue { .. } => 3,
            Event::QueueDepth { .. } => 4,
            Event::BlockEnd { .. } => 5,
            Event::BlockStart { .. } => 6,
            Event::Transfer { .. } => 7,
            Event::Completion { .. } => 8,
            Event::Utilization { .. } => 9,
        }
    }
}

/// Memory policy for a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecorderMode {
    /// Keep every event (offline simulation, tests).
    Unbounded,
    /// Keep at most this many events, dropping the oldest (long-running
    /// servers). Dropped events are counted, not silently lost.
    Ring(usize),
}

/// Collects [`Event`]s in arrival order.
#[derive(Debug, Clone)]
pub struct Recorder {
    events: VecDeque<Event>,
    mode: RecorderMode,
    dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Unbounded recorder.
    pub fn new() -> Self {
        Self::with_mode(RecorderMode::Unbounded)
    }

    /// Recorder with an explicit memory policy.
    pub fn with_mode(mode: RecorderMode) -> Self {
        if let RecorderMode::Ring(cap) = mode {
            assert!(cap > 0, "ring capacity must be positive");
        }
        Self {
            events: VecDeque::new(),
            mode,
            dropped: 0,
        }
    }

    /// Append one event, evicting the oldest in ring mode.
    pub fn record(&mut self, event: Event) {
        if let RecorderMode::Ring(cap) = self.mode {
            while self.events.len() >= cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by ring mode so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the recorder, yielding its events oldest-first. The
    /// engine's lifecycle-merge path uses this to move a policy's
    /// decision events into the merged recording without cloning them.
    pub fn into_events(self) -> Vec<Event> {
        self.events.into()
    }

    /// Build an unbounded recorder directly from a pre-ordered event
    /// vector (the inverse of [`Recorder::into_events`]), without the
    /// per-event ring bookkeeping of [`Recorder::record`].
    pub fn from_events(events: Vec<Event>) -> Self {
        Self {
            events: VecDeque::from(events),
            mode: RecorderMode::Unbounded,
            dropped: 0,
        }
    }

    /// Absorb another recorder's events (e.g. merging per-thread
    /// recordings); the result keeps this recorder's mode.
    pub fn merge(&mut self, other: &Recorder) {
        self.dropped += other.dropped;
        for e in other.events() {
            self.record(e.clone());
        }
    }

    /// Aggregate per-request and device-level statistics.
    pub fn summary(&self) -> Summary {
        let mut requests: BTreeMap<u64, RequestSummary> = BTreeMap::new();
        let mut queue_depth_peak = 0usize;
        let mut preempt_jumps = 0u64;
        for e in self.events() {
            if let Some(req) = e.req() {
                let r = requests.entry(req).or_insert_with(|| RequestSummary {
                    req,
                    model: String::new(),
                    arrival_us: f64::NAN,
                    completion_us: f64::NAN,
                    first_start_us: f64::NAN,
                    blocks: 0,
                    displaced: 0,
                });
                match e {
                    Event::Arrival { model, t_us, .. } => {
                        r.model = model.clone();
                        r.arrival_us = *t_us;
                    }
                    Event::Drop { model, .. } => r.model = model.clone(),
                    Event::Enqueue { displaced, .. } => {
                        r.displaced += *displaced as u64;
                        if *displaced > 0 {
                            preempt_jumps += 1;
                        }
                    }
                    Event::BlockStart { t_us, .. } => {
                        if r.first_start_us.is_nan() {
                            r.first_start_us = *t_us;
                        }
                        r.blocks += 1;
                    }
                    Event::Completion { t_us, .. } => r.completion_us = *t_us,
                    _ => {}
                }
            } else if let Event::QueueDepth { depth, .. } = e {
                queue_depth_peak = queue_depth_peak.max(*depth);
            }
        }
        Summary {
            requests: requests.into_values().collect(),
            queue_depth_peak,
            preempt_jumps,
            dropped_events: self.dropped,
        }
    }

    /// Check structural invariants; returns one message per violation
    /// (empty = well-formed). Only meaningful for unbounded recordings —
    /// a ring that has dropped events reports no conservation errors for
    /// requests whose arrivals were evicted.
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut arrivals: BTreeMap<u64, f64> = BTreeMap::new();
        let mut completions: BTreeMap<u64, u32> = BTreeMap::new();
        let mut enqueues: BTreeMap<u64, f64> = BTreeMap::new();
        let mut open_blocks: BTreeMap<u64, (usize, u32, f64)> = BTreeMap::new();
        let mut spans: Vec<(u32, f64, f64, u64)> = Vec::new();
        let mut last_block_end: BTreeMap<u64, f64> = BTreeMap::new();

        for e in self.events() {
            match e {
                Event::Arrival { req, t_us, .. }
                    if arrivals.insert(*req, *t_us).is_some() => {
                        errors.push(format!("request {req}: duplicate arrival"));
                    }
                Event::Enqueue { req, t_us, .. } => {
                    enqueues.entry(*req).or_insert(*t_us);
                    match arrivals.get(req) {
                        None => errors.push(format!("request {req}: enqueue before arrival")),
                        Some(at) if *t_us + 1e-9 < *at => errors.push(format!(
                            "request {req}: enqueue at {t_us} precedes arrival at {at}"
                        )),
                        _ => {}
                    }
                }
                Event::BlockStart {
                    req,
                    block,
                    stream,
                    t_us,
                } => {
                    if let Some((b, _, _)) = open_blocks.get(req) {
                        errors.push(format!(
                            "request {req}: block {block} starts while block {b} is open"
                        ));
                    }
                    if let Some(at) = arrivals.get(req) {
                        if *t_us + 1e-9 < *at {
                            errors.push(format!(
                                "request {req}: block {block} starts at {t_us} before arrival {at}"
                            ));
                        }
                    } else {
                        errors.push(format!("request {req}: block start before arrival"));
                    }
                    if let Some(prev_end) = last_block_end.get(req) {
                        if *t_us + 1e-9 < *prev_end {
                            errors.push(format!(
                                "request {req}: block {block} starts at {t_us} before previous block ended at {prev_end}"
                            ));
                        }
                    }
                    open_blocks.insert(*req, (*block, *stream, *t_us));
                }
                Event::BlockEnd {
                    req,
                    block,
                    stream,
                    t_us,
                } => match open_blocks.remove(req) {
                    Some((b, s, start)) if b == *block && s == *stream => {
                        if *t_us + 1e-9 < start {
                            errors.push(format!(
                                "request {req}: block {block} ends at {t_us} before its start {start}"
                            ));
                        }
                        spans.push((*stream, start, *t_us, *req));
                        last_block_end.insert(*req, *t_us);
                    }
                    Some((b, s, _)) => errors.push(format!(
                        "request {req}: block end ({block}, stream {stream}) does not match open block ({b}, stream {s})"
                    )),
                    None => errors.push(format!(
                        "request {req}: block {block} ends without a matching start"
                    )),
                },
                Event::Completion { req, t_us } => {
                    *completions.entry(*req).or_insert(0) += 1;
                    if let Some(end) = last_block_end.get(req) {
                        if *t_us + 1e-9 < *end {
                            errors.push(format!(
                                "request {req}: completion at {t_us} precedes last block end {end}"
                            ));
                        }
                    }
                    if !arrivals.contains_key(req) {
                        errors.push(format!("request {req}: completion without arrival"));
                    }
                }
                _ => {}
            }
        }

        for (req, (block, _, _)) in &open_blocks {
            errors.push(format!("request {req}: block {block} never ended"));
        }
        for (req, _) in arrivals.iter() {
            match completions.get(req) {
                Some(1) => {}
                Some(n) => errors.push(format!("request {req}: {n} completions")),
                None => errors.push(format!("request {req}: no completion")),
            }
        }
        for req in completions.keys() {
            if !arrivals.contains_key(req) {
                // Already reported at the event, but keep the conservation
                // sweep symmetric for rings that evicted the arrival.
            }
        }

        // Same-stream block spans must not overlap.
        spans.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite times"));
        for w in spans.windows(2) {
            let (s1, _, end1, r1) = w[0];
            let (s2, start2, _, r2) = w[1];
            if s1 == s2 && start2 + 1e-9 < end1 {
                errors.push(format!(
                    "stream {s1}: request {r2} block starts at {start2} before request {r1}'s block ends at {end1}"
                ));
            }
        }
        errors
    }
}

/// Per-request aggregate extracted from a recording.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSummary {
    /// Request id.
    pub req: u64,
    /// Model name (empty if the arrival was evicted from a ring).
    pub model: String,
    /// Arrival time (µs; NaN if unseen).
    pub arrival_us: f64,
    /// Completion time (µs; NaN if unseen).
    pub completion_us: f64,
    /// First block start (µs; NaN if the request never ran).
    pub first_start_us: f64,
    /// Blocks executed.
    pub blocks: usize,
    /// Total queued requests jumped over on its enqueues.
    pub displaced: u64,
}

impl RequestSummary {
    /// End-to-end latency (µs), NaN if incomplete.
    pub fn e2e_us(&self) -> f64 {
        self.completion_us - self.arrival_us
    }

    /// Queueing delay before first execution (µs), NaN if never ran.
    pub fn wait_us(&self) -> f64 {
        self.first_start_us - self.arrival_us
    }
}

/// Aggregates returned by [`Recorder::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Per-request aggregates, ordered by request id.
    pub requests: Vec<RequestSummary>,
    /// Highest queue depth sampled.
    pub queue_depth_peak: usize,
    /// Enqueues that jumped over at least one queued request.
    pub preempt_jumps: u64,
    /// Events evicted by ring mode.
    pub dropped_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed() -> Recorder {
        let mut r = Recorder::new();
        r.record(Event::Arrival {
            req: 0,
            model: "resnet50".into(),
            t_us: 0.0,
        });
        r.record(Event::Enqueue {
            req: 0,
            position: 0,
            displaced: 0,
            t_us: 0.0,
        });
        r.record(Event::QueueDepth {
            depth: 1,
            t_us: 0.0,
        });
        r.record(Event::BlockStart {
            req: 0,
            block: 0,
            stream: 0,
            t_us: 5.0,
        });
        r.record(Event::BlockEnd {
            req: 0,
            block: 0,
            stream: 0,
            t_us: 10.0,
        });
        r.record(Event::BlockStart {
            req: 0,
            block: 1,
            stream: 0,
            t_us: 10.0,
        });
        r.record(Event::BlockEnd {
            req: 0,
            block: 1,
            stream: 0,
            t_us: 22.0,
        });
        r.record(Event::Completion { req: 0, t_us: 22.0 });
        r
    }

    #[test]
    fn valid_recording_passes() {
        let r = well_formed();
        assert_eq!(r.validate(), Vec::<String>::new());
        let s = r.summary();
        assert_eq!(s.requests.len(), 1);
        assert_eq!(s.requests[0].blocks, 2);
        assert!((s.requests[0].e2e_us() - 22.0).abs() < 1e-9);
        assert!((s.requests[0].wait_us() - 5.0).abs() < 1e-9);
        assert_eq!(s.queue_depth_peak, 1);
    }

    #[test]
    fn missing_completion_detected() {
        let mut r = Recorder::new();
        r.record(Event::Arrival {
            req: 7,
            model: "m".into(),
            t_us: 1.0,
        });
        let errs = r.validate();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("no completion"), "{errs:?}");
    }

    #[test]
    fn same_stream_overlap_detected() {
        let mut r = well_formed();
        r.record(Event::Arrival {
            req: 1,
            model: "m".into(),
            t_us: 0.0,
        });
        // Overlaps request 0's block [5, 10] on stream 0.
        r.record(Event::BlockStart {
            req: 1,
            block: 0,
            stream: 0,
            t_us: 7.0,
        });
        r.record(Event::BlockEnd {
            req: 1,
            block: 0,
            stream: 0,
            t_us: 9.0,
        });
        r.record(Event::Completion { req: 1, t_us: 9.0 });
        let errs = r.validate();
        assert!(errs.iter().any(|e| e.contains("stream 0")), "{errs:?}");
    }

    #[test]
    fn unmatched_and_reordered_blocks_detected() {
        let mut r = Recorder::new();
        r.record(Event::Arrival {
            req: 0,
            model: "m".into(),
            t_us: 0.0,
        });
        r.record(Event::BlockEnd {
            req: 0,
            block: 0,
            stream: 0,
            t_us: 5.0,
        });
        r.record(Event::Completion { req: 0, t_us: 5.0 });
        let errs = r.validate();
        assert!(
            errs.iter().any(|e| e.contains("without a matching start")),
            "{errs:?}"
        );
    }

    #[test]
    fn ring_mode_bounds_memory() {
        let mut r = Recorder::with_mode(RecorderMode::Ring(4));
        for i in 0..10 {
            r.record(Event::QueueDepth {
                depth: i,
                t_us: i as f64,
            });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let first = r.events().next().unwrap().t_us();
        assert_eq!(first, 6.0);
        assert_eq!(r.summary().dropped_events, 6);
    }
}
