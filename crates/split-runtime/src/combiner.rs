//! Flat-combining decision core (ROADMAP item 2; paper §3.4).
//!
//! The original hot path funneled every request through a crossbeam
//! channel into a responder thread, which then fought the executor for a
//! global `Mutex<State>` guarded by a condvar. Under 8–64 client threads
//! the decision latency was governed by lock handoff and context-switch
//! chains, not by the greedy scan the paper times.
//!
//! [`CombiningCore`] replaces that with the flat-combining protocol
//! (Hendler et al.; see also the RCL and CCSynch designs in
//! SNIPPETS.md): all scheduler state lives behind one mutex that is only
//! ever `try_lock`ed on the submission path. A thread with an operation
//!
//! 1. claims a cache-padded **slot** (CAS `FREE → CLAIMED`),
//! 2. writes its operation and a publish timestamp into the slot and
//!    flips it `PUBLISHED` (SeqCst),
//! 3. tries to become the **combiner**: on `try_lock` success it drains
//!    *every* published slot — its own and everyone else's — through the
//!    handler in one pass; on failure it parks briefly and re-checks.
//!
//! The current combiner writes each response back through the slot
//! (`CONSUMED`, Release) and unparks the waiter, so a client observes
//! its own decision with one acquire load. One lock acquisition thus
//! serves *all* pending operations: decision latency is O(pending)
//! amortized O(1) per op, and no condvar broadcast storms occur.
//!
//! **Combiner handoff rule.** Every holder of the core lock — combiner
//! or observer via [`CombiningCore::with_state`] — must (a) drain all
//! published slots before releasing and (b) *re-check* for slots
//! published during its critical section after releasing, re-entering
//! via `try_lock` if any are found. A publisher whose `try_lock` failed
//! is then guaranteed its slot is seen: its SeqCst publish precedes the
//! failed `try_lock`, which precedes the holder's unlock, which precedes
//! the holder's re-check scan. Publishers additionally park with a
//! timeout, so even a missed wakeup costs microseconds, never a hang.
//!
//! **Observers wait behind one operation.** An observer blocked in
//! [`CombiningCore::with_state`] announces itself first. While one
//! waits, a combiner ends its pass after the operation in hand,
//! publishers park instead of `try_lock`ing, and releasing holders skip
//! their re-check. Once the observer holds the lock it drains every
//! published slot (all SeqCst, so a slot published before a publisher
//! saw the announcement is seen by that drain). Its own passes serve
//! only operations published before each pass began, so a client that
//! republishes as soon as it is served cannot keep one going, and after
//! releasing it re-checks once rather than looping: a slot published
//! during that last pass is served by its own publisher after the park
//! backstop.
//!
//! The protocol's exact orderings are model-checked by the
//! `runtime.combiner.handoff` and `runtime.combiner.slot_roundtrip`
//! machines in `split-analyze` (codes SA207/SA208), with negative
//! fixtures demonstrating the lost-slot and stale-response failures the
//! orderings rule out.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Number of combining slots. Slots are claimed per *call*, not per
/// thread, so this bounds concurrent submitters (64-thread contention
/// benchmarks plus the executor fit with headroom); excess claimants
/// spin-yield until a slot frees.
pub const SLOTS: usize = 128;

/// How long a publisher parks before re-polling its slot. A backstop
/// only — the fast path is an explicit unpark from the combiner.
const PARK_BACKSTOP: Duration = Duration::from_micros(200);

const FREE: u8 = 0;
const CLAIMED: u8 = 1;
const PUBLISHED: u8 = 2;
const CONSUMED: u8 = 3;

/// Mutable interior of a slot. Guarded by a per-slot mutex that is only
/// ever contended between one publisher and one combiner, never across
/// slots.
struct SlotPayload<Op, Resp> {
    op: Option<Op>,
    resp: Option<Resp>,
    waiter: Option<Thread>,
    publish: Option<Instant>,
}

/// One combining slot, padded to its own cache-line pair so publishing
/// threads never false-share state flags.
#[repr(align(128))]
struct Slot<Op, Resp> {
    /// FREE → CLAIMED → PUBLISHED → CONSUMED → FREE.
    state: AtomicU8,
    payload: Mutex<SlotPayload<Op, Resp>>,
}

impl<Op, Resp> Default for Slot<Op, Resp> {
    fn default() -> Self {
        Self {
            state: AtomicU8::new(FREE),
            payload: Mutex::new(SlotPayload {
                op: None,
                resp: None,
                waiter: None,
                publish: None,
            }),
        }
    }
}

/// The combiner-side operation handler: applies one operation to the
/// shared state and produces its response. Receives the operation's
/// *publish* instant so it can attribute latency from the moment the
/// client made the operation visible — not from lock acquisition, which
/// is exactly the distinction the decision-latency histograms need.
pub type Handler<Op, Resp, S> = Box<dyn Fn(&mut S, Op, Instant) -> Resp + Send + Sync>;

/// A flat-combining core: shared state `S`, operations `Op` applied to
/// it by whichever thread currently combines, responses `Resp` handed
/// back through the slots.
pub struct CombiningCore<Op, Resp, S> {
    slots: Box<[Slot<Op, Resp>]>,
    state: Mutex<S>,
    handler: Handler<Op, Resp, S>,
    /// Rotating start index for slot claims, spreading claimants so they
    /// don't all CAS slot 0.
    hint: AtomicUsize,
    /// Observers blocked in [`CombiningCore::with_state`] on the lock.
    waiting: AtomicUsize,
}

impl<Op: Send, Resp: Send, S: Send> CombiningCore<Op, Resp, S> {
    /// Build a core around initial state and an operation handler.
    pub fn new(
        state: S,
        handler: impl Fn(&mut S, Op, Instant) -> Resp + Send + Sync + 'static,
    ) -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            state: Mutex::new(state),
            handler: Box::new(handler),
            hint: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
        }
    }

    /// Submit an operation and block until its response is available.
    ///
    /// The calling thread either becomes the combiner (serving everyone's
    /// pending operations, including its own) or parks until the current
    /// combiner serves it.
    pub fn submit(&self, op: Op) -> Resp {
        let idx = self.claim_slot();
        let slot = &self.slots[idx];
        {
            let mut p = slot.payload.lock();
            p.op = Some(op);
            p.resp = None;
            p.waiter = Some(thread::current());
            p.publish = Some(Instant::now());
        }
        // SeqCst so the publish is totally ordered against the combiner's
        // post-release re-check scan (see the handoff rule above).
        slot.state.store(PUBLISHED, Ordering::SeqCst);

        loop {
            if slot.state.load(Ordering::Acquire) == CONSUMED {
                let resp = slot
                    .payload
                    .lock()
                    .resp
                    .take()
                    .expect("consumed slot carries a response");
                slot.state.store(FREE, Ordering::Release);
                return resp;
            }
            // A waiting observer drains this slot once it holds the
            // lock; barging ahead of it would starve it.
            if self.waiting.load(Ordering::SeqCst) == 0 {
                if let Some(mut st) = self.state.try_lock() {
                    self.drain(&mut st, false);
                    drop(st);
                    self.recheck();
                    // Own slot was published, so the drain consumed it
                    // (unless an observer cut the pass short, and will);
                    // loop back to collect the response.
                    continue;
                }
            }
            thread::park_timeout(PARK_BACKSTOP);
        }
    }

    /// Run `f` against the shared state directly (observers, shutdown).
    ///
    /// Follows the full combiner discipline: pending operations are
    /// drained both before and after `f` (so `f` observes a quiesced
    /// state and leaves none behind), and the post-release re-check
    /// keeps the handoff rule intact.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let mut st = self.state.lock();
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        self.drain(&mut st, true);
        let r = f(&mut st);
        self.drain(&mut st, true);
        drop(st);
        self.recheck_pass(true);
        r
    }

    /// Claim a FREE slot, spreading starts via the rotating hint.
    fn claim_slot(&self) -> usize {
        let start = self.hint.fetch_add(1, Ordering::Relaxed);
        loop {
            for i in 0..self.slots.len() {
                let idx = (start + i) % self.slots.len();
                if self.slots[idx]
                    .state
                    .compare_exchange(FREE, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return idx;
                }
            }
            // All slots in flight (more than SLOTS concurrent callers):
            // yield until a consumer frees one.
            thread::yield_now();
        }
    }

    /// Combiner pass: apply published operations to the state and hand
    /// each response back through its slot. Caller holds the lock. A
    /// submitter's pass ends early once an observer waits, leaving the
    /// rest to it; an observer's pass serves only operations published
    /// before the pass began.
    fn drain(&self, st: &mut S, observer: bool) {
        let began = observer.then(Instant::now);
        for slot in self.slots.iter() {
            if slot.state.load(Ordering::SeqCst) != PUBLISHED {
                continue;
            }
            // Relaxed: a stale zero only serves one more operation
            // before the observer's announcement is seen.
            if !observer && self.waiting.load(Ordering::Relaxed) > 0 {
                return;
            }
            let (op, publish, waiter) = {
                let mut p = slot.payload.lock();
                let publish = p.publish.expect("published slot carries a stamp");
                if began.is_some_and(|b| publish >= b) {
                    continue;
                }
                p.publish = None;
                (
                    p.op.take().expect("published slot carries an op"),
                    publish,
                    p.waiter.take(),
                )
            };
            let resp = (self.handler)(st, op, publish);
            slot.payload.lock().resp = Some(resp);
            // Release: the response write above happens-before the
            // publisher's acquire load of CONSUMED.
            slot.state.store(CONSUMED, Ordering::Release);
            if let Some(w) = waiter {
                w.unpark();
            }
        }
    }

    /// Post-release half of the handoff rule: if anything was published
    /// while we held the lock, either serve it ourselves or leave it to
    /// the holder whose `try_lock` beat ours, or to a waiting observer
    /// (who both drain it). Loops, since slots may publish during our
    /// own re-check pass.
    fn recheck(&self) {
        while self.recheck_pass(false) {}
    }

    /// One re-check: serve one pass if anything is published, the lock
    /// is free and no observer waits for it. Returns whether it served.
    fn recheck_pass(&self, observer: bool) -> bool {
        let pending = self
            .slots
            .iter()
            .any(|s| s.state.load(Ordering::SeqCst) == PUBLISHED);
        if !pending || self.waiting.load(Ordering::SeqCst) > 0 {
            return false;
        }
        match self.state.try_lock() {
            Some(mut st) => {
                self.drain(&mut st, observer);
                true
            }
            None => false,
        }
    }
}

/// The architecture this crate used to be: every operation crosses a
/// channel into a dedicated responder thread, which takes the global
/// state `Mutex`, applies the operation, and sends the response back
/// over a per-request channel — two blocking handoffs (each a
/// condvar-style park/unpark) per decision. Kept not as dead code but
/// as the experimental control: `perfbench decision_core/contend*`
/// measures the combining core against exactly this path on identical
/// handlers.
pub struct MutexCore<Op, Resp, S> {
    state: std::sync::Arc<Mutex<S>>,
    submit_tx: Option<crossbeam::channel::Sender<(Op, Instant, crossbeam::channel::Sender<Resp>)>>,
    responder: Option<thread::JoinHandle<()>>,
}

impl<Op: Send + 'static, Resp: Send + 'static, S: Send + 'static> MutexCore<Op, Resp, S> {
    /// Build the responder-thread core around state and a handler.
    pub fn new(
        state: S,
        handler: impl Fn(&mut S, Op, Instant) -> Resp + Send + Sync + 'static,
    ) -> Self {
        let state = std::sync::Arc::new(Mutex::new(state));
        let (submit_tx, submit_rx) =
            crossbeam::channel::unbounded::<(Op, Instant, crossbeam::channel::Sender<Resp>)>();
        let responder_state = std::sync::Arc::clone(&state);
        let responder = thread::spawn(move || {
            for (op, publish, reply_tx) in submit_rx.iter() {
                let resp = {
                    let mut st = responder_state.lock();
                    handler(&mut st, op, publish)
                };
                // A racing shutdown may have dropped the receiver.
                let _ = reply_tx.send(resp);
            }
        });
        Self {
            state,
            submit_tx: Some(submit_tx),
            responder: Some(responder),
        }
    }

    /// Apply `op` through the responder thread, blocking until it sends
    /// the response back — the pre-combining decision path end to end.
    pub fn submit(&self, op: Op) -> Resp {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let sent = self.submit_tx.as_ref().expect("core not shut down").send((
            op,
            Instant::now(),
            reply_tx,
        ));
        assert!(sent.is_ok(), "responder thread alive");
        match reply_rx.recv() {
            Ok(resp) => resp,
            Err(_) => unreachable!("responder replies before exit"),
        }
    }

    /// Run `f` against the shared state directly (contending with the
    /// responder on the global lock, as observers used to).
    pub fn with_state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.state.lock())
    }
}

impl<Op, Resp, S> Drop for MutexCore<Op, Resp, S> {
    fn drop(&mut self) {
        drop(self.submit_tx.take());
        if let Some(h) = self.responder.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Counter state: ops add, responses echo the running total.
    fn counter_core() -> CombiningCore<u64, u64, u64> {
        CombiningCore::new(0u64, |total, add, _publish| {
            *total += add;
            *total
        })
    }

    #[test]
    fn single_thread_roundtrip() {
        let core = counter_core();
        assert_eq!(core.submit(5), 5);
        assert_eq!(core.submit(7), 12);
        assert_eq!(core.with_state(|t| *t), 12);
    }

    #[test]
    fn concurrent_submissions_all_apply() {
        let core = Arc::new(counter_core());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let core = Arc::clone(&core);
                thread::spawn(move || {
                    for _ in 0..500 {
                        core.submit(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(core.with_state(|t| *t), 8 * 500);
    }

    #[test]
    fn responses_are_not_crossed_between_threads() {
        // Each thread adds its own tag and must read a total that
        // includes it — a stale (pre-apply) response would be smaller.
        let core = Arc::new(CombiningCore::new(0u64, |total: &mut u64, add, _| {
            *total += add;
            *total
        }));
        let handles: Vec<_> = (1..=6u64)
            .map(|tag| {
                let core = Arc::clone(&core);
                thread::spawn(move || {
                    for _ in 0..200 {
                        let seen = core.submit(tag);
                        assert!(seen >= tag, "response {seen} predates own op {tag}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn handler_sees_publish_instants() {
        let core = CombiningCore::new(Vec::new(), |log: &mut Vec<u128>, (): (), publish| {
            log.push(publish.elapsed().as_nanos());
        });
        core.submit(());
        core.submit(());
        let lat = core.with_state(|log| log.clone());
        assert_eq!(lat.len(), 2);
    }

    #[test]
    fn with_state_drains_pending_operations() {
        // A publisher that parks (its try_lock loses) must still be
        // served when an observer passes through the state.
        let core = Arc::new(counter_core());
        let c2 = Arc::clone(&core);
        let t = thread::spawn(move || c2.submit(41));
        t.join().unwrap();
        assert_eq!(core.with_state(|t| *t), 41);
    }

    #[test]
    fn mutex_core_matches_semantics() {
        let core = Arc::new(MutexCore::new(0u64, |total: &mut u64, add, _| {
            *total += add;
            *total
        }));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let core = Arc::clone(&core);
                thread::spawn(move || {
                    for _ in 0..250 {
                        core.submit(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(core.with_state(|t| *t), 1000);
    }
}
