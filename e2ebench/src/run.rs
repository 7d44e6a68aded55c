//! What every workload shares: its configuration, the timed set-up, and
//! the measuring loop.

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats;
use std::time::{Duration, Instant};

/// How one workload run is configured.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run: per-layer spans and counts instead of the untraced
    /// end-to-end metrics.
    pub traced: bool,
    /// Requests per served trace (per live session on live-server).
    pub requests: usize,
}

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

impl RunCfg {
    /// The measuring deadline, from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Times the workload's set-up. The timed set-ups are spread over the run
/// rather than done back to back: set-up time moves with the host's load
/// (the GA's pool spawns threads), and a burst of set-ups at the start
/// samples one moment of it.
pub struct SetupTimer {
    t: Tracer,
    secs: Vec<f64>,
    every: Duration,
    next: Instant,
}

impl SetupTimer {
    /// A timer that aims at [`SETUP_REPS`] set-ups over `cfg.seconds`.
    pub fn new(cfg: &RunCfg) -> Self {
        let every = Duration::from_secs_f64(cfg.seconds / SETUP_REPS as f64);
        SetupTimer {
            t: Tracer::new(),
            secs: Vec::with_capacity(SETUP_REPS),
            every,
            next: Instant::now() + every,
        }
    }

    /// Time one set-up.
    pub fn time<T>(&mut self, build: impl FnOnce(&mut Tracer) -> T) -> T {
        let t0 = Instant::now();
        let built = build(&mut self.t);
        self.secs.push(t0.elapsed().as_secs_f64());
        built
    }

    /// Whether the next spread-out set-up is due.
    pub fn due(&mut self) -> bool {
        let due = self.secs.len() < SETUP_REPS && Instant::now() >= self.next;
        if due {
            self.next += self.every;
        }
        due
    }

    /// Top up to the aimed count with `build`, then record `setup_s` (the
    /// median) and each setup layer's median span.
    pub fn report<T>(mut self, out: &mut Outcome, mut build: impl FnMut(&mut Tracer) -> T) {
        while self.secs.len() < SETUP_REPS {
            drop(self.time(&mut build));
        }
        out.e2e.insert("setup_s", stats::median(&self.secs));
        for (span, metric) in [
            ("model-zoo.build_calibrated", "model-zoo.build_ms"),
            ("split-core.plan", "split-core.plan_ms"),
            ("split-runtime.deploy_all", "split-runtime.deploy_ms"),
        ] {
            out.layers
                .insert(metric, median_span_ns(&self.t, span) / 1e6);
        }
    }
}

/// Median duration of the spans named `name`, ns (0 when there are none).
pub fn median_span_ns(t: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        stats::median(&d)
    }
}

/// Run `iteration` until the deadline has passed and it ran at least
/// `min_iters` times; returns how often it ran.
pub fn until(deadline: Instant, min_iters: usize, mut iteration: impl FnMut(usize)) -> usize {
    let mut i = 0;
    while i < min_iters || Instant::now() < deadline {
        iteration(i);
        i += 1;
    }
    i
}
