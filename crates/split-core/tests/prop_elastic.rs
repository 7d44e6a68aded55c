//! Property test for the elastic controller's incremental window: on
//! any arrival stream and any valid configuration, its decisions and
//! observable state equal a reference that recounts the whole window
//! with a `BTreeMap` tally on every arrival.

use proptest::prelude::*;
use split_core::{ElasticConfig, ElasticController, ElasticSnapshot};
use std::collections::{BTreeMap, VecDeque};

/// The controller as it was before the counts became incremental:
/// recount the window from scratch on every arrival.
struct Recount {
    cfg: ElasticConfig,
    window: VecDeque<(f64, u32)>,
    splitting: bool,
}

impl Recount {
    fn on_arrival(&mut self, now_us: f64, task: u32) -> bool {
        self.window.push_back((now_us, task));
        while let Some(&(t, _)) = self.window.front() {
            if now_us - t > self.cfg.window_us {
                self.window.pop_front();
            } else {
                break;
            }
        }
        let n = self.window.len();
        let rate_per_s = n as f64 / (self.cfg.window_us / 1e6);
        let mut dominant = 0usize;
        if n >= self.cfg.min_samples {
            let mut counts = BTreeMap::new();
            for &(_, t) in &self.window {
                *counts.entry(t).or_insert(0usize) += 1;
            }
            dominant = counts.values().copied().max().unwrap_or(0);
        }
        let same_type_flood =
            n >= self.cfg.min_samples && (dominant as f64 / n as f64) >= self.cfg.same_type_frac;
        if self.splitting {
            if rate_per_s > self.cfg.density_off_per_s || same_type_flood {
                self.splitting = false;
            }
        } else if rate_per_s < self.cfg.density_on_per_s && !same_type_flood {
            self.splitting = true;
        }
        self.splitting
    }

    fn snapshot(&self) -> ElasticSnapshot {
        ElasticSnapshot {
            splitting: self.splitting,
            window_len: self.window.len(),
            rate_per_s: self.window.len() as f64 / (self.cfg.window_us / 1e6),
        }
    }
}

/// A valid configuration: positive window, `on ≤ off`, a fraction, and
/// at least one sample.
fn config() -> impl Strategy<Value = ElasticConfig> {
    (
        1_000.0f64..1_000_000.0,
        0.0f64..400.0,
        0.0f64..=1.0,
        0.0f64..=1.0,
        1usize..12,
    )
        .prop_map(
            |(window_us, off, on_share, same_type_frac, min_samples)| ElasticConfig {
                window_us,
                density_off_per_s: off,
                density_on_per_s: off * on_share,
                same_type_frac,
                min_samples,
            },
        )
}

/// Arrivals as `(gap, task)`: gaps on a coarse grid (so many arrivals
/// share a timestamp) spanning from well inside to beyond a window, and
/// task ids from a small set plus a few near `u32::MAX`.
fn stream() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..40, 0u32..8), 0..300).prop_map(|raw| {
        raw.into_iter()
            .map(|(gap, t)| {
                (
                    gap * gap * 250,
                    if t == 7 {
                        u32::MAX - gap as u32 % 3
                    } else {
                        t % 4
                    },
                )
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn incremental_window_matches_recount(cfg in config(), arrivals in stream()) {
        let mut ctl = ElasticController::new(cfg.clone());
        let mut reference = Recount { cfg, window: VecDeque::new(), splitting: true };
        let mut now = 0.0f64;
        for (i, &(gap, task)) in arrivals.iter().enumerate() {
            now += gap as f64;
            let got = ctl.on_arrival(now, task);
            let want = reference.on_arrival(now, task);
            prop_assert_eq!(got, want, "decision {} at t={}", i, now);
            prop_assert_eq!(ctl.window_len(), reference.window.len(), "window at {}", i);
            prop_assert_eq!(ctl.snapshot(), reference.snapshot(), "snapshot at {}", i);
            prop_assert_eq!(ctl.splitting_enabled(), want);
        }
    }
}
