//! Incremental event consumer backing `split-cli monitor`.
//!
//! A [`Monitor`] is fed lifecycle [`Event`]s one at a time — live from a
//! running simulation or replayed from a trace — and maintains a
//! [`Registry`] of standard metrics, per-request state for QoS
//! judgement, and an [`crate::slo::SloMonitor`]. At any point it can
//! emit a dashboard [`Frame`], render it, or export Prometheus
//! text-format metrics.
//!
//! A request's QoS verdict needs its pure compute time, which the event
//! stream does not carry directly; the monitor reconstructs it online
//! as the sum of the request's observed block durations (`BlockStart` →
//! `BlockEnd` pairs). Violation is then the SPLIT rule: e2e > α ×
//! compute.

use crate::dashboard::{render_frame, Frame, ModelLatencyRow};
use crate::slo::{SloCfg, SloMonitor};
use split_telemetry::{Event, Recorder, Registry};
use split_watch::{DriftWatch, WatchCfg};
use std::collections::HashMap;

/// Monitor configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MonitorCfg {
    /// SLO / burn-rate alert settings (α lives inside).
    pub slo: SloCfg,
    /// Drift-watch settings (window width, sketch accuracy, detector
    /// tuning).
    pub drift: WatchCfg,
}

#[derive(Debug, Default)]
struct InFlight {
    model: String,
    arrival_us: f64,
    compute_us: f64,
    /// (block, stream) → start time of an unclosed block.
    open_blocks: HashMap<(usize, u32), f64>,
}

/// Live observability state: metrics registry + SLO monitor + the
/// per-request bookkeeping needed to connect them.
pub struct Monitor {
    registry: Registry,
    slo: SloMonitor,
    drift: DriftWatch,
    inflight: HashMap<u64, InFlight>,
}

impl Monitor {
    /// New monitor with the given configuration. The drift watch's α
    /// is forced to the SLO α so both layers judge violations
    /// identically.
    pub fn new(cfg: MonitorCfg) -> Self {
        let mut drift_cfg = cfg.drift;
        drift_cfg.alpha = cfg.slo.alpha;
        Monitor {
            registry: Registry::new(),
            slo: SloMonitor::new(cfg.slo),
            drift: DriftWatch::new(drift_cfg),
            inflight: HashMap::new(),
        }
    }

    /// The backing metrics registry (for export or direct inspection).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The SLO / burn-rate monitor.
    pub fn slo(&self) -> &SloMonitor {
        &self.slo
    }

    /// The drift watch (windowed sketches + change-point detectors).
    pub fn drift(&self) -> &DriftWatch {
        &self.drift
    }

    /// Consume one lifecycle event.
    pub fn feed(&mut self, e: &Event) {
        match e {
            Event::Arrival { req, model, t_us } => {
                self.registry.counter("requests.arrived").inc();
                self.inflight.insert(
                    *req,
                    InFlight {
                        model: model.clone(),
                        arrival_us: *t_us,
                        ..InFlight::default()
                    },
                );
            }
            Event::BlockStart {
                req,
                block,
                stream,
                t_us,
            } => {
                if let Some(f) = self.inflight.get_mut(req) {
                    f.open_blocks.insert((*block, *stream), *t_us);
                }
            }
            Event::BlockEnd {
                req,
                block,
                stream,
                t_us,
            } => {
                if let Some(f) = self.inflight.get_mut(req) {
                    if let Some(start) = f.open_blocks.remove(&(*block, *stream)) {
                        f.compute_us += (t_us - start).max(0.0);
                    }
                }
            }
            Event::Transfer { bytes, .. } => {
                self.registry.counter("transfer.bytes").add(*bytes);
            }
            Event::Completion { req, t_us } => {
                self.registry.counter("requests.completed").inc();
                if let Some(f) = self.inflight.remove(req) {
                    let e2e = (t_us - f.arrival_us).max(0.0);
                    let us = e2e.round() as u64;
                    self.registry.histogram("request.e2e_us").record(us);
                    if !f.model.is_empty() {
                        self.registry
                            .histogram(&format!("model.{}.e2e_us", f.model))
                            .record(us);
                    }
                    self.slo.observe_outcome(*t_us, e2e, f.compute_us);
                }
            }
            Event::PreemptDecision { decision_ns, .. } => {
                self.registry
                    .histogram("sched.decision_ns")
                    .record(*decision_ns);
            }
            Event::QueueDepth { depth, .. } => {
                self.registry.gauge("queue.depth").set(*depth as i64);
            }
            Event::Utilization { busy, .. } => {
                // Busy fraction in [0, 1] → integer percent gauge.
                self.registry
                    .gauge("utilization.pct")
                    .set((busy * 100.0).round() as i64);
            }
            Event::Downgrade { .. } => {
                self.registry.counter("elastic.downgrades").inc();
            }
            Event::Enqueue { .. } | Event::Drop { .. } => {}
        }
        self.drift.feed(e);
        for ev in self.drift.drain_events() {
            self.slo.observe_regime(&ev);
        }
        self.slo.advance(e.t_us());
    }

    /// Consume every event of a recording (replay convenience).
    pub fn feed_recorder(&mut self, rec: &Recorder) {
        for e in rec.events() {
            self.feed(e);
        }
    }

    /// Snapshot the current state as a dashboard [`Frame`].
    pub fn frame(&self) -> Frame {
        let snap = self.registry.snapshot();
        let scalar = |name: &str| snap.get(name).map(|e| e.value).unwrap_or(0);
        let count = |name: &str| snap.get(name).map(|e| e.count).unwrap_or(0);

        let mut models = Vec::new();
        for e in &snap.entries {
            if let Some(model) = e
                .name
                .strip_prefix("model.")
                .and_then(|r| r.strip_suffix(".e2e_us"))
            {
                models.push(ModelLatencyRow {
                    model: model.to_string(),
                    count: e.count,
                    p50_ms: e.p50 as f64 / 1_000.0,
                    p99_ms: e.p99 as f64 / 1_000.0,
                });
            }
        }

        Frame {
            now_us: self.slo.now_us(),
            queue_depth: scalar("queue.depth"),
            utilization_pct: scalar("utilization.pct"),
            arrived: count("requests.arrived"),
            completed: count("requests.completed"),
            models,
            fast_burn: self.slo.fast_burn(),
            slow_burn: self.slo.slow_burn(),
            violation_rate: self.slo.window_rate(self.slo.cfg().slow_window_us),
            alert_active: self.slo.alert_active(),
            alerts_fired: self.slo.log().fired(),
            drift_windows: self.drift.ring().closed_count(),
            regime_events: self.drift.events().len(),
            last_regime: self.drift.events().last().map(|e| e.render()),
        }
    }

    /// Render the current frame as the terminal panel.
    pub fn render(&self) -> String {
        render_frame(&self.frame())
    }

    /// Export the current state in Prometheus text exposition format
    /// (metric names prefixed with `split_`), including burn-rate and
    /// alert gauges derived from the SLO monitor.
    pub fn prometheus(&self) -> String {
        let mut out = self.registry.snapshot().render_prometheus("split");
        out.push_str(
            "# HELP split_slo_fast_burn SLO error-budget burn rate over the fast window.\n",
        );
        out.push_str("# TYPE split_slo_fast_burn gauge\n");
        out.push_str(&format!("split_slo_fast_burn {}\n", self.slo.fast_burn()));
        out.push_str(
            "# HELP split_slo_slow_burn SLO error-budget burn rate over the slow window.\n",
        );
        out.push_str("# TYPE split_slo_slow_burn gauge\n");
        out.push_str(&format!("split_slo_slow_burn {}\n", self.slo.slow_burn()));
        out.push_str(
            "# HELP split_slo_alert_active Whether a burn-rate alert is currently firing.\n",
        );
        out.push_str("# TYPE split_slo_alert_active gauge\n");
        out.push_str(&format!(
            "split_slo_alert_active {}\n",
            u8::from(self.slo.alert_active())
        ));
        out.push_str("# HELP split_slo_alerts_fired Burn-rate alerts fired since start.\n");
        out.push_str("# TYPE split_slo_alerts_fired counter\n");
        out.push_str(&format!(
            "split_slo_alerts_fired {}\n",
            self.slo.log().fired()
        ));
        // Drift-watch families: windowed latency quantiles from the most
        // recently closed window, plus regime-shift state.
        if let Some(frame) = self.drift.ring().latest() {
            let mut quantiles = String::new();
            let mut completions = String::new();
            for (model, stats) in &frame.models {
                for (q, v) in [
                    ("0.5", stats.sketch.p50()),
                    ("0.99", stats.sketch.p99()),
                    ("0.999", stats.sketch.p999()),
                ] {
                    quantiles.push_str(&format!(
                        "split_watch_window_e2e_us{{model=\"{model}\",quantile=\"{q}\"}} {v}\n"
                    ));
                }
                completions.push_str(&format!(
                    "split_watch_window_completions{{model=\"{model}\"}} {}\n",
                    stats.completions
                ));
            }
            out.push_str(
                "# HELP split_watch_window_e2e_us Windowed e2e latency quantiles (last closed window).\n",
            );
            out.push_str("# TYPE split_watch_window_e2e_us gauge\n");
            out.push_str(&quantiles);
            out.push_str(
                "# HELP split_watch_window_completions Completions in the last closed window.\n",
            );
            out.push_str("# TYPE split_watch_window_completions gauge\n");
            out.push_str(&completions);
        }
        out.push_str("# HELP split_watch_windows_closed Drift-watch windows closed since start.\n");
        out.push_str("# TYPE split_watch_windows_closed counter\n");
        out.push_str(&format!(
            "split_watch_windows_closed {}\n",
            self.drift.ring().closed_count()
        ));
        out.push_str(
            "# HELP split_watch_regime_events Regime-shift events detected since start.\n",
        );
        out.push_str("# TYPE split_watch_regime_events counter\n");
        out.push_str(&format!(
            "split_watch_regime_events {}\n",
            self.drift.events().len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(m: &mut Monitor, req: u64, model: &str, arrival: f64, exec: f64, done: f64) {
        m.feed(&Event::Arrival {
            req,
            model: model.into(),
            t_us: arrival,
        });
        m.feed(&Event::BlockStart {
            req,
            block: 0,
            stream: 0,
            t_us: done - exec,
        });
        m.feed(&Event::BlockEnd {
            req,
            block: 0,
            stream: 0,
            t_us: done,
        });
        m.feed(&Event::Completion { req, t_us: done });
    }

    #[test]
    fn frame_reflects_fed_events() {
        let mut m = Monitor::new(MonitorCfg::default());
        m.feed(&Event::QueueDepth {
            depth: 5,
            t_us: 0.0,
        });
        m.feed(&Event::Utilization {
            busy: 0.5,
            t_us: 0.0,
        });
        request(&mut m, 0, "resnet50", 0.0, 1_000.0, 2_000.0);
        request(&mut m, 1, "vgg19", 100.0, 4_000.0, 4_500.0);

        let f = m.frame();
        assert_eq!(f.queue_depth, 5);
        assert_eq!(f.utilization_pct, 50);
        assert_eq!(f.arrived, 2);
        assert_eq!(f.completed, 2);
        assert_eq!(f.models.len(), 2);
        assert_eq!(f.models[0].model, "resnet50");
        assert!(f.models[0].p50_ms > 0.0);
        assert_eq!(f.models[1].model, "vgg19");
        assert_eq!(f.now_us, 4_500.0);
    }

    #[test]
    fn violations_drive_burn_rate() {
        let mut m = Monitor::new(MonitorCfg::default());
        // e2e 2000 vs compute 100 → ratio 20 > α=4 → violation.
        request(&mut m, 0, "m", 0.0, 100.0, 2_000.0);
        let f = m.frame();
        assert!(f.violation_rate > 0.99);
        assert!(f.fast_burn >= 1.0);
        assert!(f.alert_active);
        assert_eq!(f.alerts_fired, 1);
    }

    #[test]
    fn compliant_requests_do_not_burn() {
        let mut m = Monitor::new(MonitorCfg::default());
        // e2e 110 vs compute 100 → ratio 1.1 ≤ 4.
        request(&mut m, 0, "m", 0.0, 100.0, 110.0);
        let f = m.frame();
        assert_eq!(f.violation_rate, 0.0);
        assert!(!f.alert_active);
    }

    #[test]
    fn prometheus_export_has_types_and_slo_lines() {
        let mut m = Monitor::new(MonitorCfg::default());
        request(&mut m, 0, "resnet50", 0.0, 100.0, 150.0);
        let p = m.prometheus();
        assert!(p.contains("# HELP split_requests_arrived "));
        assert!(p.contains("# TYPE split_requests_arrived counter"));
        assert!(p.contains("split_requests_arrived 1"));
        // Per-model latency is one labeled family, not a name per model.
        assert!(p.contains("split_model_e2e_us{model=\"resnet50\",quantile=\"0.99\"}"));
        assert!(p.contains("split_model_e2e_us_count{model=\"resnet50\"} 1"));
        assert!(p.contains("# HELP split_slo_fast_burn "));
        assert!(p.contains("split_slo_fast_burn"));
        assert!(p.contains("split_slo_alert_active 0"));
        // Drift counters are always present; the windowed family only
        // appears once a window has closed (none has at t=150 µs).
        assert!(p.contains("split_watch_windows_closed 0"));
        assert!(p.contains("split_watch_regime_events 0"));
        assert!(!p.contains("split_watch_window_e2e_us{"));
        // Every TYPE header is preceded by its HELP line.
        let lines: Vec<&str> = p.lines().collect();
        for (i, l) in lines.iter().enumerate() {
            if let Some(rest) = l.strip_prefix("# TYPE ") {
                let fam = rest.split_whitespace().next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {fam} ")),
                    "TYPE without preceding HELP for {fam}"
                );
            }
        }
    }

    fn drifty_cfg() -> MonitorCfg {
        MonitorCfg {
            drift: WatchCfg {
                window_us: 1_000.0,
                ..WatchCfg::default()
            },
            ..MonitorCfg::default()
        }
    }

    #[test]
    fn windowed_families_appear_after_first_rotation() {
        let mut m = Monitor::new(drifty_cfg());
        request(&mut m, 0, "resnet50", 0.0, 100.0, 150.0);
        request(&mut m, 1, "resnet50", 1_500.0, 100.0, 1_600.0);
        // The second completion (t=1600) closes window 0.
        let p = m.prometheus();
        assert!(p.contains("split_watch_window_e2e_us{model=\"resnet50\",quantile=\"0.5\"}"));
        assert!(p.contains("split_watch_window_e2e_us{model=\"resnet50\",quantile=\"0.999\"}"));
        assert!(p.contains("split_watch_window_completions{model=\"resnet50\"} 1"));
        assert!(p.contains("split_watch_windows_closed 1"));
        let lines: Vec<&str> = p.lines().collect();
        for (i, l) in lines.iter().enumerate() {
            if let Some(rest) = l.strip_prefix("# TYPE ") {
                let fam = rest.split_whitespace().next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {fam} ")),
                    "TYPE without preceding HELP for {fam}"
                );
            }
        }
        let f = m.frame();
        assert_eq!(f.drift_windows, 1);
    }

    #[test]
    fn arrival_surge_raises_regime_alerts() {
        let mut m = Monitor::new(drifty_cfg());
        let mut req = 0u64;
        // 15 calm windows then a sustained 10× arrival surge; every
        // request completes compliantly so only the arrival-rate series
        // can fire.
        for k in 0..30u64 {
            let n = if k < 15 { 4 } else { 40 };
            for i in 0..n {
                let t = k as f64 * 1_000.0 + 1.0 + i as f64 * 10.0;
                request(&mut m, req, "gpt2", t, 100.0, t + 120.0);
                req += 1;
            }
        }
        let f = m.frame();
        assert!(f.regime_events > 0, "surge must fire a detector");
        assert!(f.last_regime.is_some());
        // Regime events were forwarded into the alert log as resolved
        // informational alerts, without activating burn alerting.
        use crate::slo::AlertSource;
        assert!(m.slo().log().fired_from(AlertSource::RegimeShift) > 0);
        assert!(!m.slo().alert_active());
        let p = m.prometheus();
        assert!(!p.contains("split_watch_regime_events 0"));
    }

    #[test]
    fn render_smoke() {
        let mut m = Monitor::new(MonitorCfg::default());
        request(&mut m, 0, "m", 0.0, 100.0, 150.0);
        let s = m.render();
        assert!(s.contains("SPLIT monitor"));
        assert!(s.contains('m'));
    }
}
