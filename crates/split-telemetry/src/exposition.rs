//! Text renderings of a [`MetricsSnapshot`]: markdown and CSV tables
//! and the Prometheus text exposition format. They run once per metric
//! when a snapshot is shown, never on the recording path.

use crate::metrics::MetricsSnapshot;

impl MetricsSnapshot {
    /// Table header matching [`MetricsSnapshot::to_rows`].
    pub fn header() -> [&'static str; 10] {
        [
            "metric", "kind", "count", "value", "mean", "p50", "p95", "p99", "p999", "max",
        ]
    }

    /// One row of cells per metric, for markdown/CSV rendering.
    pub fn to_rows(&self) -> Vec<Vec<String>> {
        self.entries
            .iter()
            .map(|e| {
                let (stats_on, value_on) = match e.kind.as_str() {
                    "histogram" => (true, false),
                    "counter" | "gauge" => (false, true),
                    _ => (false, false),
                };
                let num = |on: bool, v: String| if on { v } else { "-".to_string() };
                vec![
                    e.name.clone(),
                    e.kind.clone(),
                    num(e.kind != "gauge", e.count.to_string()),
                    num(value_on, e.value.to_string()),
                    num(stats_on, format!("{:.1}", e.mean)),
                    num(stats_on, e.p50.to_string()),
                    num(stats_on, e.p95.to_string()),
                    num(stats_on, e.p99.to_string()),
                    num(stats_on, e.p999.to_string()),
                    num(stats_on, e.max.to_string()),
                ]
            })
            .collect()
    }

    /// Render as a markdown table.
    pub fn render_markdown(&self) -> String {
        qos_metrics::report::markdown_table(&Self::header(), &self.to_rows())
    }

    /// Write as CSV.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        qos_metrics::report::write_csv(path, &Self::header(), &self.to_rows())
    }

    /// Render in Prometheus text exposition format. Metric names are
    /// `<prefix>_<name>` with non-alphanumeric characters mapped to
    /// `_`; per-model latency series (`model.<m>.<metric>`) collapse
    /// into one labeled family (`<prefix>_model_<metric>{model="<m>"}`);
    /// histograms become summaries (p50/p95/p99/p999 quantiles plus
    /// `_sum`/`_count`), counters and gauges map directly. Conformance:
    /// every family gets exactly one `# HELP` and one `# TYPE` line,
    /// all its samples are grouped under that header, and label values
    /// are escaped per the exposition format (`\`, `"`, newline).
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let sanitize = |s: &str| -> String {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        };
        struct Family {
            kind: &'static str,
            help: String,
            lines: Vec<String>,
        }
        // The exposition format requires all samples of a family in one
        // block under its header, so group first, emit after.
        let mut order: Vec<String> = Vec::new();
        let mut families: std::collections::HashMap<String, Family> =
            std::collections::HashMap::new();
        for e in &self.entries {
            let (family, model_label, help) = match model_series(&e.name) {
                Some((model, metric)) => (
                    format!("{}_model_{}", sanitize(prefix), sanitize(metric)),
                    Some(model),
                    format!("Per-model {metric} (one series per model label)."),
                ),
                None => (
                    format!("{}_{}", sanitize(prefix), sanitize(&e.name)),
                    None,
                    format!("SPLIT telemetry metric {}.", e.name),
                ),
            };
            let kind = match e.kind.as_str() {
                "counter" => "counter",
                "gauge" => "gauge",
                "histogram" => "summary",
                _ => continue,
            };
            let labels = |extra: Option<(&str, &str)>| -> String {
                let mut pairs: Vec<String> = Vec::new();
                if let Some(model) = model_label {
                    pairs.push(format!("model=\"{}\"", escape_label_value(model)));
                }
                if let Some((k, v)) = extra {
                    pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
                }
                if pairs.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", pairs.join(","))
                }
            };
            let fam = families.entry(family.clone()).or_insert_with(|| {
                order.push(family.clone());
                Family {
                    kind,
                    help,
                    lines: Vec::new(),
                }
            });
            match e.kind.as_str() {
                "counter" => fam
                    .lines
                    .push(format!("{family}{} {}", labels(None), e.count)),
                "gauge" => fam
                    .lines
                    .push(format!("{family}{} {}", labels(None), e.value)),
                "histogram" => {
                    for (q, v) in [
                        ("0.5", e.p50),
                        ("0.95", e.p95),
                        ("0.99", e.p99),
                        ("0.999", e.p999),
                    ] {
                        fam.lines
                            .push(format!("{family}{} {v}", labels(Some(("quantile", q)))));
                    }
                    let sum = e.mean * e.count as f64;
                    fam.lines
                        .push(format!("{family}_sum{} {sum}", labels(None)));
                    fam.lines
                        .push(format!("{family}_count{} {}", labels(None), e.count));
                }
                _ => {}
            }
        }
        let mut out = String::new();
        for name in order {
            let fam = &families[&name];
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&fam.help)));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind));
            for l in &fam.lines {
                out.push_str(l);
                out.push('\n');
            }
        }
        out
    }
}

/// `model.<m>.<metric>` → `(<m>, <metric>)` for per-model series (the
/// metric is the final dot segment; the model may itself contain dots).
fn model_series(name: &str) -> Option<(&str, &str)> {
    let rest = name.strip_prefix("model.")?;
    let (model, metric) = rest.rsplit_once('.')?;
    if model.is_empty() || metric.is_empty() {
        return None;
    }
    Some((model, metric))
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline.
fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape `# HELP` text per the exposition format: backslash and
/// newline (quotes are legal there).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use crate::metrics::Registry;

    #[test]
    fn prometheus_rendering_covers_all_kinds() {
        let reg = Registry::new();
        reg.counter("requests.arrived").add(7);
        reg.gauge("queue.depth").set(-1);
        let h = reg.histogram("request.e2e_us");
        h.record(100);
        h.record(300);
        let p = reg.snapshot().render_prometheus("split");
        assert!(p.contains("# HELP split_requests_arrived "));
        assert!(p.contains("# TYPE split_requests_arrived counter"));
        assert!(p.contains("split_requests_arrived 7"));
        assert!(p.contains("# TYPE split_queue_depth gauge"));
        assert!(p.contains("split_queue_depth -1"));
        assert!(p.contains("# TYPE split_request_e2e_us summary"));
        assert!(p.contains("split_request_e2e_us{quantile=\"0.5\"}"));
        assert!(p.contains("split_request_e2e_us_count 2"));
        assert!(p.contains("split_request_e2e_us_sum 400"));
        // Every non-comment line is `name[{labels}] value`.
        for l in p.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(l.split_whitespace().count(), 2, "bad line {l:?}");
        }
    }

    #[test]
    fn prometheus_conformance_families_labels_and_escaping() {
        let reg = Registry::new();
        reg.histogram("model.resnet50.e2e_us").record(100);
        reg.histogram("model.vgg19.e2e_us").record(200);
        // A hostile model name: backslash, quote, and newline must all
        // be escaped in the label value.
        reg.histogram("model.we\"ird\\mo\ndel.e2e_us").record(300);
        reg.counter("requests.arrived").add(1);
        let p = reg.snapshot().render_prometheus("split");

        // One labeled family for all models, with one HELP and one TYPE.
        assert_eq!(p.matches("# HELP split_model_e2e_us ").count(), 1);
        assert_eq!(p.matches("# TYPE split_model_e2e_us summary").count(), 1);
        assert!(p.contains("split_model_e2e_us{model=\"resnet50\",quantile=\"0.5\"} 100"));
        assert!(p.contains("split_model_e2e_us{model=\"vgg19\",quantile=\"0.5\"} 200"));
        assert!(p.contains("split_model_e2e_us_sum{model=\"resnet50\"}"));
        assert!(p.contains("split_model_e2e_us_count{model=\"vgg19\"} 1"));
        assert!(
            p.contains("{model=\"we\\\"ird\\\\mo\\ndel\",quantile=\"0.5\"}"),
            "label value not escaped: {p}"
        );
        // Structural conformance: headers precede their samples, all
        // samples of a family are contiguous, and no raw newline or
        // unescaped quote leaks into a label value.
        let mut current_family: Option<String> = None;
        let mut closed: std::collections::HashSet<String> = std::collections::HashSet::new();
        for l in p.lines() {
            if let Some(rest) = l.strip_prefix("# HELP ") {
                let fam = rest.split_whitespace().next().unwrap().to_string();
                if let Some(prev) = current_family.take() {
                    assert!(closed.insert(prev.clone()), "family {prev} split apart");
                }
                current_family = Some(fam);
                continue;
            }
            if l.starts_with("# TYPE ") {
                continue;
            }
            let name = l.split(['{', ' ']).next().unwrap();
            let fam = current_family.as_deref().expect("sample before any header");
            assert!(
                name == fam
                    || name
                        .strip_prefix(fam)
                        .is_some_and(|s| s == "_sum" || s == "_count"),
                "sample {name} outside its family block {fam}"
            );
            assert!(!closed.contains(fam), "family {fam} reopened");
        }
    }
}
