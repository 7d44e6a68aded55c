//! Execution traces: what ran, where, and when.
//!
//! Traces back the illustrative figures (the paper's Figures 1 and 3) and
//! let tests assert scheduling invariants such as "blocks of one request
//! never interleave with a preemptor's blocks" precisely.

use serde::{Deserialize, Serialize};
use split_telemetry::Event;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Fill glyph for a Gantt row. The first nine rows use the classic
/// high-contrast set; rows beyond that switch to letters and digits so
/// every row keeps a distinct glyph instead of repeating modulo nine.
fn row_glyph(row: usize) -> char {
    const BASE: &[u8; 9] = b"#*+=%@&ox";
    const EXT: &[u8; 62] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    if row < BASE.len() {
        char::from(BASE[row])
    } else {
        char::from(EXT[(row - BASE.len()) % EXT.len()])
    }
}

/// Parse a span label of the form `model#req` or `model#req/bN` into
/// `(model, request id, block index)`.
///
/// This is the text form of a [`SpanLabel::Block`]: a trace recorded
/// with text labels (hand-built test traces, figure lanes) is attributed
/// to requests through it, exactly as if the spans had been typed.
pub fn parse_block_label(label: &str) -> Option<(&str, u64, Option<usize>)> {
    let hash = label.rfind('#')?;
    let (model, rest) = (&label[..hash], &label[hash + 1..]);
    let (req_str, block) = match rest.find('/') {
        Some(slash) => {
            let b = rest[slash + 1..].strip_prefix('b')?.parse().ok()?;
            (&rest[..slash], Some(b))
        }
        None => (rest, None),
    };
    let req = req_str.parse().ok()?;
    Some((model, req, block))
}

/// What a device span executed.
///
/// The scheduling policies record typed [`SpanLabel::Block`]s, so a span
/// costs a refcount bump rather than a formatted string; the text form
/// `model#req/bN` is rendered only when the label is displayed.
#[derive(Debug, Clone)]
pub enum SpanLabel {
    /// One run of a request: displayed `model#req/bN`, or `model#req`
    /// for a span that is not a numbered block.
    Block {
        /// Model name, shared with the deployment table.
        model: Arc<str>,
        /// Request id.
        req: u64,
        /// Block index within the request's plan, when numbered.
        block: Option<usize>,
    },
    /// Free-form text (figure lanes, hand-built traces).
    Text(String),
}

impl SpanLabel {
    /// `(model, request id, block index)` of a request's span: the typed
    /// fields, or a text label read with [`parse_block_label`]. `None`
    /// for text that names no request.
    pub fn block(&self) -> Option<(&str, u64, Option<usize>)> {
        match self {
            SpanLabel::Block { model, req, block } => Some((model, *req, *block)),
            SpanLabel::Text(text) => parse_block_label(text),
        }
    }
}

impl fmt::Display for SpanLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanLabel::Block { model, req, block } => {
                write!(f, "{model}#{req}")?;
                match block {
                    Some(b) => write!(f, "/b{b}"),
                    None => Ok(()),
                }
            }
            SpanLabel::Text(text) => f.write_str(text),
        }
    }
}

/// Labels are equal when their text is: a typed block equals the text
/// label it displays as.
impl PartialEq for SpanLabel {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SpanLabel::Text(text), label) | (label, SpanLabel::Text(text)) => {
                label == text.as_str()
            }
            (
                SpanLabel::Block { model, req, block },
                SpanLabel::Block {
                    model: m,
                    req: r,
                    block: b,
                },
            ) => (model, req, block) == (m, r, b),
        }
    }
}

/// Compares the displayed text piece by piece, without rendering it.
impl PartialEq<str> for SpanLabel {
    fn eq(&self, other: &str) -> bool {
        struct Rest<'a>(&'a str);
        impl fmt::Write for Rest<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Rest(other);
        write!(rest, "{self}").is_ok() && rest.0.is_empty()
    }
}

impl PartialEq<&str> for SpanLabel {
    fn eq(&self, other: &&str) -> bool {
        *self == **other
    }
}

/// Serialized as its displayed text.
impl Serialize for SpanLabel {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

/// Read back as text; it still attributes to its request through
/// [`SpanLabel::block`].
impl Deserialize for SpanLabel {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        String::deserialize_value(v).map(SpanLabel::Text)
    }
}

/// One executed span on the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// What ran, e.g. `resnet50#3/b1`.
    pub label: SpanLabel,
    /// Stream (lane) the span ran on; sequential policies use stream 0.
    pub stream: usize,
    /// Start time, microseconds.
    pub start_us: f64,
    /// End time, microseconds.
    pub end_us: f64,
}

impl TraceEvent {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One boundary activation transfer attributed to a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// Request id the transfer belongs to.
    pub req: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Transfer start time, microseconds.
    pub start_us: f64,
    /// Transfer duration, microseconds (0 when the cost is already
    /// folded into the adjacent block's overhead).
    pub dur_us: f64,
}

/// An ordered collection of trace events.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
    #[serde(default)]
    transfers: Vec<TransferRecord>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a span with a free-form text label.
    pub fn record(&mut self, label: impl Into<String>, stream: usize, start_us: f64, end_us: f64) {
        self.push(SpanLabel::Text(label.into()), stream, start_us, end_us);
    }

    /// Record one run of request `req` of `model`: block `block` of its
    /// plan, or `None` for a span that is not a numbered block. Displays
    /// as `model#req/bN` (`model#req`), but formats nothing until shown.
    pub fn record_block(
        &mut self,
        model: Arc<str>,
        req: u64,
        block: Option<usize>,
        stream: usize,
        start_us: f64,
        end_us: f64,
    ) {
        self.push(
            SpanLabel::Block { model, req, block },
            stream,
            start_us,
            end_us,
        );
    }

    pub(crate) fn push(&mut self, label: SpanLabel, stream: usize, start_us: f64, end_us: f64) {
        debug_assert!(end_us >= start_us, "span ends before it starts");
        self.events.push(TraceEvent {
            label,
            stream,
            start_us,
            end_us,
        });
    }

    /// All events in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Record a boundary activation transfer for request `req`.
    pub fn record_transfer(&mut self, req: u64, bytes: u64, start_us: f64, dur_us: f64) {
        debug_assert!(dur_us >= 0.0, "negative transfer duration");
        self.transfers.push(TransferRecord {
            req,
            bytes,
            start_us,
            dur_us,
        });
    }

    /// All recorded transfers in recording order.
    pub fn transfers(&self) -> &[TransferRecord] {
        &self.transfers
    }

    /// Events whose label text contains `needle`.
    pub fn matching(&self, needle: &str) -> Vec<&TraceEvent> {
        let mut text = String::new();
        self.events
            .iter()
            .filter(|e| {
                text.clear();
                write!(text, "{}", e.label).is_ok() && text.contains(needle)
            })
            .collect()
    }

    /// Verify that no two events on the same stream overlap in time.
    /// Returns the first offending pair if any.
    pub fn first_overlap(&self) -> Option<(&TraceEvent, &TraceEvent)> {
        let mut by_stream: Vec<Vec<&TraceEvent>> = Vec::new();
        for e in &self.events {
            if by_stream.len() <= e.stream {
                by_stream.resize_with(e.stream + 1, Vec::new);
            }
            by_stream[e.stream].push(e);
        }
        for lane in &mut by_stream {
            lane.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            for w in lane.windows(2) {
                if w[1].start_us < w[0].end_us - 1e-9 {
                    return Some((w[0], w[1]));
                }
            }
        }
        None
    }

    /// Export the trace as telemetry events: [`Trace::block_events`],
    /// then one [`Event::Transfer`] per recorded transfer
    /// ([`Trace::transfer_events`]).
    pub fn lifecycle_events(&self) -> Vec<Event> {
        self.block_events().chain(self.transfer_events()).collect()
    }

    /// The request spans as [`Event::BlockStart`] / [`Event::BlockEnd`]
    /// pairs, ordered by start time (then end time; recording order
    /// breaks ties), generated lazily.
    ///
    /// Request ids and block indices are read from [`SpanLabel::block`];
    /// spans that name no request are skipped. A span without a block
    /// index is numbered per request in start order. Streams are
    /// re-assigned by greedy interval coloring — concurrent spans land on
    /// distinct streams even when the recording policy folded several
    /// requests onto one lane — so the export always satisfies the
    /// recorder's no-same-stream-overlap invariant and renders one clean
    /// track per concurrency lane in Perfetto.
    pub fn block_events(&self) -> impl Iterator<Item = Event> + '_ {
        let mut spans: Vec<(&TraceEvent, u64, Option<usize>)> = self
            .events
            .iter()
            .filter_map(|e| e.label.block().map(|(_, req, block)| (e, req, block)))
            .collect();
        let by_time = |a: &(&TraceEvent, u64, Option<usize>),
                       b: &(&TraceEvent, u64, Option<usize>)| {
            a.0.start_us
                .total_cmp(&b.0.start_us)
                .then(a.0.end_us.total_cmp(&b.0.end_us))
        };
        // Sequential policies record in start order already.
        if !spans.is_sorted_by(|a, b| by_time(a, b).is_le()) {
            spans.sort_by(by_time);
        }

        let mut unnumbered: BTreeMap<u64, usize> = BTreeMap::new();
        // Greedy coloring: lane i is free once its last span has ended.
        let mut lane_free_us: Vec<f64> = Vec::new();
        spans.into_iter().flat_map(move |(e, req, labeled)| {
            let block = labeled.unwrap_or_else(|| {
                let n = unnumbered.entry(req).or_insert(0);
                *n += 1;
                *n - 1
            });
            let stream = match lane_free_us
                .iter()
                .position(|&free| free <= e.start_us + 1e-9)
            {
                Some(i) => {
                    lane_free_us[i] = e.end_us;
                    i
                }
                None => {
                    lane_free_us.push(e.end_us);
                    lane_free_us.len() - 1
                }
            } as u32;
            [
                Event::BlockStart {
                    req,
                    block,
                    stream,
                    t_us: e.start_us,
                },
                Event::BlockEnd {
                    req,
                    block,
                    stream,
                    t_us: e.end_us,
                },
            ]
        })
    }

    /// One [`Event::Transfer`] per recorded transfer, in recording order.
    pub fn transfer_events(&self) -> impl Iterator<Item = Event> + '_ {
        self.transfers.iter().map(|t| Event::Transfer {
            req: t.req,
            bytes: t.bytes,
            t_us: t.start_us,
            dur_us: t.dur_us,
        })
    }

    /// Sample device utilization over fixed buckets of `bucket_us`,
    /// returning one [`Event::Utilization`] per bucket (stamped at the
    /// bucket's end). Busy means "at least one stream executing": the
    /// spans' union coverage of each bucket, in `[0, 1]`.
    pub fn utilization_series(&self, bucket_us: f64) -> Vec<Event> {
        assert!(bucket_us > 0.0, "bucket must be positive");
        if self.events.is_empty() {
            return Vec::new();
        }
        let t0 = self
            .events
            .iter()
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        let t1 = self.events.iter().map(|e| e.end_us).fold(t0, f64::max);

        // Merge spans across streams into disjoint busy intervals.
        let mut iv: Vec<(f64, f64)> = self.events.iter().map(|e| (e.start_us, e.end_us)).collect();
        if !iv.is_sorted_by(|a, b| a.0.total_cmp(&b.0).is_le()) {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for (s, e) in iv {
            match merged.last_mut() {
                Some(last) if s <= last.1 + 1e-9 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }

        let buckets = (((t1 - t0) / bucket_us).ceil() as usize).max(1);
        let mut out = Vec::with_capacity(buckets);
        // Sweep: intervals ending by a bucket's start, or starting at or
        // after its end, would add exactly +0.0, so each bucket sums only
        // the intervals it overlaps, in the same order.
        let mut first = 0;
        for k in 0..buckets {
            let lo = t0 + k as f64 * bucket_us;
            let hi = lo + bucket_us;
            while merged.get(first).is_some_and(|&(_, e)| e <= lo) {
                first += 1;
            }
            let mut busy = 0.0;
            for &(s, e) in merged[first..].iter().take_while(|&&(s, _)| s < hi) {
                busy += (e.min(hi) - s.max(lo)).max(0.0);
            }
            out.push(Event::Utilization {
                busy: (busy / bucket_us).clamp(0.0, 1.0),
                t_us: hi,
            });
        }
        out
    }

    /// Device-busy time (union of all spans across streams) clipped to
    /// the window `[start_us, end_us]`, in µs. Backs the incident
    /// bundles' device-utilization context.
    pub fn busy_us_between(&self, start_us: f64, end_us: f64) -> f64 {
        if end_us <= start_us {
            return 0.0;
        }
        let mut iv: Vec<(f64, f64)> = self.events.iter().map(|e| (e.start_us, e.end_us)).collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut busy = 0.0;
        let mut cursor = start_us;
        for (s, e) in iv {
            let lo = s.max(cursor);
            let hi = e.min(end_us);
            if hi > lo {
                busy += hi - lo;
                cursor = hi;
            }
        }
        busy
    }

    /// Render a fixed-width ASCII Gantt chart, one row per distinct label
    /// prefix (up to the first `/`), `width` columns spanning the full
    /// trace. Used by the schedule-gallery example to reproduce the
    /// flavour of the paper's Figure 1.
    pub fn render_ascii(&self, width: usize) -> String {
        if self.events.is_empty() {
            return String::from("(empty trace)\n");
        }
        let t0 = self
            .events
            .iter()
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        let t1 = self.events.iter().map(|e| e.end_us).fold(0.0f64, f64::max);
        let span = (t1 - t0).max(1e-9);
        let mut rows: Vec<(String, Vec<char>)> = Vec::new();
        for e in &self.events {
            let mut key = e.label.to_string();
            key.truncate(key.find('/').unwrap_or(key.len()));
            let row = match rows.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    rows.push((key.clone(), vec![' '; width]));
                    rows.len() - 1
                }
            };
            let a = (((e.start_us - t0) / span) * width as f64).floor() as usize;
            let b = (((e.end_us - t0) / span) * width as f64).ceil() as usize;
            let glyph = row_glyph(row);
            for c in a..b.min(width) {
                rows[row].1[c] = glyph;
            }
        }
        let label_w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(4);
        // Writing to a String cannot fail.
        let mut out = String::new();
        for (k, cells) in rows {
            let _ = write!(out, "{k:label_w$} |");
            out.extend(cells);
            out.push_str("|\n");
        }
        let mut range = String::new();
        let _ = write!(range, "{t0:.0} .. {t1:.0}");
        let _ = writeln!(out, "{:label_w$} |{range:<width$}|", "us");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = Trace::new();
        t.record("a/b0", 0, 0.0, 10.0);
        t.record("b/b0", 0, 10.0, 30.0);
        t.record("a/b1", 0, 30.0, 40.0);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.matching("a/").len(), 2);
        assert_eq!(t.events()[1].duration_us(), 20.0);
    }

    #[test]
    fn overlap_detection() {
        let mut ok = Trace::new();
        ok.record("a", 0, 0.0, 10.0);
        ok.record("b", 0, 10.0, 20.0);
        ok.record("c", 1, 5.0, 15.0); // other stream may overlap
        assert!(ok.first_overlap().is_none());

        let mut bad = Trace::new();
        bad.record("a", 0, 0.0, 10.0);
        bad.record("b", 0, 9.0, 20.0);
        let (x, y) = bad.first_overlap().expect("must detect overlap");
        assert_eq!(x.label, "a");
        assert_eq!(y.label, "b");
    }

    #[test]
    fn ascii_render_has_all_rows() {
        let mut t = Trace::new();
        t.record("reqA/b0", 0, 0.0, 50.0);
        t.record("reqB/b0", 0, 50.0, 100.0);
        let s = t.render_ascii(40);
        assert!(s.contains("reqA"));
        assert!(s.contains("reqB"));
    }

    #[test]
    fn empty_render() {
        assert_eq!(Trace::new().render_ascii(10), "(empty trace)\n");
    }

    /// Regression: with more than nine rows the glyph used to repeat
    /// modulo nine, so row 9 rendered with row 0's `#` and became
    /// indistinguishable from it. Every row must get a distinct glyph.
    #[test]
    fn rows_beyond_nine_get_distinct_glyphs() {
        let mut t = Trace::new();
        let n = 12;
        for i in 0..n {
            t.record(
                format!("req{i:02}/b0"),
                0,
                i as f64 * 10.0,
                i as f64 * 10.0 + 10.0,
            );
        }
        let s = t.render_ascii(n * 4);
        let mut glyphs = Vec::new();
        for line in s.lines().take(n) {
            let cells = line.split('|').nth(1).expect("row body");
            let g = cells.chars().find(|c| *c != ' ').expect("filled cell");
            glyphs.push(g);
        }
        let mut unique = glyphs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), n, "duplicate glyphs in {glyphs:?}\n{s}");
    }

    #[test]
    fn label_parsing() {
        assert_eq!(parse_block_label("vgg19#3/b2"), Some(("vgg19", 3, Some(2))));
        assert_eq!(
            parse_block_label("resnet50#17"),
            Some(("resnet50", 17, None))
        );
        assert_eq!(parse_block_label("no-request-id"), None);
        assert_eq!(parse_block_label("m#x/b1"), None);
    }

    /// A typed span is its text label, formatted lazily: recording the
    /// same spans either way exports, renders and matches identically.
    #[test]
    fn typed_spans_match_text_labels() {
        // (model, req, block, stream, start, end)
        let spans = [
            ("long", 0, Some(0), 0, 0.0, 10.0),
            ("short", 1, None, 0, 10.0, 15.0),
            ("long", 0, Some(1), 0, 15.0, 25.0),
            ("m", 3, Some(1), 1, 5.0, 12.0),
            ("short", 1, None, 1, 30.0, 31.0),
        ];
        let mut typed = Trace::new();
        let mut text = Trace::new();
        for &(model, req, block, stream, start, end) in &spans {
            typed.record_block(Arc::from(model), req, block, stream, start, end);
            let label = match block {
                Some(b) => format!("{model}#{req}/b{b}"),
                None => format!("{model}#{req}"),
            };
            text.record(label, stream, start, end);
        }
        typed.record_transfer(0, 4096, 15.0, 0.0);
        text.record_transfer(0, 4096, 15.0, 0.0);

        assert_eq!(typed.lifecycle_events(), text.lifecycle_events());
        assert_eq!(typed.render_ascii(40), text.render_ascii(40));
        for needle in ["long", "#1", "m#3/b1", "/b0", "absent"] {
            let shown = |t: &Trace| -> Vec<(String, usize, f64, f64)> {
                t.matching(needle)
                    .iter()
                    .map(|e| (e.label.to_string(), e.stream, e.start_us, e.end_us))
                    .collect()
            };
            assert_eq!(shown(&typed), shown(&text), "needle {needle}");
        }
        assert_eq!(typed.events(), text.events(), "labels compare by text");

        for e in typed.events() {
            let shown = e.label.to_string();
            assert_eq!(parse_block_label(&shown), e.label.block(), "{shown}");
        }
        let label = SpanLabel::Block {
            model: Arc::from("m"),
            req: 3,
            block: Some(1),
        };
        assert_eq!(label.to_string(), "m#3/b1");
        assert_eq!(
            parse_block_label(&label.to_string()),
            Some(("m", 3, Some(1)))
        );
        assert_eq!(label, "m#3/b1");
    }

    #[test]
    fn lifecycle_events_pair_up_and_avoid_lane_collisions() {
        let mut t = Trace::new();
        t.record("long#0/b0", 0, 0.0, 10.0);
        t.record("short#1/b0", 0, 10.0, 15.0);
        t.record("long#0/b1", 0, 15.0, 25.0);
        // Concurrent span recorded on the *same* lane by a fluid policy.
        t.record("other#2", 0, 5.0, 12.0);
        let ev = t.lifecycle_events();
        assert_eq!(ev.len(), 8);
        // Block indices follow per-request start order.
        let blocks: Vec<(u64, usize)> = ev
            .iter()
            .filter_map(|e| match e {
                Event::BlockStart { req, block, .. } => Some((*req, *block)),
                _ => None,
            })
            .collect();
        assert_eq!(blocks, vec![(0, 0), (2, 0), (1, 0), (0, 1)]);
        // Coloring pushed the overlapping span onto its own stream.
        let streams: std::collections::HashMap<u64, u32> = ev
            .iter()
            .filter_map(|e| match e {
                Event::BlockStart { req, stream, .. } => Some((*req, *stream)),
                _ => None,
            })
            .collect();
        assert_ne!(streams[&2], streams[&0]);
    }

    #[test]
    fn transfers_export_as_lifecycle_events() {
        let mut t = Trace::new();
        t.record("m#0/b0", 0, 0.0, 10.0);
        t.record_transfer(0, 4096, 10.0, 0.0);
        t.record("m#0/b1", 0, 10.0, 20.0);
        assert_eq!(t.transfers().len(), 1);
        assert_eq!(t.transfers()[0].bytes, 4096);
        let ev = t.lifecycle_events();
        let transfers: Vec<_> = ev
            .iter()
            .filter(|e| matches!(e, Event::Transfer { .. }))
            .collect();
        assert_eq!(transfers.len(), 1);
        match transfers[0] {
            Event::Transfer {
                req,
                bytes,
                t_us,
                dur_us,
            } => {
                assert_eq!((*req, *bytes), (0, 4096));
                assert_eq!((*t_us, *dur_us), (10.0, 0.0));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn busy_between_unions_overlaps_and_clips() {
        let mut t = Trace::new();
        t.record("a#0", 0, 0.0, 10.0);
        t.record("b#1", 1, 5.0, 12.0); // overlap [5,10] counted once
        t.record("c#2", 0, 20.0, 30.0);
        assert!((t.busy_us_between(0.0, 30.0) - 22.0).abs() < 1e-9);
        // Clipped window cuts both ends.
        assert!((t.busy_us_between(6.0, 25.0) - 11.0).abs() < 1e-9);
        // Degenerate / empty windows.
        assert_eq!(t.busy_us_between(10.0, 10.0), 0.0);
        assert_eq!(t.busy_us_between(13.0, 19.0), 0.0);
    }

    #[test]
    fn utilization_series_measures_coverage() {
        let mut t = Trace::new();
        t.record("a#0", 0, 0.0, 10.0);
        t.record("b#1", 1, 5.0, 10.0); // overlaps — union still [0, 10]
        t.record("c#2", 0, 15.0, 20.0);
        let u = t.utilization_series(10.0);
        assert_eq!(u.len(), 2);
        match (&u[0], &u[1]) {
            (
                Event::Utilization { busy: b0, t_us: t0 },
                Event::Utilization { busy: b1, t_us: t1 },
            ) => {
                assert!((b0 - 1.0).abs() < 1e-9, "first bucket fully busy: {b0}");
                assert!((b1 - 0.5).abs() < 1e-9, "second bucket half busy: {b1}");
                assert_eq!((*t0, *t1), (10.0, 20.0));
            }
            other => panic!("unexpected events {other:?}"),
        }
    }
}
