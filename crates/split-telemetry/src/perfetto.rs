//! Chrome/Perfetto `trace_events` export.
//!
//! Converts a [`Recorder`] into the JSON object format understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>: block executions
//! become complete (`"X"`) spans on one track per GPU stream,
//! scheduler-side happenings (arrivals, preemption decisions and jumps,
//! elastic downgrades, completions) become instant (`"i"`) markers on a
//! dedicated scheduler track, and queue depth / device utilization
//! become counter (`"C"`) tracks. Timestamps pass through unchanged —
//! the recorder's microseconds are exactly the `ts` unit the format
//! expects.

use crate::lifecycle::{Event, Recorder};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

const PID: u64 = 1;
/// Track for scheduler instants (decisions, arrivals, completions).
const TID_SCHED: u64 = 1;
/// Track for transfer spans.
const TID_IO: u64 = 2;
/// Streams map to tids from this base upward.
const TID_STREAM_BASE: u64 = 100;

fn s(v: impl Into<String>) -> Value {
    Value::String(v.into())
}

fn u(v: u64) -> Value {
    Value::Number(serde_json::Number::PosInt(v))
}

fn f(v: f64) -> Value {
    Value::Number(serde_json::Number::Float(v))
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(k, v);
    }
    Value::Object(m)
}

fn instant(name: &str, cat: &str, ts: f64, args: Vec<(&str, Value)>) -> Value {
    obj(vec![
        ("name", s(name)),
        ("cat", s(cat)),
        ("ph", s("i")),
        ("s", s("t")),
        ("ts", f(ts)),
        ("pid", u(PID)),
        ("tid", u(TID_SCHED)),
        ("args", obj(args)),
    ])
}

fn counter(name: &str, ts: f64, key: &str, value: Value) -> Value {
    obj(vec![
        ("name", s(name)),
        ("ph", s("C")),
        ("ts", f(ts)),
        ("pid", u(PID)),
        ("args", obj(vec![(key, value)])),
    ])
}

fn metadata(name: &str, tid: Option<u64>, value: &str) -> Value {
    let mut pairs = vec![
        ("name", s(name)),
        ("ph", s("M")),
        ("pid", u(PID)),
        ("args", obj(vec![("name", s(value))])),
    ];
    if let Some(tid) = tid {
        pairs.insert(3, ("tid", u(tid)));
    }
    obj(pairs)
}

/// Convert a recording into a `trace_events` JSON document
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`). `process_name`
/// labels the single process track, e.g. `"split-sim"` or
/// `"split-runtime"`.
pub fn trace_events(rec: &Recorder, process_name: &str) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(rec.len() + 8);
    events.push(metadata("process_name", None, process_name));
    events.push(metadata("thread_name", Some(TID_SCHED), "scheduler"));

    // Model names per request, for span labels.
    let mut models: BTreeMap<u64, String> = BTreeMap::new();
    for e in rec.events() {
        if let Event::Arrival { req, model, .. } = e {
            models.insert(*req, model.clone());
        }
    }

    // Open BlockStart awaiting its end, keyed by request.
    let mut open: BTreeMap<u64, (usize, u32, f64)> = BTreeMap::new();
    let mut streams_seen: BTreeMap<u32, ()> = BTreeMap::new();
    let mut io_seen = false;

    for e in rec.events() {
        match e {
            Event::Arrival { req, model, t_us } => {
                events.push(instant(
                    "arrival",
                    "lifecycle",
                    *t_us,
                    vec![("req", u(*req)), ("model", s(model.clone()))],
                ));
            }
            Event::Enqueue {
                req,
                position,
                displaced,
                t_us,
            } => {
                if *displaced > 0 {
                    events.push(instant(
                        "preempt-jump",
                        "preemption",
                        *t_us,
                        vec![
                            ("req", u(*req)),
                            ("position", u(*position as u64)),
                            ("displaced", u(*displaced as u64)),
                        ],
                    ));
                }
            }
            Event::PreemptDecision {
                req,
                position,
                comparisons,
                stop,
                decision_ns,
                publish_ns,
                t_us,
            } => {
                events.push(instant(
                    "preempt-decision",
                    "preemption",
                    *t_us,
                    vec![
                        ("req", u(*req)),
                        ("position", u(*position as u64)),
                        ("comparisons", u(*comparisons as u64)),
                        ("stop", s(stop.clone())),
                        ("decision_ns", u(*decision_ns)),
                        ("publish_ns", u(*publish_ns)),
                    ],
                ));
            }
            Event::BlockStart {
                req,
                block,
                stream,
                t_us,
            } => {
                open.insert(*req, (*block, *stream, *t_us));
            }
            Event::BlockEnd {
                req,
                block,
                stream,
                t_us,
            } => {
                let Some((b, strm, start)) = open.remove(req) else {
                    continue;
                };
                if b != *block || strm != *stream {
                    continue;
                }
                streams_seen.insert(*stream, ());
                let label = match models.get(req) {
                    Some(m) => format!("{m}#{req}/b{block}"),
                    None => format!("req{req}/b{block}"),
                };
                events.push(obj(vec![
                    ("name", s(label)),
                    ("cat", s("block")),
                    ("ph", s("X")),
                    ("ts", f(start)),
                    ("dur", f(t_us - start)),
                    ("pid", u(PID)),
                    ("tid", u(TID_STREAM_BASE + *stream as u64)),
                    (
                        "args",
                        obj(vec![("req", u(*req)), ("block", u(*block as u64))]),
                    ),
                ]));
            }
            Event::Transfer {
                req,
                bytes,
                t_us,
                dur_us,
            } => {
                io_seen = true;
                events.push(obj(vec![
                    ("name", s(format!("transfer#{req}"))),
                    ("cat", s("io")),
                    ("ph", s("X")),
                    ("ts", f(*t_us)),
                    ("dur", f(*dur_us)),
                    ("pid", u(PID)),
                    ("tid", u(TID_IO)),
                    ("args", obj(vec![("req", u(*req)), ("bytes", u(*bytes))])),
                ]));
            }
            Event::Completion { req, t_us } => {
                events.push(instant(
                    "completion",
                    "lifecycle",
                    *t_us,
                    vec![("req", u(*req))],
                ));
            }
            Event::Downgrade {
                req,
                from_blocks,
                to_blocks,
                t_us,
            } => {
                events.push(instant(
                    "elastic-downgrade",
                    "elastic",
                    *t_us,
                    vec![
                        ("req", u(*req)),
                        ("from_blocks", u(*from_blocks as u64)),
                        ("to_blocks", u(*to_blocks as u64)),
                    ],
                ));
            }
            Event::QueueDepth { depth, t_us } => {
                events.push(counter("queue_depth", *t_us, "depth", u(*depth as u64)));
            }
            Event::Utilization { busy, t_us } => {
                events.push(counter("utilization", *t_us, "busy", f(*busy)));
            }
            Event::Drop { req, model, t_us } => {
                events.push(instant(
                    "drop",
                    "lifecycle",
                    *t_us,
                    vec![("req", u(*req)), ("model", s(model.clone()))],
                ));
            }
        }
    }

    for stream in streams_seen.keys() {
        events.push(metadata(
            "thread_name",
            Some(TID_STREAM_BASE + *stream as u64),
            &format!("stream {stream}"),
        ));
    }
    if io_seen {
        events.push(metadata("thread_name", Some(TID_IO), "io"));
    }

    let mut root = Map::new();
    root.insert("traceEvents", Value::Array(events));
    root.insert("displayTimeUnit", s("ms"));
    Value::Object(root)
}

/// Numeric field accessor tolerant of integer/float JSON encodings.
fn num(v: &Value) -> Option<f64> {
    v.as_f64().or_else(|| v.as_u64().map(|n| n as f64))
}

fn arg_u64(e: &Value, key: &str) -> Option<u64> {
    e.get("args")?.get(key)?.as_u64()
}

fn arg_f64(e: &Value, key: &str) -> Option<f64> {
    num(e.get("args")?.get(key)?)
}

/// String argument, empty when absent.
fn arg_str(e: &Value, key: &str) -> String {
    e.get("args")
        .and_then(|a| a.get(key))
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Rebuild a [`Recorder`] from a `trace_events` document previously
/// produced by [`trace_events`] — the inverse mapping of the exporter
/// (instants by name, `"block"`/`"io"` complete spans back to
/// block/transfer events, counters back to samples; metadata records
/// are skipped). Events are re-sorted by time with the scheduler's
/// same-timestamp ordering so replays feed consumers causally. Returns
/// an error when the document lacks a `traceEvents` array.
pub fn recorder_from_trace_events(doc: &Value) -> Result<Recorder, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;

    let mut out: Vec<Event> = Vec::with_capacity(events.len());
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or_default();
        let ts = e.get("ts").and_then(num).unwrap_or(0.0);
        let name = e.get("name").and_then(Value::as_str).unwrap_or_default();
        let cat = e.get("cat").and_then(Value::as_str).unwrap_or_default();
        match ph {
            "i" => match name {
                "arrival" => {
                    if let Some(req) = arg_u64(e, "req") {
                        out.push(Event::Arrival {
                            req,
                            model: arg_str(e, "model"),
                            t_us: ts,
                        });
                    }
                }
                "completion" => {
                    if let Some(req) = arg_u64(e, "req") {
                        out.push(Event::Completion { req, t_us: ts });
                    }
                }
                "preempt-decision" => {
                    if let Some(req) = arg_u64(e, "req") {
                        out.push(Event::PreemptDecision {
                            req,
                            position: arg_u64(e, "position").unwrap_or(0) as usize,
                            comparisons: arg_u64(e, "comparisons").unwrap_or(0) as usize,
                            stop: arg_str(e, "stop").into(),
                            decision_ns: arg_u64(e, "decision_ns").unwrap_or(0),
                            publish_ns: arg_u64(e, "publish_ns").unwrap_or(0),
                            t_us: ts,
                        });
                    }
                }
                "preempt-jump" => {
                    if let Some(req) = arg_u64(e, "req") {
                        out.push(Event::Enqueue {
                            req,
                            position: arg_u64(e, "position").unwrap_or(0) as usize,
                            displaced: arg_u64(e, "displaced").unwrap_or(0) as usize,
                            t_us: ts,
                        });
                    }
                }
                "elastic-downgrade" => {
                    if let Some(req) = arg_u64(e, "req") {
                        out.push(Event::Downgrade {
                            req,
                            from_blocks: arg_u64(e, "from_blocks").unwrap_or(0) as usize,
                            to_blocks: arg_u64(e, "to_blocks").unwrap_or(0) as usize,
                            t_us: ts,
                        });
                    }
                }
                "drop" => {
                    if let Some(req) = arg_u64(e, "req") {
                        out.push(Event::Drop {
                            req,
                            model: arg_str(e, "model"),
                            t_us: ts,
                        });
                    }
                }
                _ => {}
            },
            "X" if cat == "block" => {
                let (Some(req), Some(block)) = (arg_u64(e, "req"), arg_u64(e, "block")) else {
                    continue;
                };
                let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
                let stream = tid.saturating_sub(TID_STREAM_BASE) as u32;
                let dur = e.get("dur").and_then(num).unwrap_or(0.0);
                out.push(Event::BlockStart {
                    req,
                    block: block as usize,
                    stream,
                    t_us: ts,
                });
                out.push(Event::BlockEnd {
                    req,
                    block: block as usize,
                    stream,
                    t_us: ts + dur,
                });
            }
            "X" if cat == "io" => {
                if let (Some(req), Some(bytes)) = (arg_u64(e, "req"), arg_u64(e, "bytes")) {
                    out.push(Event::Transfer {
                        req,
                        bytes,
                        t_us: ts,
                        dur_us: e.get("dur").and_then(num).unwrap_or(0.0),
                    });
                }
            }
            "C" => match name {
                "queue_depth" => {
                    if let Some(d) = arg_u64(e, "depth") {
                        out.push(Event::QueueDepth {
                            depth: d as usize,
                            t_us: ts,
                        });
                    }
                }
                "utilization" => {
                    if let Some(b) = arg_f64(e, "busy") {
                        out.push(Event::Utilization { busy: b, t_us: ts });
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }

    // Same same-timestamp ordering the scheduler uses when it merges
    // lifecycle streams, so a replay observes causally-ordered events.
    out.sort_by(|a, b| a.t_us().total_cmp(&b.t_us()).then(a.rank().cmp(&b.rank())));

    let mut rec = Recorder::new();
    for e in out {
        rec.record(e);
    }
    Ok(rec)
}

/// [`recorder_from_trace_events`] from a file on disk.
pub fn read_chrome_trace(path: &Path) -> Result<Recorder, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("parse {path:?}: {e:?}"))?;
    recorder_from_trace_events(&doc)
}

/// Serialize [`trace_events`] to a file.
pub fn write_chrome_trace(rec: &Recorder, process_name: &str, path: &Path) -> io::Result<()> {
    let doc = trace_events(rec, process_name);
    let text = serde_json::to_string(&doc).map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recorder {
        let mut r = Recorder::new();
        r.record(Event::Arrival {
            req: 3,
            model: "vgg19".into(),
            t_us: 0.0,
        });
        r.record(Event::Enqueue {
            req: 3,
            position: 0,
            displaced: 2,
            t_us: 0.0,
        });
        r.record(Event::PreemptDecision {
            req: 3,
            position: 0,
            comparisons: 2,
            stop: "Beaten".into(),
            decision_ns: 740,
            publish_ns: 1_900,
            t_us: 0.0,
        });
        r.record(Event::QueueDepth {
            depth: 3,
            t_us: 0.0,
        });
        r.record(Event::BlockStart {
            req: 3,
            block: 0,
            stream: 1,
            t_us: 4.0,
        });
        r.record(Event::BlockEnd {
            req: 3,
            block: 0,
            stream: 1,
            t_us: 9.5,
        });
        r.record(Event::Completion { req: 3, t_us: 9.5 });
        r
    }

    #[test]
    fn document_shape_and_span_pairing() {
        let doc = trace_events(&sample(), "split-sim");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(doc.get("displayTimeUnit").is_some());

        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 1);
        let span = spans[0];
        assert_eq!(span.get("name").unwrap().as_str().unwrap(), "vgg19#3/b0");
        assert_eq!(span.get("ts").unwrap().as_f64().unwrap(), 4.0);
        assert!((span.get("dur").unwrap().as_f64().unwrap() - 5.5).abs() < 1e-9);
        assert_eq!(span.get("tid").unwrap().as_u64().unwrap(), 101);

        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert!(kinds.contains(&"preempt-decision"));
        assert!(kinds.contains(&"preempt-jump"));
        assert!(kinds.contains(&"queue_depth"));
        assert!(kinds.contains(&"arrival"));
        assert!(kinds.contains(&"completion"));

        // Stream track got a thread_name metadata record.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("M")
                && e.get("tid").and_then(Value::as_u64) == Some(101)
        }));
    }

    #[test]
    fn counter_events_carry_args() {
        let doc = trace_events(&sample(), "p");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let c = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .unwrap();
        assert_eq!(
            c.get("args").unwrap().get("depth").unwrap().as_u64(),
            Some(3)
        );
    }

    #[test]
    fn import_inverts_export() {
        let rec = sample();
        let doc = trace_events(&rec, "split-sim");
        let back = recorder_from_trace_events(&doc).unwrap();
        // Same number of events (every original event has an inverse).
        assert_eq!(back.len(), rec.len());
        // Same multiset of events: the importer re-sorts same-timestamp
        // events into scheduler order, so compare order-insensitively.
        let key = |e: &Event| format!("{e:?}");
        let mut a: Vec<String> = rec.events().map(key).collect();
        let mut b: Vec<String> = back.events().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // And the derived summary (e2e latency) survives the roundtrip.
        let e2e: Vec<f64> = back.summary().requests.iter().map(|r| r.e2e_us()).collect();
        assert_eq!(e2e, vec![9.5]);
    }

    #[test]
    fn drop_roundtrips_as_an_instant() {
        let mut rec = Recorder::new();
        let drop = Event::Drop {
            req: 8,
            model: "ghost".into(),
            t_us: 2.5,
        };
        rec.record(drop.clone());
        let doc = trace_events(&rec, "split-runtime");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("i")
                && e.get("name").and_then(Value::as_str) == Some("drop")
        }));
        let back = recorder_from_trace_events(&doc).unwrap();
        assert_eq!(back.events().collect::<Vec<_>>(), vec![&drop]);
    }

    #[test]
    fn import_rejects_non_trace_documents() {
        assert!(recorder_from_trace_events(&Value::Null).is_err());
        let empty = obj(vec![("traceEvents", Value::Array(vec![]))]);
        assert_eq!(recorder_from_trace_events(&empty).unwrap().len(), 0);
    }

    #[test]
    fn file_roundtrip_parses() {
        let dir = std::env::temp_dir().join("split-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        write_chrome_trace(&sample(), "split-sim", &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert!(parsed.get("traceEvents").unwrap().as_array().unwrap().len() > 5);
        std::fs::remove_file(&path).ok();
    }
}
