//! Chrome Trace Event Format rendering.
//!
//! The exported document uses the object form (`{"traceEvents": [...]}`)
//! with one *simulated cycle* mapped to one viewer microsecond — cycle
//! 12_345 shows as 12.345 ms on the Perfetto timeline. All events share
//! `pid` 0; each [`Track`](crate::Track) becomes one `tid` with a
//! `thread_name` metadata record, so the viewer shows one named row per
//! track in registration order.
//!
//! Sync-track spans render as complete (`"X"`) events with
//! a non-negative `dur`; async-track spans render as `"b"`/`"e"`
//! pairs keyed by the recorder-assigned id, so overlapping in-flight
//! lifetimes display stacked instead of corrupting a thread row.
//! The document is a [`json::Value`]; `check_figures --trace` parses
//! it back with [`json::parse`] and validates the events as values.

use crate::json::{self, Value};
use crate::{Args, TraceEvent, Tracer, TrackKind};

fn args(args: &Args) -> Value {
    Value::Object(
        args.iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// The fields every timed event starts with.
fn event(ph: &str, tid: usize, ts: u64) -> Value {
    Value::object()
        .with("ph", ph)
        .with("pid", 0u64)
        .with("tid", tid)
        .with("ts", ts)
}

fn metadata(tid: usize, name: &str, args: Value) -> Value {
    Value::object()
        .with("ph", "M")
        .with("pid", 0u64)
        .with("tid", tid)
        .with("name", name)
        .with("args", args)
}

impl Tracer {
    /// The recording as a Chrome Trace Event Format document whose
    /// `otherData` object is `other_data`. `trace_dump` uses it to
    /// embed the `ServiceReport` counters the trace must reconcile
    /// with.
    pub fn chrome_trace(&self, other_data: Value) -> Value {
        let mut events = Vec::with_capacity(1 + 2 * self.tracks().len() + self.events().len());
        events.push(
            Value::object()
                .with("ph", "M")
                .with("pid", 0u64)
                .with("name", "process_name")
                .with(
                    "args",
                    Value::object().with("name", "hipe (simulated cycles)"),
                ),
        );
        for (tid, track) in self.tracks().iter().enumerate() {
            let name = Value::object().with("name", track.name.as_str());
            events.push(metadata(tid, "thread_name", name));
            let index = Value::object().with("sort_index", tid);
            events.push(metadata(tid, "thread_sort_index", index));
        }
        for e in self.events() {
            match e {
                TraceEvent::Span { span, async_id } => {
                    let tid = span.track.index();
                    let name = span.name.as_str();
                    match self.tracks()[tid].kind {
                        TrackKind::Sync => {
                            debug_assert!(async_id.is_none());
                            events.push(
                                event("X", tid, span.begin_cycle)
                                    .with("dur", span.end_cycle - span.begin_cycle)
                                    .with("cat", "hipe")
                                    .with("name", name)
                                    .with("args", args(&span.args)),
                            );
                        }
                        TrackKind::Async => {
                            let id = async_id.expect("async spans carry an id");
                            events.push(
                                event("b", tid, span.begin_cycle)
                                    .with("id", id)
                                    .with("cat", "hipe")
                                    .with("name", name)
                                    .with("args", args(&span.args)),
                            );
                            events.push(
                                event("e", tid, span.end_cycle)
                                    .with("id", id)
                                    .with("cat", "hipe")
                                    .with("name", name),
                            );
                        }
                    }
                }
                TraceEvent::Instant {
                    track,
                    name,
                    at_cycle,
                    args: a,
                } => events.push(
                    event("i", track.index(), *at_cycle)
                        .with("s", "t")
                        .with("cat", "hipe")
                        .with("name", name.as_str())
                        .with("args", args(a)),
                ),
                TraceEvent::Counter {
                    track,
                    name,
                    at_cycle,
                    value,
                } => events.push(
                    event("C", track.index(), *at_cycle)
                        .with("cat", "hipe")
                        .with("name", name.as_str())
                        .with("args", Value::object().with("value", *value)),
                ),
            }
        }
        Value::object()
            .with("displayTimeUnit", "ms")
            .with("otherData", other_data)
            .with("traceEvents", events)
    }

    /// Renders the recording as Chrome Trace Event Format JSON.
    ///
    /// Each `(key, value)` pair of `other_data` becomes one member of
    /// the file's `otherData` object. Values are pre-rendered JSON
    /// (`"12"`, `"\"HIPE\""`) and are parsed into the document; a
    /// value that does not parse is stored as a JSON string, so the
    /// output is always valid JSON.
    pub fn to_chrome_json(&self, other_data: &[(&str, String)]) -> String {
        let other = other_data
            .iter()
            .map(|(key, value)| {
                let value = json::parse(value).unwrap_or_else(|_| Value::from(value.as_str()));
                (key.to_string(), value)
            })
            .collect();
        self.chrome_trace(Value::Object(other)).to_json()
    }
}

#[cfg(test)]
mod tests {
    use crate::json::{self, Value};
    use crate::{TraceSink, Tracer, TrackKind};

    fn sample() -> Tracer {
        let mut t = Tracer::new();
        let fe = t.track("front-end", TrackKind::Sync);
        let q = t.track("queries", TrackKind::Async);
        t.span_on(fe, "batch 0", 10, 30, vec![("queries", 4usize.into())]);
        t.span_on(q, "q0", 5, 90, vec![("tag", 1usize.into())]);
        t.instant(fe, "redispatch", 40, vec![("shard", 0usize.into())]);
        t.counter(fe, "batch_fill", 5, 2);
        t
    }

    #[test]
    fn renders_object_form_with_metadata_rows() {
        let json = sample().to_chrome_json(&[
            ("queries", "1".to_string()),
            ("label", "not json".to_string()),
        ]);
        let doc = json::parse(&json).expect("the writer emits valid JSON");
        let other = doc.get("otherData").expect("otherData object");
        assert_eq!(other.get("queries"), Some(&Value::Int(1)));
        // A pre-rendered value that does not parse is kept as a string.
        assert_eq!(other.get("label").and_then(Value::as_str), Some("not json"));
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events");
        let meta_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .map(|e| {
                let name = e.get("name").and_then(Value::as_str);
                let arg = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str);
                arg.or(name).expect("metadata records are named")
            })
            .collect();
        assert!(meta_names.contains(&"front-end"));
        assert!(meta_names.contains(&"queries"));
        assert!(meta_names.contains(&"thread_sort_index"));
    }

    #[test]
    fn sync_spans_are_complete_events_and_async_spans_are_pairs() {
        let doc = json::parse(&sample().to_chrome_json(&[])).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events");
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .collect::<Vec<_>>()
        };
        assert_eq!(phase("X").len(), 1);
        assert_eq!(phase("X")[0].get("dur"), Some(&Value::Int(20)));
        assert_eq!(phase("b").len(), 1);
        assert_eq!(phase("e").len(), 1);
        assert_eq!(phase("b")[0].get("id"), phase("e")[0].get("id"));
        assert_eq!(phase("i").len(), 1);
        assert_eq!(phase("C").len(), 1);
    }

    #[test]
    fn one_event_per_line() {
        let json = sample().to_chrome_json(&[]);
        let event_lines = json
            .lines()
            .filter(|l| l.trim_start().starts_with("{\"ph\""))
            .count();
        // 1 process_name + 2 tracks x 2 metadata + 1 X + b/e pair +
        // 1 instant + 1 counter.
        assert_eq!(event_lines, 10);
    }

    #[test]
    fn escapes_quotes_and_control_characters() {
        let mut t = Tracer::new();
        let s = t.track("a\"b\\c\n", TrackKind::Sync);
        t.span_on(s, "x\ty", 0, 1, vec![("label", "p\"q".into())]);
        let json = t.to_chrome_json(&[]);
        assert!(json.contains("a\\\"b\\\\c\\n"));
        assert!(json.contains("x\\ty"));
        assert!(json.contains("p\\\"q"));
        let doc = json::parse(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events");
        let track = events[1].get("args").and_then(|a| a.get("name"));
        assert_eq!(track.and_then(Value::as_str), Some("a\"b\\c\n"));
    }
}
