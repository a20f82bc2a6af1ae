//! The benchmark's own host-time spans, recorded from outside the program:
//! one around each phase of a repetition and one around each call the
//! harness makes into a layer's public functions. Kept in memory and
//! written out (Chrome `trace_event` format) when the run ends. Spans
//! *inside* the program are the product's `Tracer` — and a later issue.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct HostSpan {
    /// Allocation order, from 1: a parent's id is below its children's.
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Simulated actor the call ran on (0 = the harness's main thread).
    pub lane: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// Span collector for one workload run. Disabled (the untraced run) it
/// records nothing and `enter` costs one branch.
pub struct HostSpans {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<HostSpan>>,
}

/// An open span; close it with [`HostSpans::exit`].
pub struct Open(Option<u64>);

impl Open {
    pub fn id(&self) -> Option<u64> {
        self.0
    }
}

impl HostSpans {
    pub fn new(enabled: bool) -> HostSpans {
        HostSpans {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span on the main lane.
    pub fn enter(&self, name: &'static str, parent: Option<u64>) -> Open {
        self.enter_on(name, parent, 0)
    }

    /// Opens a span on a simulated actor's lane.
    pub fn enter_on(&self, name: &'static str, parent: Option<u64>, lane: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let mut spans = self.spans.lock().expect("span lock never poisoned");
        let id = spans.len() as u64 + 1;
        let start_us = self.now_us();
        spans.push(HostSpan {
            id,
            parent,
            name,
            lane,
            start_us,
            end_us: start_us,
        });
        Open(Some(id))
    }

    pub fn exit(&self, open: Open) {
        if let Some(id) = open.0 {
            let end_us = self.now_us();
            self.spans.lock().expect("span lock never poisoned")[id as usize - 1].end_us = end_us;
        }
    }

    /// Runs `f` inside a main-lane span.
    pub fn scope<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, parent);
        let out = f();
        self.exit(open);
        out
    }

    pub fn take(&self) -> Vec<HostSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span lock never poisoned"))
    }
}

/// Chrome `trace_event` JSON of one workload run: one process (named
/// after the workload), one thread per lane, complete (`X`) events in
/// host microseconds with the span and parent ids in `args`.
pub fn chrome_trace(workload: &str, spans: &[HostSpan]) -> Json {
    let pid = Json::Num(1.0);
    let mut events = vec![Json::obj([
        ("ph", Json::str("M")),
        ("pid", pid.clone()),
        ("name", Json::str("process_name")),
        ("args", Json::obj([("name", Json::str(workload))])),
    ])];
    for s in spans {
        let mut args = vec![("id", Json::Num(s.id as f64))];
        if let Some(p) = s.parent {
            args.push(("parent", Json::Num(p as f64)));
        }
        events.push(Json::obj([
            ("ph", Json::str("X")),
            ("pid", pid.clone()),
            ("tid", Json::Num(s.lane as f64)),
            ("ts", Json::Num(s.start_us)),
            ("dur", Json::Num(s.end_us - s.start_us)),
            ("name", Json::str(s.name)),
            ("args", Json::obj(args)),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let spans = HostSpans::new(true);
        let rep = spans.enter("repetition", None);
        let inner = spans.scope("phase:setup", rep.id(), || {
            spans.enter_on("session", rep.id(), 7)
        });
        spans.exit(inner);
        spans.exit(rep);
        let got = spans.take();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].name, "repetition");
        assert_eq!(got[1].parent, Some(1));
        assert_eq!(got[2].lane, 7);
        assert!(got.iter().all(|s| s.end_us >= s.start_us));
        assert!(
            got[0].end_us >= got[1].end_us,
            "a parent outlives its child"
        );
        assert_eq!(got[1].name, "phase:setup");
        let trace = chrome_trace("commit-burst", &got).render();
        assert!(trace.contains("\"traceEvents\"") && trace.contains("\"ph\":\"X\""));
    }

    #[test]
    fn a_disabled_collector_records_nothing() {
        let spans = HostSpans::new(false);
        let open = spans.enter("repetition", None);
        assert_eq!(open.id(), None);
        spans.exit(open);
        assert!(spans.take().is_empty());
    }
}
