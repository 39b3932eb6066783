//! In-memory span recorder for the traced run. Spans are taken around
//! calls into the program from the benchmark's own code; nothing inside
//! the program is instrumented. Disabled, every call is a no-op.

use crate::metrics::{Span, ROOT};
use neat_obs::trace::{Phase, TraceEvent};
use neat_util::{Json, ToJson};
use std::time::Instant;

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`; returns its id (0 when disabled).
    pub fn begin(&mut self, name: &str, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            args: Vec::new(),
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        if id == ROOT {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Attach a count to an open or closed span.
    pub fn arg(&mut self, id: u32, key: &str, v: f64) {
        if id != ROOT {
            self.spans[id as usize - 1].args.push((key.to_string(), v));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON in the shape `neat_obs::trace` emits, with
    /// each span's id, parent id and counts under `args`.
    pub fn to_chrome_json(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let ev = TraceEvent {
                    ts_ns: s.start_ns,
                    dur_ns: s.end_ns - s.start_ns,
                    ph: Phase::Complete,
                    name: s.name.clone(),
                    cat: "perfbench",
                    tid: 0,
                };
                let mut args = Json::object()
                    .field("id", s.id as u64)
                    .field("parent", s.parent as u64);
                for (k, v) in &s.args {
                    args = args.field(k.clone(), *v);
                }
                ev.to_json().field("args", args)
            })
            .collect();
        Json::object()
            .field("traceEvents", Json::Array(events))
            .field("displayTimeUnit", "ns")
    }
}
