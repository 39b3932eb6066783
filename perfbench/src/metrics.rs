//! The benchmark's own arithmetic: failure accounting, span self time,
//! the replay-attribution residual and metric-name validation. Kept free
//! of simulation types so it is testable alone.

use neat_util::Json;

/// Client-side outcome counts over a measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorCounts {
    /// Responses received, including those on connections that later
    /// errored.
    pub completed: u64,
    /// Connections that errored (timeout, reset, replica crash). Each
    /// had one request outstanding that never completed.
    pub conn_errors: u64,
    /// Completed requests that httperf dismissed because their
    /// connection later errored.
    pub dismissed: u64,
    /// Connection slots a generator lost to a refused `connect`.
    pub stalled_slots: u64,
}

impl ErrorCounts {
    /// Requests attempted: every response received plus one outstanding
    /// request per errored connection and per stalled slot.
    pub fn attempted(&self) -> u64 {
        self.completed + self.conn_errors + self.stalled_slots
    }

    /// Requests that failed: the outstanding ones that never completed,
    /// plus the completed ones httperf dismissed with their connection.
    pub fn failed(&self) -> u64 {
        self.conn_errors + self.dismissed.min(self.completed) + self.stalled_slots
    }
}

/// A recorded span: `[start, end)` in host nanoseconds since the
/// recorder started, with the id of the span that contains it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub args: Vec<(String, f64)>,
}

/// Id of the implicit root that top-level spans hang from.
pub const ROOT: u32 = 0;

/// Self time of span `id`: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let Some(s) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == id && c.id != id)
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (s.end_ns - s.start_ns).saturating_sub(covered)
}

/// Host ns per request that no layer replay accounts for: the measured
/// window cost per request minus Σ (replay ns per op × ops per request).
pub fn unattributed_ns_per_req(window_ns_per_req: f64, layers: &[(f64, f64)]) -> f64 {
    window_ns_per_req - layers.iter().map(|(ns, ops)| ns * ops).sum::<f64>()
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `num ÷ den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Current value of an observability counter (registered on first read).
pub fn obs_counter(name: &str) -> u64 {
    neat_obs::counter(name).get()
}

/// Every registered counter and gauge, by name, in registration order.
pub fn obs_values() -> Vec<(String, f64)> {
    let snap = neat_obs::snapshot();
    let mut out = Vec::new();
    for kind in ["counters", "gauges"] {
        if let Some(fields) = snap.get(kind).and_then(Json::as_object) {
            for (k, v) in fields {
                if let Some(x) = v.as_f64() {
                    out.push((k.clone(), x));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn failures_and_attempts_count_each_lost_request_once() {
        let none = ErrorCounts::default();
        assert_eq!(none.attempted(), 0);

        let clean = ErrorCounts {
            completed: 1_000,
            ..ErrorCounts::default()
        };
        assert_eq!(clean.attempted(), 1_000);
        assert_eq!(clean.failed(), 0);

        // 990 responses, 5 of them dismissed with their connection; 4
        // errored connections each with one request lost; 6 slots dead.
        let c = ErrorCounts {
            completed: 990,
            conn_errors: 4,
            dismissed: 5,
            stalled_slots: 6,
        };
        assert_eq!(c.attempted(), 1_000);
        assert_eq!(c.failed(), 15);

        // Dismissals can name requests completed before the window; they
        // never count for more than the window completed.
        let d = ErrorCounts {
            completed: 2,
            conn_errors: 1,
            dismissed: 9,
            stalled_slots: 0,
        };
        assert_eq!(d.failed(), 3);
        assert_eq!(d.attempted(), 3);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps span 2: union is 10..50
            span(4, 1, 90, 120), // clipped to the parent: 90..100
            span(5, 2, 12, 14),  // grandchild: not a direct child of 1
        ];
        assert_eq!(self_time_ns(&spans, 1), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 2), 20 - 2);
        assert_eq!(self_time_ns(&spans, 5), 2);
        assert_eq!(self_time_ns(&spans, 99), 0);
    }

    #[test]
    fn residual_subtracts_each_attributed_layer() {
        assert_eq!(unattributed_ns_per_req(1_000.0, &[]), 1_000.0);
        let layers = [(50.0, 4.0), (100.0, 2.5), (10.0, 0.0)];
        assert!((unattributed_ns_per_req(1_000.0, &layers) - 550.0).abs() < 1e-9);
        // Over-attribution shows as a negative residual, not a clamp.
        assert!(unattributed_ns_per_req(100.0, &layers) < 0.0);
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for ok in [
            "setup_s",
            "sim.events_per_req",
            "tcp.replay_ns_per_seg",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "p99/us", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }
}
