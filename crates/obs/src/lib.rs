//! # neat-obs — the unified observability layer
//!
//! Everything the system measures flows through this crate:
//!
//! * **Metrics** ([`metrics`]) — a thread-local registry of named
//!   counters, gauges, and histograms. Components register by name once
//!   and hold copyable handles; per-packet updates are a TLS access plus
//!   a vector index. [`snapshot`] renders every metric as JSON, and every
//!   `neat-bench` binary embeds that snapshot in its
//!   `results/BENCH_<name>.json` report.
//! * **Tracing** ([`trace`]) — a ring-buffered structured event tracer
//!   (dispatch spans, packet hops, TCP transitions, supervisor actions)
//!   exportable as chrome://tracing JSON. Off by default; zero-cost when
//!   disabled; never perturbs deterministic replay.
//! * **Stats primitives** ([`stats`]) — the log-bucketed [`Histogram`]
//!   and [`RateMeter`] that used to live in `neat_sim::stats`; the
//!   simulator re-exports `Time`-typed wrappers.
//!
//! The crate depends only on `neat-util` (for JSON), so every layer of
//! the workspace — simulator, NIC, TCP, NEaT core, monolith baseline,
//! applications — can report through it without dependency cycles.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod stats;
pub mod trace;

pub use metrics::{
    clear, counter, counter_add, gauge, gauge_set, histogram, reset, set_thread_enabled, snapshot,
    thread_enabled, Counter, Gauge, HistogramHandle,
};
pub use stats::{Histogram, RateMeter};
pub use trace::tracing;
