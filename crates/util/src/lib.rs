//! # neat-util — the zero-dependency foundation crate
//!
//! Everything in this workspace builds offline, from a clean checkout,
//! with no registry access. This crate owns the whole third-party surface
//! the repo used to import:
//!
//! * [`rng`] — a seedable xoshiro256\*\* PRNG (SplitMix64 seeding) with a
//!   `rand`-like surface and *stream splitting* for per-replica
//!   independence. Replaces `rand`.
//! * [`json`] — a small JSON value model and writer (serialize only).
//!   Replaces `serde`/`serde_json` for results emission.
//! * [`check`] — a quickcheck-style property-test harness: seeded case
//!   generation, failure-seed reporting, greedy shrinking. Replaces
//!   `proptest`.
//! * [`bench`] — a monotonic-timer micro-benchmark runner with a
//!   criterion-shaped API. Replaces `criterion`.
//! * [`hash`] — rustc-style FxHash plus deterministic `HashMap`/`HashSet`
//!   aliases for hot-path id-keyed maps. Replaces `rustc-hash`/`fxhash`.
//!
//! Determinism is a correctness feature here, not a convenience: the DES
//! reproduction of NEaT depends on bit-reproducible RNG streams for fault
//! injection and RSS steering, so `rng` guarantees that the same seed
//! always yields the same stream on every platform (no `HashMap` ordering,
//! no OS entropy, no time-of-day anywhere in this crate).

#![forbid(unsafe_code)]

pub mod bench;
pub mod check;
pub mod hash;
pub mod json;
pub mod rng;

pub use check::{check, Config as CheckConfig, Shrink, TestResult};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use json::{Json, ToJson};
pub use rng::Rng;
