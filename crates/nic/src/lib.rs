//! # neat-nic — a simulated Intel 82599-style 10 GbE NIC
//!
//! NEaT "delegate[s] part of the data plane functionality to the hardware"
//! (§3.1): the NIC classifies every inbound packet and steers all packets of
//! a flow to the same queue — and therefore to the same stack replica. This
//! crate models the hardware features the paper relies on:
//!
//! * multiple RX/TX **queue pairs**, one pair per stack replica (§4);
//! * **RSS** — Toeplitz 5-tuple hashing with an indirection to N queues —
//!   and exact-match **flow-director filters** that override the hash
//!   (the 82599 "can hold up to 8 thousand filters");
//! * **TSO** — the host may hand the NIC an oversized TCP frame, which the
//!   hardware splits into MSS-sized segments on the wire;
//! * a full-duplex **link model** (serialization at 10 Gb/s + DAC latency)
//!   that provides the bandwidth ceiling of the paper's Figures 4–5;
//! * smoltcp-style **fault injection** (drop / corrupt / rate-limit /
//!   size-limit) used by the reliability experiments.
//!
//! The crate is pure hardware logic; the driver *process* that connects a
//! NIC to stack replicas lives in the `neat` crate.

#![forbid(unsafe_code)]

pub mod device;
pub mod faults;
pub mod link;
pub mod queue;
pub mod steer;
pub mod tso;

pub use device::{Nic, NicConfig, NicStats};
pub use faults::{FaultConfig, FaultInjector};
pub use link::LinkModel;
pub use queue::DescRing;
pub use steer::{ParsedFlow, Steering};
