//! # neat-net — from-scratch wire formats for the NEaT network stack
//!
//! Every byte that crosses the simulated 10 GbE link in this reproduction is
//! a real frame built and parsed by this crate: Ethernet II, ARP, IPv4
//! (with fragmentation), ICMPv4, UDP, and TCP (with options). Checksums are
//! computed and validated exactly as on the wire, which is what lets the
//! NIC-level fault injector corrupt packets and have the stack detect it.
//!
//! The crate also provides the flow abstractions the NEaT design leans on:
//! the 5-tuple [`flow::FlowKey`] and the Toeplitz RSS hash the simulated
//! 82599 NIC uses to steer each connection to one stack replica (§3.1, §4),
//! and a pcap writer for inspecting simulated traffic in Wireshark.

#![forbid(unsafe_code)]

pub mod arp;
pub mod checksum;
pub mod ethernet;
pub mod flow;
pub mod icmp;
pub mod ipv4;
pub mod pcap;
pub mod pktbuf;
pub mod tcp;
pub mod udp;
pub mod wire;

pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use flow::{FlowKey, RssHasher};
pub use ipv4::{IpProtocol, Ipv4Header};
pub use pktbuf::PktBuf;
pub use tcp::{SeqNum, TcpFlags, TcpHeader};
pub use wire::{NetError, NetResult};
