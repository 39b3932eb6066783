//! Packet classification and steering: RSS hashing with an indirection
//! table, overridden by exact-match flow-director filters.
//!
//! This is the mechanism that lets NEaT keep every packet of a connection on
//! the path to the same replica (Figure 2) without any inter-replica
//! communication: "the NIC driver can thus dispatch the packets to the right
//! replica based on the receive queue of the NIC" (§3.1).

use neat_net::ethernet::{EtherType, EthernetFrame};
use neat_net::ipv4::{IpProtocol, Ipv4Header};
use neat_net::wire::get_u16;
use neat_net::{FlowKey, RssHasher};
use std::collections::HashMap;

/// The flow fields extracted from a frame for classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedFlow {
    pub key: FlowKey,
    /// True for TCP SYN-only segments (new inbound connections) — the
    /// driver uses this to learn flow→queue mappings.
    pub is_syn: bool,
    /// True for RST segments (tracking filters are torn down).
    pub is_rst: bool,
}

/// Classifier state: hash + filters + queue count.
#[derive(Debug)]
pub struct Steering {
    rss: RssHasher,
    /// Exact-match filters: flow → (queue, last-seen ns). The 82599 holds
    /// ~8k of these; idle entries expire like ATR's sampled filters.
    filters: HashMap<FlowKey, (usize, u64)>,
    max_filters: usize,
    /// Learn a tracking filter from every new flow's SYN — the hardware
    /// extension §4 argues for ("ensure all the corresponding packets of
    /// each flow follow the same route"), which makes the scale-up/down
    /// protocol of §3.4 keep existing connections intact.
    pub track_flows: bool,
    /// Idle tracking filters older than this are reclaimable.
    filter_idle_ns: u64,
    /// No filter can be reclaimable before this instant: a lower bound on
    /// every filter's last-seen + idle, so a full table skips the sweep
    /// until something can actually have expired. Refreshing a filter
    /// only moves its last-seen forward (the NIC's clock is monotonic),
    /// so only new entries can lower the bound.
    next_expiry: u64,
    num_queues: usize,
    /// Which queues currently accept *new* flows (termination-state
    /// replicas are excluded here per §3.4's lazy scale-down).
    accepting: Vec<bool>,
}

impl Steering {
    pub fn new(num_queues: usize) -> Steering {
        Steering {
            rss: RssHasher::default(),
            filters: HashMap::new(),
            max_filters: 8_192,
            track_flows: true,
            filter_idle_ns: 10_000_000_000,
            next_expiry: u64::MAX,
            num_queues,
            accepting: vec![true; num_queues],
        }
    }

    pub fn num_queues(&self) -> usize {
        self.num_queues
    }

    /// Extract the flow 5-tuple from an Ethernet frame carrying IPv4 TCP
    /// or UDP. Non-IP and non-TCP/UDP traffic goes to queue 0 by default.
    pub fn parse_flow(frame: &[u8]) -> Option<ParsedFlow> {
        let (eth, off) = EthernetFrame::parse(frame).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let (ip, payload) = Ipv4Header::parse(&frame[off..]).ok()?;
        let l4 = &frame[off..][payload];
        match ip.protocol {
            IpProtocol::Tcp | IpProtocol::Udp => {
                if l4.len() < 14 {
                    return None;
                }
                let src_port = get_u16(l4, 0);
                let dst_port = get_u16(l4, 2);
                let flags = if ip.protocol == IpProtocol::Tcp {
                    l4[13]
                } else {
                    0
                };
                let is_syn = flags & 0x02 != 0 && flags & 0x10 == 0;
                let is_rst = flags & 0x04 != 0;
                Some(ParsedFlow {
                    key: FlowKey {
                        src: ip.src,
                        dst: ip.dst,
                        src_port,
                        dst_port,
                        protocol: u8::from(ip.protocol),
                    },
                    is_syn,
                    is_rst,
                })
            }
            _ => None,
        }
    }

    /// Classify a frame to a queue. Filters take precedence over the RSS
    /// hash. New flows (no filter) are steered by hashing over the queues
    /// currently accepting new connections.
    pub fn classify(&self, frame: &[u8]) -> usize {
        let Some(flow) = Self::parse_flow(frame) else {
            return 0;
        };
        if let Some(&(q, _)) = self.filters.get(&flow.key) {
            return q;
        }
        self.hash_accepting(&flow.key)
    }

    fn hash_accepting(&self, key: &FlowKey) -> usize {
        let accepting: Vec<usize> = self
            .accepting
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(i, _)| i)
            .collect();
        if accepting.is_empty() {
            return self.rss.queue_for(key, self.num_queues);
        }
        let idx = self.rss.queue_for(key, accepting.len());
        accepting[idx]
    }

    /// Classify with flow tracking (the data-plane fast path of a tracking
    /// NIC): new flows get a filter pinning them to the chosen queue; RSTs
    /// tear the filter down; idle filters expire.
    pub fn classify_track(&mut self, frame: &[u8], now_ns: u64) -> usize {
        let Some(flow) = Self::parse_flow(frame) else {
            return 0;
        };
        if let Some(entry) = self.filters.get_mut(&flow.key) {
            let q = entry.0;
            entry.1 = now_ns;
            if flow.is_rst {
                self.filters.remove(&flow.key);
            }
            return q;
        }
        let q = self.hash_accepting(&flow.key);
        if self.track_flows && flow.is_syn {
            if self.filters.len() >= self.max_filters && now_ns >= self.next_expiry {
                // Reclaim idle entries (connections long gone).
                let idle = self.filter_idle_ns;
                let mut next = u64::MAX;
                self.filters.retain(|_, (_, seen)| {
                    let keep = now_ns.saturating_sub(*seen) < idle;
                    if keep {
                        next = next.min(seen.saturating_add(idle));
                    }
                    keep
                });
                self.next_expiry = next;
            }
            if self.filters.len() < self.max_filters {
                self.filters.insert(flow.key, (q, now_ns));
                self.note_seen(now_ns);
            }
        }
        q
    }

    /// A filter was installed with last-seen `seen`: keep `next_expiry` a
    /// lower bound of every filter's expiry.
    fn note_seen(&mut self, seen: u64) {
        self.next_expiry = self
            .next_expiry
            .min(seen.saturating_add(self.filter_idle_ns));
    }

    /// Install an exact-match filter (software-configured, like the real
    /// flow director). Returns false when the filter table is full.
    pub fn add_filter(&mut self, key: FlowKey, queue: usize) -> bool {
        if self.filters.len() >= self.max_filters && !self.filters.contains_key(&key) {
            return false;
        }
        self.filters.insert(key, (queue, 0));
        self.note_seen(0);
        true
    }

    pub fn remove_filter(&mut self, key: &FlowKey) {
        self.filters.remove(key);
    }

    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }

    /// Mark a queue as (not) accepting new flows — the lazy-termination
    /// control of §3.4: "instruct the NIC to distribute new connections
    /// only to replicas in nontermination state but continue to serve
    /// packets on existing connections".
    pub fn set_accepting(&mut self, queue: usize, accepting: bool) {
        self.accepting[queue] = accepting;
    }

    pub fn is_accepting(&self, queue: usize) -> bool {
        self.accepting[queue]
    }

    /// Grow the queue set (scale-up, §3.4).
    pub fn grow(&mut self, num_queues: usize) {
        assert!(num_queues >= self.num_queues);
        self.accepting.resize(num_queues, true);
        self.num_queues = num_queues;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_net::tcp::{TcpFlags, TcpHeader};
    use neat_net::{MacAddr, SeqNum};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);

    fn tcp_frame(src_port: u16, flags: TcpFlags) -> Vec<u8> {
        let tcp = TcpHeader::new(src_port, 80, SeqNum(1), SeqNum(0), flags).emit(&[], SRC, DST);
        let ip = Ipv4Header::new(SRC, DST, IpProtocol::Tcp, tcp.len()).emit(&tcp);
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        }
        .emit(&ip)
    }

    #[test]
    fn parse_flow_extracts_tuple() {
        let f = Steering::parse_flow(&tcp_frame(5555, TcpFlags::SYN)).unwrap();
        assert_eq!(f.key.src, SRC);
        assert_eq!(f.key.dst, DST);
        assert_eq!(f.key.src_port, 5555);
        assert_eq!(f.key.dst_port, 80);
        assert!(f.is_syn);
        let f2 = Steering::parse_flow(&tcp_frame(5555, TcpFlags::ack())).unwrap();
        assert!(!f2.is_syn);
    }

    #[test]
    fn same_flow_same_queue() {
        let s = Steering::new(4);
        let frame = tcp_frame(1234, TcpFlags::SYN);
        let q = s.classify(&frame);
        let frame2 = tcp_frame(1234, TcpFlags::ack());
        assert_eq!(
            s.classify(&frame2),
            q,
            "every packet of a flow → same queue"
        );
    }

    #[test]
    fn filters_override_hash() {
        let mut s = Steering::new(4);
        let frame = tcp_frame(4242, TcpFlags::SYN);
        let hashed = s.classify(&frame);
        let flow = Steering::parse_flow(&frame).unwrap().key;
        let forced = (hashed + 1) % 4;
        assert!(s.add_filter(flow, forced));
        assert_eq!(s.classify(&frame), forced);
        s.remove_filter(&flow);
        assert_eq!(s.classify(&frame), hashed);
    }

    #[test]
    fn non_accepting_queue_excluded_for_new_flows() {
        let mut s = Steering::new(2);
        s.set_accepting(1, false);
        for p in 1024..1124 {
            let q = s.classify(&tcp_frame(p, TcpFlags::SYN));
            assert_eq!(q, 0, "all new flows must go to the accepting queue");
        }
        // Existing flows with filters still reach the draining queue.
        let frame = tcp_frame(9999, TcpFlags::ack());
        let flow = Steering::parse_flow(&frame).unwrap().key;
        s.add_filter(flow, 1);
        assert_eq!(s.classify(&frame), 1);
    }

    #[test]
    fn flows_balance_across_queues() {
        let s = Steering::new(4);
        let mut counts = [0usize; 4];
        for p in 1024..3072u16 {
            counts[s.classify(&tcp_frame(p, TcpFlags::SYN))] += 1;
        }
        for c in counts {
            assert!(c > 2048 / 4 / 2, "queue starved: {counts:?}");
        }
    }

    #[test]
    fn grow_adds_queues() {
        let mut s = Steering::new(1);
        for p in 0..64 {
            assert_eq!(s.classify(&tcp_frame(p + 1024, TcpFlags::SYN)), 0);
        }
        s.grow(3);
        let mut seen = std::collections::HashSet::new();
        for p in 0..256 {
            seen.insert(s.classify(&tcp_frame(p + 2048, TcpFlags::SYN)));
        }
        assert_eq!(seen.len(), 3, "new queues receive flows after grow");
    }

    #[test]
    fn filter_table_capacity() {
        let mut s = Steering::new(2);
        s.max_filters = 4;
        for i in 0..4u16 {
            let key = FlowKey::tcp(SRC, 1000 + i, DST, 80);
            assert!(s.add_filter(key, 0));
        }
        assert!(!s.add_filter(FlowKey::tcp(SRC, 2000, DST, 80), 0));
        assert_eq!(s.filter_count(), 4);
    }

    /// A full table skips the idle sweep until a filter can have expired,
    /// and steers every frame exactly as a table that sweeps on every new
    /// flow's SYN (a `Steering` whose expiry bound is reset to 0 before
    /// each frame).
    #[test]
    fn full_table_matches_sweeping_table() {
        let mut fast = Steering::new(4);
        let mut sweeping = Steering::new(4);
        for s in [&mut fast, &mut sweeping] {
            s.max_filters = 64;
            s.filter_idle_ns = 1_000;
            // A software filter starts at last-seen 0.
            s.add_filter(FlowKey::tcp(SRC, 7, DST, 80), 3);
        }
        let mut port = 1024u16;
        for step in 0..2_000u64 {
            let now = step * 7;
            let frame = match step % 7 {
                // Refresh an older flow; some of them are long gone.
                3 => tcp_frame(1025 + (step % 90) as u16, TcpFlags::ack()),
                5 if step % 3 == 0 => tcp_frame(1025 + (step % 70) as u16, TcpFlags::rst()),
                _ => {
                    port += 1;
                    tcp_frame(port, TcpFlags::SYN)
                }
            };
            if step % 97 == 0 {
                // A software filter mid-run: last-seen 0, so it is
                // reclaimable at the next sweep.
                let key = FlowKey::tcp(SRC, 60_000 + step as u16, DST, 80);
                assert_eq!(fast.add_filter(key, 1), sweeping.add_filter(key, 1));
            }
            sweeping.next_expiry = 0;
            let q = fast.classify_track(&frame, now);
            assert_eq!(q, sweeping.classify_track(&frame, now), "step {step}");
            assert_eq!(fast.filter_count(), sweeping.filter_count(), "step {step}");
            assert_eq!(fast.filters, sweeping.filters, "step {step}");
        }
        assert_eq!(fast.filter_count(), 64, "the table stays full");
    }

    #[test]
    fn filter_aged_past_idle_is_reclaimed() {
        let mut s = Steering::new(2);
        s.max_filters = 4;
        s.filter_idle_ns = 1_000;
        for p in 0..4u16 {
            s.classify_track(&tcp_frame(2000 + p, TcpFlags::SYN), 100 * p as u64);
        }
        assert_eq!(s.filter_count(), 4);
        // Full, nothing idle yet: the new flow is steered but not pinned.
        let late = tcp_frame(3000, TcpFlags::SYN);
        s.classify_track(&late, 999);
        assert_eq!(s.filter_count(), 4);
        assert!(s.next_expiry > 999, "no sweep before the first expiry");
        // The first filter (last seen at 0) is idle at 1000.
        s.classify_track(&late, 1_000);
        let first = Steering::parse_flow(&tcp_frame(2000, TcpFlags::SYN))
            .unwrap()
            .key;
        let late_key = Steering::parse_flow(&late).unwrap().key;
        assert!(!s.filters.contains_key(&first), "idle filter reclaimed");
        assert!(s.filters.contains_key(&late_key), "new flow pinned");
        assert_eq!(s.filter_count(), 4);
        assert_eq!(s.next_expiry, 1_100, "next expiry: the flow seen at 100");
    }

    #[test]
    fn garbage_frames_default_queue() {
        let s = Steering::new(4);
        assert_eq!(s.classify(&[0u8; 10]), 0);
        assert_eq!(s.classify(&[0u8; 100]), 0);
    }
}
