//! TCP segmentation offload: the host hands the NIC one oversized TCP
//! frame; the hardware cuts it into MSS-sized wire segments, fixing up
//! sequence numbers, lengths, flags, and checksums.
//!
//! The paper's testbed relies on this ("TSO … greatly improves performance
//! and allows smaller configurations to reach a full 10Gb/s", §6).

use neat_net::ethernet::{EtherType, EthernetFrame, ETHERNET_HEADER_LEN};
use neat_net::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use neat_net::tcp::{TcpHeader, TCP_HEADER_LEN};
use neat_net::PktBuf;

/// [`tso_split`] on pooled buffers: frames that need no split pass the
/// original handle through untouched (zero-copy fast path); oversized
/// frames materialize fresh per-segment buffers.
pub fn tso_split_pkt(frame: PktBuf, mss: usize) -> Vec<PktBuf> {
    match split(&frame, mss) {
        Some(pieces) => pieces.into_iter().map(PktBuf::from_vec).collect(),
        None => vec![frame],
    }
}

/// Split an Ethernet frame carrying an oversized IPv4/TCP payload into
/// MSS-sized frames. Non-TCP frames, frames already within `mss` and
/// frames that fail verification pass through unchanged.
pub fn tso_split(frame: Vec<u8>, mss: usize) -> Vec<Vec<u8>> {
    split(&frame, mss).unwrap_or_else(|| vec![frame])
}

/// Parse and verify `frame` once; `None` when it is not an IPv4/TCP frame
/// with payload beyond `mss`. Each piece is built in one pass: the header
/// templates, one copy of its payload slice and one TCP checksum.
fn split(frame: &[u8], mss: usize) -> Option<Vec<Vec<u8>>> {
    let (eth, ip_off) = EthernetFrame::parse(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let (ip, l4_range) = Ipv4Header::parse(&frame[ip_off..]).ok()?;
    if ip.protocol != IpProtocol::Tcp {
        return None;
    }
    let l4 = &frame[ip_off..][l4_range];
    let (tcp, payload_range) = TcpHeader::parse(l4, ip.src, ip.dst).ok()?;
    let payload = &l4[payload_range];
    if payload.len() <= mss {
        return None;
    }

    let mut out = Vec::with_capacity(payload.len().div_ceil(mss));
    let mut off = 0;
    while off < payload.len() {
        let end = (off + mss).min(payload.len());
        let last = end == payload.len();
        let mut h = tcp;
        h.seq = tcp.seq + off as u32;
        // FIN/PSH only on the final segment.
        h.flags.fin = tcp.flags.fin && last;
        h.flags.psh = tcp.flags.psh && last;
        // Options (MSS/wscale) belong to SYN segments only; data frames
        // here never carry them, but clear defensively.
        h.mss = None;
        h.window_scale = None;
        let seg_len = TCP_HEADER_LEN + end - off;
        let mut piece = Vec::with_capacity(ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + seg_len);
        eth.emit_header_into(&mut piece);
        Ipv4Header::new(ip.src, ip.dst, IpProtocol::Tcp, seg_len)
            .emit_header_into(seg_len, &mut piece);
        h.emit_into(&payload[off..end], ip.src, ip.dst, &mut piece);
        out.push(piece);
        off = end;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_net::tcp::TcpFlags;
    use neat_net::{MacAddr, SeqNum};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn build(payload: &[u8], flags: TcpFlags) -> Vec<u8> {
        let tcp = TcpHeader::new(1234, 80, SeqNum(1000), SeqNum(50), flags).emit(payload, SRC, DST);
        let ip = Ipv4Header::new(SRC, DST, IpProtocol::Tcp, tcp.len()).emit(&tcp);
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        }
        .emit(&ip)
    }

    fn parse_seg(frame: &[u8]) -> (TcpHeader, Vec<u8>) {
        let (_, off) = EthernetFrame::parse(frame).unwrap();
        let (ip, r) = Ipv4Header::parse(&frame[off..]).unwrap();
        let l4 = &frame[off..][r];
        let (h, pr) = TcpHeader::parse(l4, ip.src, ip.dst).unwrap();
        (h, l4[pr].to_vec())
    }

    #[test]
    fn small_frame_passthrough() {
        let f = build(b"tiny", TcpFlags::psh_ack());
        let out = tso_split(f.clone(), 1460);
        assert_eq!(out, vec![f]);
    }

    #[test]
    fn oversized_frame_splits_with_correct_seqs() {
        let payload: Vec<u8> = (0..4000u32).map(|i| (i % 256) as u8).collect();
        let f = build(&payload, TcpFlags::psh_ack());
        let out = tso_split(f, 1460);
        assert_eq!(out.len(), 3);
        let mut reassembled = Vec::new();
        let mut expect_seq = SeqNum(1000);
        for (i, frame) in out.iter().enumerate() {
            let (h, p) = parse_seg(frame);
            assert_eq!(h.seq, expect_seq, "segment {i} sequence");
            assert!(h.flags.ack);
            let last = i == out.len() - 1;
            assert_eq!(h.flags.psh, last, "PSH only on the last segment");
            expect_seq += p.len() as u32;
            reassembled.extend_from_slice(&p);
        }
        assert_eq!(reassembled, payload);
    }

    #[test]
    fn fin_only_on_last() {
        let payload = vec![7u8; 3000];
        let f = build(&payload, TcpFlags::fin_ack());
        let out = tso_split(f, 1460);
        assert!(out.len() > 1);
        for (i, frame) in out.iter().enumerate() {
            let (h, _) = parse_seg(frame);
            assert_eq!(h.flags.fin, i == out.len() - 1);
        }
    }

    #[test]
    fn checksums_valid_after_split() {
        // parse_seg would fail on a bad checksum; also verify IP header.
        let payload = vec![1u8; 5000];
        let f = build(&payload, TcpFlags::psh_ack());
        for frame in tso_split(f, 1000) {
            let (_, off) = EthernetFrame::parse(&frame).unwrap();
            assert!(Ipv4Header::parse(&frame[off..]).is_ok());
            parse_seg(&frame);
        }
    }

    // --- golden equivalence against the copy-per-layer builders ------------

    /// The frame builders as they were before the one-pass `*_into` forms:
    /// each layer emits into a fresh buffer that the next layer copies.
    mod oracle {
        use neat_net::checksum::{checksum, pseudo_header};
        use neat_net::ethernet::EthernetFrame;
        use neat_net::ipv4::Ipv4Header;
        use neat_net::tcp::TcpHeader;
        use neat_net::wire::{set_u16, set_u32};
        use std::net::Ipv4Addr;

        pub fn tcp(h: &TcpHeader, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
            let mut opts: Vec<u8> = Vec::new();
            if let Some(mss) = h.mss {
                opts.extend_from_slice(&[2, 4]);
                opts.extend_from_slice(&mss.to_be_bytes());
            }
            if let Some(ws) = h.window_scale {
                opts.extend_from_slice(&[3, 3, ws, 1]);
            }
            while !opts.len().is_multiple_of(4) {
                opts.push(1);
            }
            let data_off = 20 + opts.len();
            let mut b = vec![0u8; 20];
            set_u16(&mut b, 0, h.src_port);
            set_u16(&mut b, 2, h.dst_port);
            set_u32(&mut b, 4, h.seq.0);
            set_u32(&mut b, 8, h.ack.0);
            b[12] = ((data_off / 4) as u8) << 4;
            b[13] = (h.flags.fin as u8)
                | (h.flags.syn as u8) << 1
                | (h.flags.rst as u8) << 2
                | (h.flags.psh as u8) << 3
                | (h.flags.ack as u8) << 4
                | (h.flags.urg as u8) << 5;
            set_u16(&mut b, 14, h.window);
            b.extend_from_slice(&opts);
            b.extend_from_slice(payload);
            let mut c = pseudo_header(src, dst, 6, b.len() as u16);
            c.add(&b);
            let csum = c.finish();
            set_u16(&mut b, 16, csum);
            b
        }

        pub fn ip(h: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
            let mut b = vec![0u8; 20];
            b[0] = 0x45;
            set_u16(&mut b, 2, (20 + payload.len()) as u16);
            set_u16(&mut b, 4, h.ident);
            let mut ff = (h.frag_offset / 8) & 0x1FFF;
            if h.dont_frag {
                ff |= 0x4000;
            }
            if h.more_frags {
                ff |= 0x2000;
            }
            set_u16(&mut b, 6, ff);
            b[8] = h.ttl;
            b[9] = u8::from(h.protocol);
            b[12..16].copy_from_slice(&h.src.octets());
            b[16..20].copy_from_slice(&h.dst.octets());
            let c = checksum(&b);
            set_u16(&mut b, 10, c);
            b.extend_from_slice(payload);
            b
        }

        pub fn eth(f: &EthernetFrame, payload: &[u8]) -> Vec<u8> {
            let mut out = f.dst.0.to_vec();
            out.extend_from_slice(&f.src.0);
            out.extend_from_slice(&u16::from(f.ethertype).to_be_bytes());
            out.extend_from_slice(payload);
            out
        }

        /// `eth(ip(tcp(..)))`: the old copy-per-layer chain.
        pub fn frame(
            f: &EthernetFrame,
            h: &TcpHeader,
            payload: &[u8],
            src: Ipv4Addr,
            dst: Ipv4Addr,
        ) -> Vec<u8> {
            let seg = tcp(h, payload, src, dst);
            let hdr = Ipv4Header::new(src, dst, super::IpProtocol::Tcp, seg.len());
            eth(f, &ip(&hdr, &seg))
        }
    }

    fn eth_hdr() -> EthernetFrame {
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        }
    }

    /// Every header shape the stack emits: plain data, SYN with MSS and
    /// window scale, each option alone, FIN.
    fn headers() -> Vec<TcpHeader> {
        let mut syn = TcpHeader::new(1234, 80, SeqNum(u32::MAX - 3), SeqNum(0), TcpFlags::SYN);
        syn.mss = Some(1460);
        syn.window_scale = Some(7);
        let mut mss_only = TcpHeader::new(80, 1234, SeqNum(9), SeqNum(1), TcpFlags::syn_ack());
        mss_only.mss = Some(536);
        let mut ws_only = mss_only;
        ws_only.mss = None;
        ws_only.window_scale = Some(14);
        let mut data = TcpHeader::new(1234, 80, SeqNum(1000), SeqNum(50), TcpFlags::psh_ack());
        data.window = 4321;
        let fin = TcpHeader::new(1234, 80, SeqNum(7), SeqNum(8), TcpFlags::fin_ack());
        vec![syn, mss_only, ws_only, data, fin]
    }

    #[test]
    fn one_pass_builders_match_copy_per_layer_chain() {
        for h in headers() {
            for len in [0usize, 1, 3, 20, 1459, 1460, 1461, 2921] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                let want = oracle::frame(&eth_hdr(), &h, &payload, SRC, DST);
                // The public wrappers, chained as before.
                let tcp = h.emit(&payload, SRC, DST);
                assert_eq!(tcp, oracle::tcp(&h, &payload, SRC, DST));
                let ip = Ipv4Header::new(SRC, DST, IpProtocol::Tcp, tcp.len()).emit(&tcp);
                assert_eq!(eth_hdr().emit(&ip), want, "chain, len {len}, {h:?}");
                // One buffer, one pass.
                let mut f = Vec::new();
                eth_hdr().emit_header_into(&mut f);
                Ipv4Header::new(SRC, DST, IpProtocol::Tcp, tcp.len())
                    .emit_header_into(tcp.len(), &mut f);
                h.emit_into(&payload, SRC, DST, &mut f);
                assert_eq!(f, want, "one pass, len {len}, {h:?}");
            }
        }
    }

    /// The old split: parse, then each piece through the copy-per-layer
    /// chain.
    fn oracle_split(frame: &[u8], mss: usize) -> Vec<Vec<u8>> {
        let (tcp, payload) = parse_seg(frame);
        payload
            .chunks(mss)
            .enumerate()
            .map(|(i, p)| {
                let last = (i + 1) * mss >= payload.len();
                let mut h = tcp;
                h.seq = tcp.seq + (i * mss) as u32;
                h.flags.fin = tcp.flags.fin && last;
                h.flags.psh = tcp.flags.psh && last;
                h.mss = None;
                h.window_scale = None;
                oracle::frame(&eth_hdr(), &h, p, SRC, DST)
            })
            .collect()
    }

    #[test]
    fn split_matches_copy_per_layer_split() {
        let mss = 1460;
        for len in [1461usize, 2920, 2921, 4000, 61_000, 64_000] {
            for flags in [TcpFlags::psh_ack(), TcpFlags::fin_ack(), TcpFlags::ack()] {
                let burst: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let f = build(&burst, flags);
                let out = tso_split(f.clone(), mss);
                assert_eq!(out, oracle_split(&f, mss), "len {len}, {flags}");
                let pkts: Vec<Vec<u8>> = tso_split_pkt(PktBuf::from_vec(f), mss)
                    .iter()
                    .map(|p| p.to_vec())
                    .collect();
                assert_eq!(pkts, out);
                assert_eq!(out.len(), len.div_ceil(mss));
                let mut joined = Vec::new();
                for (i, frame) in out.iter().enumerate() {
                    // parse_seg verifies the IPv4 and TCP checksums.
                    let (h, p) = parse_seg(frame);
                    let last = i + 1 == out.len();
                    assert_eq!(h.flags.fin, flags.fin && last);
                    assert_eq!(h.flags.psh, flags.psh && last);
                    assert_eq!(p.len(), if last { len - i * mss } else { mss });
                    joined.extend_from_slice(&p);
                }
                assert_eq!(joined, burst);
            }
        }
    }

    #[test]
    fn burst_failing_verification_passes_through_unsplit() {
        let mut f = build(&vec![5u8; 4000], TcpFlags::psh_ack());
        let last = f.len() - 1;
        f[last] ^= 0xFF; // corrupt the payload: TCP checksum fails
        assert_eq!(tso_split(f.clone(), 1460), vec![f.clone()]);
        let out = tso_split_pkt(PktBuf::from_vec(f.clone()), 1460);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_vec(), f);
    }

    #[test]
    fn non_tcp_passthrough() {
        let udpish = {
            let ip = Ipv4Header::new(SRC, DST, IpProtocol::Udp, 3000).emit(&vec![0u8; 3000]);
            EthernetFrame {
                dst: MacAddr::local(1),
                src: MacAddr::local(2),
                ethertype: EtherType::Ipv4,
            }
            .emit(&ip)
        };
        assert_eq!(tso_split(udpish.clone(), 1460), vec![udpish]);
    }
}
