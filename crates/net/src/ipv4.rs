//! IPv4 (RFC 791): header parse/emit with checksum, plus fragmentation and
//! reassembly used by the stack's IP component.

use crate::checksum;
use crate::wire::{get_u16, need, set_u16, NetError, NetResult};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Transport protocols carried by this stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    Icmp,
    Tcp,
    Udp,
    Unknown(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Unknown(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Unknown(v) => v,
        }
    }
}

pub const IPV4_HEADER_LEN: usize = 20;

/// A parsed IPv4 header (options are accepted but ignored, like the paper's
/// stack and smoltcp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub protocol: IpProtocol,
    pub ttl: u8,
    pub ident: u16,
    pub dont_frag: bool,
    pub more_frags: bool,
    /// Fragment offset in bytes (stored as 8-byte units on the wire).
    pub frag_offset: u16,
    /// Total length (header + payload).
    pub total_len: u16,
    /// Header length in bytes (>= 20 when options present).
    pub header_len: u8,
}

impl Ipv4Header {
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Self {
        Ipv4Header {
            src,
            dst,
            protocol,
            ttl: 64,
            ident: 0,
            dont_frag: true,
            more_frags: false,
            frag_offset: 0,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            header_len: IPV4_HEADER_LEN as u8,
        }
    }

    /// Parse and validate (version, header checksum, lengths). Returns the
    /// header and the payload byte range within `buf`.
    pub fn parse(buf: &[u8]) -> NetResult<(Ipv4Header, std::ops::Range<usize>)> {
        need(buf, IPV4_HEADER_LEN)?;
        if buf[0] >> 4 != 4 {
            return Err(NetError::Unsupported);
        }
        let ihl = ((buf[0] & 0x0F) as usize) * 4;
        if ihl < IPV4_HEADER_LEN {
            return Err(NetError::Malformed);
        }
        need(buf, ihl)?;
        if !checksum::verify(&buf[..ihl]) {
            return Err(NetError::BadChecksum);
        }
        let total_len = get_u16(buf, 2);
        if (total_len as usize) < ihl || (total_len as usize) > buf.len() {
            return Err(NetError::BadLength);
        }
        let flags_frag = get_u16(buf, 6);
        Ok((
            Ipv4Header {
                src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
                dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
                protocol: IpProtocol::from(buf[9]),
                ttl: buf[8],
                ident: get_u16(buf, 4),
                dont_frag: flags_frag & 0x4000 != 0,
                more_frags: flags_frag & 0x2000 != 0,
                frag_offset: (flags_frag & 0x1FFF) * 8,
                total_len,
                header_len: ihl as u8,
            },
            ihl..total_len as usize,
        ))
    }

    /// Emit the header (with checksum) followed by `payload`.
    pub fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut b = Vec::with_capacity(IPV4_HEADER_LEN + payload.len());
        self.emit_header_into(payload.len(), &mut b);
        b.extend_from_slice(payload);
        b
    }

    /// Append the 20-byte header (with checksum) of a packet carrying
    /// `payload_len` bytes; the caller appends the payload after it.
    pub fn emit_header_into(&self, payload_len: usize, out: &mut Vec<u8>) {
        let total = IPV4_HEADER_LEN + payload_len;
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        set_u16(&mut b, 2, total as u16);
        set_u16(&mut b, 4, self.ident);
        let mut ff = (self.frag_offset / 8) & 0x1FFF;
        if self.dont_frag {
            ff |= 0x4000;
        }
        if self.more_frags {
            ff |= 0x2000;
        }
        set_u16(&mut b, 6, ff);
        b[8] = self.ttl;
        b[9] = u8::from(self.protocol);
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let c = checksum::checksum(&b);
        set_u16(&mut b, 10, c);
        out.extend_from_slice(&b);
    }
}

/// Split an IPv4 payload into fragments fitting `mtu` (which includes the
/// 20-byte header). Offsets are kept 8-byte aligned as required.
pub fn fragment(header: &Ipv4Header, payload: &[u8], mtu: usize) -> NetResult<Vec<Vec<u8>>> {
    let max_data = (mtu.saturating_sub(IPV4_HEADER_LEN)) & !7;
    if max_data == 0 {
        return Err(NetError::BadLength);
    }
    if payload.len() + IPV4_HEADER_LEN <= mtu {
        return Ok(vec![header.emit(payload)]);
    }
    if header.dont_frag {
        return Err(NetError::Malformed);
    }
    let mut out = Vec::new();
    let mut off = 0;
    while off < payload.len() {
        let end = (off + max_data).min(payload.len());
        let mut h = *header;
        h.frag_offset = off as u16;
        h.more_frags = end < payload.len();
        h.dont_frag = false;
        out.push(h.emit(&payload[off..end]));
        off = end;
    }
    Ok(out)
}

/// Reassembles fragmented IPv4 datagrams, keyed by (src, dst, proto, ident).
#[derive(Debug, Default)]
pub struct Reassembler {
    pending: HashMap<(Ipv4Addr, Ipv4Addr, u8, u16), Partial>,
}

#[derive(Debug)]
struct Partial {
    /// (offset, data) pieces received so far.
    pieces: Vec<(u16, Vec<u8>)>,
    /// Total payload length, known once the last fragment arrives.
    total: Option<usize>,
    started_ns: u64,
}

impl Reassembler {
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Offer one fragment; returns the reassembled full payload when
    /// complete.
    pub fn push(&mut self, h: &Ipv4Header, payload: &[u8], now_ns: u64) -> Option<Vec<u8>> {
        if !h.more_frags && h.frag_offset == 0 {
            return Some(payload.to_vec()); // unfragmented fast path
        }
        let key = (h.src, h.dst, u8::from(h.protocol), h.ident);
        let p = self.pending.entry(key).or_insert(Partial {
            pieces: Vec::new(),
            total: None,
            started_ns: now_ns,
        });
        p.pieces.push((h.frag_offset, payload.to_vec()));
        if !h.more_frags {
            p.total = Some(h.frag_offset as usize + payload.len());
        }
        let total = p.total?;
        // Check contiguous coverage 0..total.
        let mut pieces = p.pieces.clone();
        pieces.sort_by_key(|(o, _)| *o);
        let mut covered = 0usize;
        for (o, d) in &pieces {
            let o = *o as usize;
            if o > covered {
                return None; // gap
            }
            covered = covered.max(o + d.len());
        }
        if covered < total {
            return None;
        }
        let mut out = vec![0u8; total];
        for (o, d) in &pieces {
            let o = *o as usize;
            let end = (o + d.len()).min(total);
            out[o..end].copy_from_slice(&d[..end - o]);
        }
        self.pending.remove(&key);
        Some(out)
    }

    /// Drop partial datagrams older than `ttl_ns`.
    pub fn expire(&mut self, now_ns: u64, ttl_ns: u64) {
        self.pending
            .retain(|_, p| now_ns.saturating_sub(p.started_ns) < ttl_ns);
    }

    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(payload_len: usize) -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            payload_len,
        )
    }

    #[test]
    fn header_roundtrip() {
        let h = hdr(11);
        let bytes = h.emit(b"hello world");
        let (g, range) = Ipv4Header::parse(&bytes).unwrap();
        assert_eq!(g.src, h.src);
        assert_eq!(g.dst, h.dst);
        assert_eq!(g.protocol, IpProtocol::Udp);
        assert_eq!(&bytes[range], b"hello world");
    }

    #[test]
    fn corrupt_header_fails_checksum() {
        let mut bytes = hdr(0).emit(&[]);
        bytes[12] ^= 0x01;
        assert_eq!(Ipv4Header::parse(&bytes), Err(NetError::BadChecksum));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = hdr(0).emit(&[]);
        bytes[0] = 0x65;
        assert_eq!(Ipv4Header::parse(&bytes), Err(NetError::Unsupported));
    }

    #[test]
    fn length_field_vs_buffer() {
        let bytes = hdr(4).emit(b"abcd");
        // Claim more data than present.
        let mut longer = bytes.clone();
        set_u16(&mut longer, 2, 100);
        let c = checksum::checksum(&{
            let mut h = longer[..20].to_vec();
            h[10] = 0;
            h[11] = 0;
            h
        });
        set_u16(&mut longer, 10, 0);
        set_u16(&mut longer, 10, c);
        assert_eq!(Ipv4Header::parse(&longer), Err(NetError::BadLength));
    }

    #[test]
    fn fragment_then_reassemble() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4000).collect();
        let mut h = hdr(payload.len());
        h.dont_frag = false;
        h.ident = 42;
        let frags = fragment(&h, &payload, 1500).unwrap();
        assert!(frags.len() >= 3);
        let mut r = Reassembler::new();
        let mut got = None;
        for f in &frags {
            let (fh, range) = Ipv4Header::parse(f).unwrap();
            got = r.push(&fh, &f[range], 0);
        }
        assert_eq!(got.unwrap(), payload);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassemble_out_of_order() {
        let payload: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        let mut h = hdr(payload.len());
        h.dont_frag = false;
        h.ident = 7;
        let mut frags = fragment(&h, &payload, 1500).unwrap();
        frags.reverse();
        let mut r = Reassembler::new();
        let mut got = None;
        for f in &frags {
            let (fh, range) = Ipv4Header::parse(f).unwrap();
            got = r.push(&fh, &f[range], 0);
        }
        assert_eq!(got.unwrap(), payload);
    }

    #[test]
    fn dont_frag_refuses_to_fragment() {
        let payload = vec![0u8; 3000];
        let h = hdr(payload.len()); // dont_frag = true by default
        assert_eq!(fragment(&h, &payload, 1500), Err(NetError::Malformed));
    }

    #[test]
    fn reassembler_expires_partials() {
        let payload = vec![1u8; 3000];
        let mut h = hdr(payload.len());
        h.dont_frag = false;
        let frags = fragment(&h, &payload, 1500).unwrap();
        let (fh, range) = Ipv4Header::parse(&frags[0]).unwrap();
        let mut r = Reassembler::new();
        assert!(r.push(&fh, &frags[0][range], 0).is_none());
        assert_eq!(r.pending(), 1);
        r.expire(10_000_000_000, 5_000_000_000);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn protocol_conversion() {
        for p in [
            IpProtocol::Icmp,
            IpProtocol::Tcp,
            IpProtocol::Udp,
            IpProtocol::Unknown(99),
        ] {
            assert_eq!(IpProtocol::from(u8::from(p)), p);
        }
    }
}
