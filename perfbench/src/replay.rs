//! Layer replays: each times calls into one crate's public functions
//! with inputs shaped like the workload's (frame sizes, connection
//! counts), so host cost can be attributed to a layer without
//! instrumenting the program. Each replay runs a fixed amount of work.

use crate::spans::Spans;
use crate::workload::Workload;
use neat_apps::http;
use neat_net::tcp::{TcpFlags, TcpHeader};
use neat_net::{EtherType, EthernetFrame, IpProtocol, Ipv4Header, MacAddr, SeqNum};
use neat_sim::{Ctx, Event, MachineSpec, Process, Sim, SimConfig, Time};
use neat_tcp::{SockEvent, SocketId, TcbImage, TcpConfig, TcpError, TcpStack};
use neat_util::Json;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 80;

/// Host ns per operation of each layer's replay.
#[derive(Debug, Clone, Default)]
pub struct Replays {
    pub sim_ns_per_event: f64,
    pub nic_ns_per_frame: f64,
    pub net_parse_ns_per_pkt: f64,
    pub net_emit_ns_per_pkt: f64,
    pub tcp_ns_per_seg: f64,
    pub tcp_ns_per_conn: f64,
    pub repl_ns_per_delta: f64,
}

/// Replay inputs shaped like one workload.
struct Shape {
    /// Concurrent server-side connections.
    conns: usize,
    /// Response body bytes per request.
    body: usize,
    /// Largest segment the server hands its NIC (TSO burst or one MSS).
    burst: usize,
}

fn shape(w: Workload) -> Shape {
    let spec = w.spec(0);
    let body = spec
        .files
        .get(&spec.workload.path)
        .map(Vec::len)
        .unwrap_or(0);
    Shape {
        conns: spec.clients * spec.workload.conns_per_client,
        body,
        burst: body.clamp(1, spec.neat.tcp.gso_burst),
    }
}

fn response(body: usize) -> Vec<u8> {
    http::format_response(200, &vec![b'x'; body], true)
}

/// Run `f` (which returns the number of operations it did) and time it.
fn timed(spans: &mut Spans, name: &str, parent: u32, f: impl FnOnce() -> u64) -> f64 {
    let s = spans.begin(name, parent);
    let t = Instant::now();
    let ops = f();
    let ns = t.elapsed().as_nanos() as f64;
    spans.arg(s, "ops", ops as f64);
    spans.end(s);
    ns / ops.max(1) as f64
}

pub fn run_all(w: Workload, spans: &mut Spans) -> Replays {
    let sh = shape(w);
    let top = spans.begin("replay", crate::metrics::ROOT);
    let (parse, emit) = net_replay(&sh, spans, top);
    let r = Replays {
        sim_ns_per_event: timed(spans, "replay.sim", top, sim_replay),
        nic_ns_per_frame: timed(spans, "replay.nic", top, || nic_replay(&sh)),
        net_parse_ns_per_pkt: parse,
        net_emit_ns_per_pkt: emit,
        tcp_ns_per_seg: timed(spans, "replay.tcp", top, || tcp_seg_replay(&sh)),
        tcp_ns_per_conn: timed(spans, "replay.tcp_conn", top, tcp_conn_replay),
        repl_ns_per_delta: timed(spans, "replay.core_repl", top, || repl_replay(&sh)),
    };
    spans.end(top);
    r
}

// --- sim -------------------------------------------------------------------

struct Echo;

impl Process<()> for Echo {
    fn name(&self) -> String {
        "echo".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, ()>, ev: Event<()>) {
        if let Event::Message { .. } = ev {
            ctx.charge(1_000);
            ctx.send(ctx.self_id, ());
        }
    }
}

/// `Sim::run_until` over a one-process echo loop: events dispatched.
fn sim_replay() -> u64 {
    let mut sim: Sim<()> = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t = sim.hw_thread(m, 0, 0);
    let p = sim.spawn(t, Box::new(Echo));
    sim.send_external(p, ());
    // 1000 cycles per event at 1.9 GHz: ≈ 380k events.
    sim.run_until(Time::from_millis(200));
    sim.events_dispatched()
}

// --- nic -------------------------------------------------------------------

fn frame(payload: &[u8], src_port: u16, flags: TcpFlags) -> Vec<u8> {
    let tcp =
        TcpHeader::new(src_port, PORT, SeqNum(1), SeqNum(1), flags).emit(payload, SERVER, CLIENT);
    let ip = Ipv4Header::new(SERVER, CLIENT, IpProtocol::Tcp, tcp.len()).emit(&tcp);
    EthernetFrame {
        dst: MacAddr::local(2),
        src: MacAddr::local(1),
        ethertype: EtherType::Ipv4,
    }
    .emit(&ip)
}

/// `Steering::classify` on every wire frame plus `tso_split` of each
/// server burst: wire frames handled.
fn nic_replay(sh: &Shape) -> u64 {
    let steer = neat_nic::Steering::new(3);
    let burst = frame(&vec![b'x'; sh.burst], 40_000, TcpFlags::psh_ack());
    let mss = TcpConfig::default().mss as usize;
    let mut frames = 0u64;
    while frames < 200_000 {
        for seg in neat_nic::tso::tso_split(black_box(burst.clone()), mss) {
            black_box(steer.classify(&seg));
            frames += 1;
        }
    }
    frames
}

// --- net -------------------------------------------------------------------

/// Ethernet/IPv4/TCP emit and parse, with checksums, of the workload's
/// wire frames: (parse ns per packet, emit ns per packet).
fn net_replay(sh: &Shape, spans: &mut Spans, parent: u32) -> (f64, f64) {
    let mss = TcpConfig::default().mss as usize;
    let payload = vec![b'x'; response(sh.body).len().min(mss)];
    const N: u64 = 100_000;
    let emit = timed(spans, "replay.net_emit", parent, || {
        for i in 0..N {
            black_box(frame(
                black_box(&payload),
                40_000 + (i % 1024) as u16,
                TcpFlags::psh_ack(),
            ));
        }
        N
    });
    let pkt = frame(&payload, 40_000, TcpFlags::psh_ack());
    let parse = timed(spans, "replay.net_parse", parent, || {
        for _ in 0..N {
            let (_, off) = EthernetFrame::parse(black_box(&pkt)).expect("valid frame");
            let (ip, range) = Ipv4Header::parse(&pkt[off..]).expect("valid ipv4");
            let seg = &pkt[off..][range];
            let (h, body) = TcpHeader::parse(seg, ip.src, ip.dst).expect("valid tcp");
            black_box((h, body));
        }
        N
    });
    (parse, emit)
}

// --- tcp -------------------------------------------------------------------

/// Move every pending segment between the two stacks until both are
/// quiet, handing parsed headers straight across: segments moved.
fn pump(a: &mut TcpStack, b: &mut TcpStack, now: u64) -> u64 {
    let mut moved = 0;
    loop {
        let mut any = false;
        while let Some((_, h, p)) = a.poll_transmit(now) {
            b.handle_segment(a.local_ip, &h, &p, now);
            moved += 1;
            any = true;
        }
        while let Some((_, h, p)) = b.poll_transmit(now) {
            a.handle_segment(b.local_ip, &h, &p, now);
            moved += 1;
            any = true;
        }
        if !any {
            return moved;
        }
    }
}

fn stacks() -> (TcpStack, TcpStack, SocketId) {
    let cfg = TcpConfig::default();
    let mut server = TcpStack::new(SERVER, cfg.clone());
    let client = TcpStack::new(CLIENT, cfg);
    let l = server.listen(PORT).expect("listen");
    (server, client, l)
}

fn drain_recv(s: &mut TcpStack, id: SocketId, buf: &mut [u8]) -> usize {
    let mut n = 0;
    while let Ok(k) = s.recv(id, buf) {
        if k == 0 {
            break;
        }
        n += k;
    }
    n
}

/// Request/response exchanges over the workload's connection count and
/// response size through `send`/`handle_segment`/`poll_transmit`/`recv`:
/// segments moved.
fn tcp_seg_replay(sh: &Shape) -> u64 {
    let (mut server, mut client, l) = stacks();
    let conns = sh.conns.min(256);
    let mut pairs = Vec::new();
    let mut now = 1_000u64;
    for _ in 0..conns {
        let c = client.connect(SERVER, PORT, now).expect("connect");
        pump(&mut client, &mut server, now);
        let s = server.accept(l).expect("accept");
        pairs.push((c, s));
    }
    let req = http::format_request("/file", true);
    let resp = response(sh.body);
    let mut buf = vec![0u8; 1 << 16];
    let mut segs = 0u64;
    let budget = if sh.body > 10_000 { 30_000 } else { 200_000 };
    while segs < budget {
        for &(c, s) in &pairs {
            now += 1_000;
            client.send(c, &req).expect("send request");
            segs += pump(&mut client, &mut server, now);
            drain_recv(&mut server, s, &mut buf);
            let mut off = 0;
            loop {
                match server.send(s, &resp[off..]) {
                    Ok(n) => off += n,
                    Err(TcpError::WouldBlock) => {}
                    Err(e) => panic!("send response: {e:?}"),
                }
                segs += pump(&mut client, &mut server, now);
                drain_recv(&mut client, c, &mut buf);
                // Let delayed ACKs out: they reopen the send window, and
                // the next exchange starts clean.
                now += 1_000_000;
                client.on_timer(now);
                server.on_timer(now);
                segs += pump(&mut client, &mut server, now);
                if off == resp.len() {
                    break;
                }
            }
        }
    }
    segs
}

/// Full connection lifetimes: connect → accept → one exchange → close →
/// TIME_WAIT reaped by `on_timer`: connections completed.
fn tcp_conn_replay() -> u64 {
    let (mut server, mut client, l) = stacks();
    let req = http::format_request("/file", false);
    let resp = response(20);
    let mut buf = vec![0u8; 4096];
    let mut now = 1_000u64;
    let tw = TcpConfig::default().time_wait_ns;
    const N: u64 = 20_000;
    for _ in 0..N {
        let c = client.connect(SERVER, PORT, now).expect("connect");
        pump(&mut client, &mut server, now);
        let s = server.accept(l).expect("accept");
        client.send(c, &req).expect("send request");
        pump(&mut client, &mut server, now);
        drain_recv(&mut server, s, &mut buf);
        server.send(s, &resp).expect("send response");
        server.close(s, now).expect("server close");
        pump(&mut client, &mut server, now);
        drain_recv(&mut client, c, &mut buf);
        client.close(c, now).expect("client close");
        pump(&mut client, &mut server, now);
        while client.poll_event().is_some() {}
        while server.poll_event().is_some() {}
        now += tw + 1;
        client.on_timer(now);
        server.on_timer(now);
        pump(&mut client, &mut server, now);
    }
    assert!(
        client.conn_count() + server.conn_count() < 8,
        "TIME_WAIT reaping left {} + {} connections",
        client.conn_count(),
        server.conn_count()
    );
    N
}

// --- core: replication -------------------------------------------------------

/// One checkpoint round per exchange: `take_repl_dirty`, `TcbImage`
/// encode and decode, then `restore_conn` into a standby stack: deltas.
fn repl_replay(sh: &Shape) -> u64 {
    let (mut server, mut client, l) = stacks();
    server.set_repl_tracking(true);
    let conns = sh.conns.min(64);
    let mut pairs = Vec::new();
    let mut now = 1_000u64;
    for _ in 0..conns {
        let c = client.connect(SERVER, PORT, now).expect("connect");
        pump(&mut client, &mut server, now);
        pairs.push((c, server.accept(l).expect("accept")));
    }
    let req = http::format_request("/file", true);
    let resp = response(sh.body.min(1_000));
    let mut buf = vec![0u8; 1 << 16];
    let mut deltas = 0u64;
    while deltas < 50_000 {
        for &(c, s) in &pairs {
            now += 1_000;
            client.send(c, &req).expect("send request");
            pump(&mut client, &mut server, now);
            drain_recv(&mut server, s, &mut buf);
            server.send(s, &resp).expect("send response");
            pump(&mut client, &mut server, now);
            drain_recv(&mut client, c, &mut buf);
        }
        let mut standby = TcpStack::new(SERVER, TcpConfig::default());
        for (_, _, img) in server.take_repl_dirty() {
            let bytes = img.encode();
            let back = TcbImage::decode(black_box(&bytes)).expect("image round-trips");
            standby.restore_conn(&back).expect("restore");
            deltas += 1;
        }
        while client.poll_event().is_some() {}
        while let Some(ev) = server.poll_event() {
            black_box(matches!(ev, SockEvent::Readable(_)));
        }
    }
    deltas
}

// --- bench: the Figure 12 sweep in process ----------------------------------

/// The `fig12 --quick` sweep run point by point in this process: one
/// JSON line per point with its host wall time and simulated krps.
pub fn fig12_points() -> Vec<Json> {
    use neat::config::NeatConfig;
    use neat_apps::scenario::{Testbed, TestbedSpec, Workload as ClientLoad};
    let points: [(usize, usize); 6] = [(1, 8), (1, 16), (1, 32), (1, 64), (2, 32), (4, 64)];
    let configs: [(&str, NeatConfig); 5] = [
        ("NEaT 1x", NeatConfig::single(1)),
        ("NEaT 2x", NeatConfig::single(2)),
        ("NEaT 3x", NeatConfig::single(3)),
        ("Multi 1x", NeatConfig::multi(1)),
        ("Multi 2x", NeatConfig::multi(2)),
    ];
    let mut out = Vec::new();
    for (name, cfg) in configs {
        for (servers, total) in points {
            let t = Instant::now();
            let mut spec = TestbedSpec::amd(cfg.clone(), servers);
            let clients = total.min(8);
            spec.clients = clients;
            spec.workload = ClientLoad {
                conns_per_client: total.div_ceil(clients),
                requests_per_conn: 1,
                ..ClientLoad::default()
            };
            let mut tb = Testbed::build(spec);
            let r = tb.measure(Time::from_millis(100), Time::from_millis(150));
            out.push(
                Json::object()
                    .field("config", name)
                    .field("servers", servers as u64)
                    .field("conns", total as u64)
                    .field("krps", format!("{:.1}", r.krps))
                    .field("wall_s", t.elapsed().as_secs_f64()),
            );
        }
    }
    out
}
