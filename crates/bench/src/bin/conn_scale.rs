//! # conn_scale — million-connection scale-out benchmark
//!
//! Drives one server [`TcpStack`] with 100k+ (10k in `--quick`) simulated
//! long-lived clients on a fixed-seed virtual clock and reports the three
//! scale headline metrics the CI gate watches:
//!
//! * `conn_scale_krps` — steady-state completed requests per virtual
//!   second (in thousands);
//! * `conn_scale_mem_per_conn_bytes` — accounted server memory per live
//!   connection (the `ConnBudget` number exported through `neat-obs`);
//! * `conn_scale_p99_us` — p99 request completion latency in virtual µs.
//!
//! The client population is deliberately heterogeneous — the mixes that
//! historically melt per-socket timer lists and linear demux scans:
//!
//! * **steady requesters** (55%): small request, 512 B response, repeat;
//! * **idle keepalivers** (20%): connect once, then only keepalive
//!   probes — pure timer-wheel load;
//! * **slow readers** (10%): ask for 8 KiB and sip it a few hundred
//!   bytes at a time — window backpressure + probe timers;
//! * **churners** (15%): request, close, reconnect — TIME_WAIT wheel
//!   entries, inline reaping, demux insert/remove churn.
//!
//! ## Lanes
//!
//! Client stacks are partitioned into *lanes* (one stack, its connections,
//! and a private RNG stream per lane), run in lane order; the server stack
//! consumes client segments in lane order at every exchange. Lane work runs
//! with the `neat-obs` registry off, so the embedded metrics snapshot
//! counts the server stack only.
//!
//! Everything is deterministic: one seed, virtual time only, no wall
//! clock in any reported number.

use neat_bench::{BenchReport, Table};
use neat_net::TcpHeader;
use neat_tcp::{SockEvent, SocketId, TcpConfig, TcpStack};
use neat_util::{FxHashMap, Rng};
use std::net::Ipv4Addr;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PORT: u16 = 80;
const SEED: u64 = 0xC0_FF_EE_00;

/// Virtual tick (event-loop cadence).
const TICK_NS: u64 = 1_000_000; // 1 ms
/// Virtual cost charged per pump round inside a tick (gives sub-tick
/// latency resolution without a per-segment event queue).
const ROUND_NS: u64 = 2_000; // 2 µs

const REQ_LEN: usize = 16;
const RESP_SMALL: usize = 512;
const RESP_BIG: usize = 8 * 1024;

/// Connections per client stack (= per lane), comfortably under the
/// 16384-port ephemeral span.
const CONNS_PER_STACK: usize = 2_500;

/// An in-flight TCP segment between a lane and the server.
type Seg = (TcpHeader, Vec<u8>);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Steady,
    Keepalive,
    SlowReader,
    Churner,
}

fn role_of(global_idx: usize) -> Role {
    match global_idx % 20 {
        0..=10 => Role::Steady,
        11..=14 => Role::Keepalive,
        15..=16 => Role::SlowReader,
        _ => Role::Churner,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ConnState {
    Connecting,
    Idle,
    /// Waiting for `expect` response bytes, `got` received so far.
    Awaiting {
        expect: usize,
        got: usize,
        sent_at: u64,
    },
    /// Churner linger between connections.
    Disconnected {
        reconnect_at_tick: u64,
    },
}

#[derive(Debug)]
struct Conn {
    id: SocketId,
    role: Role,
    state: ConnState,
    /// Next tick this connection acts (role-specific pacing).
    next_tick: u64,
}

/// IP of lane `i`'s client stack (also the reply-routing key).
fn lane_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1 + (i / 250) as u8, (i % 250) as u8 + 1)
}

fn lane_of_ip(ip: Ipv4Addr) -> usize {
    let o = ip.octets();
    (o[2] as usize - 1) * 250 + (o[3] as usize - 1)
}

/// One slice of the client population: a stack, its connections, a
/// private RNG stream, and private result accumulators.
struct Lane {
    stack: TcpStack,
    /// socket id -> lane-local conn index (lookup only — never iterated,
    /// so its order can't leak into results).
    by_sock: FxHashMap<SocketId, usize>,
    conns: Vec<Conn>,
    rng: Rng,
    /// First global connection index owned by this lane.
    base: usize,
    /// Number of connections this lane owns.
    size: usize,
    completed: u64,
    completed_steady: u64,
    latencies_ns: Vec<u64>,
    refused: u64,
}

impl Lane {
    fn new(i: usize, size: usize, cfg: TcpConfig) -> Lane {
        Lane {
            stack: TcpStack::new(lane_ip(i), cfg),
            by_sock: FxHashMap::default(),
            conns: Vec::with_capacity(size),
            // Same per-machine stream derivation as the simulator engine.
            rng: Rng::seed_from_u64(SEED ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            base: i * CONNS_PER_STACK,
            size,
            completed: 0,
            completed_steady: 0,
            latencies_ns: Vec::new(),
            refused: 0,
        }
    }

    /// Open connection `local` (lane index) on this lane's stack.
    fn open(&mut self, local: usize, now: u64, tick: u64) {
        match self.stack.connect(SERVER_IP, PORT, now) {
            Ok(id) => {
                self.by_sock.insert(id, local);
                let c = Conn {
                    id,
                    role: role_of(self.base + local),
                    state: ConnState::Connecting,
                    next_tick: tick + self.rng.gen_range(1u64..16),
                };
                if local < self.conns.len() {
                    self.conns[local] = c;
                } else {
                    debug_assert_eq!(local, self.conns.len());
                    self.conns.push(c);
                }
            }
            Err(_) => self.refused += 1,
        }
    }

    /// Send one request on conn `local`. Byte 0 selects the response size.
    fn request(&mut self, local: usize, now: u64) {
        let (id, big) = {
            let c = &self.conns[local];
            (c.id, c.role == Role::SlowReader)
        };
        let mut req = [0u8; REQ_LEN];
        req[0] = big as u8;
        if self.stack.send(id, &req).is_ok() {
            self.conns[local].state = ConnState::Awaiting {
                expect: if big { RESP_BIG } else { RESP_SMALL },
                got: 0,
                sent_at: now,
            };
        }
    }

    /// Per-tick phase 1: ramp opens for this lane's slice of the global
    /// `[opened, opened + batch)` range, role-driven actions, then timers.
    fn actions(&mut self, tick: u64, now: u64, opened: usize, batch: usize, steady: bool) {
        let lo = opened.max(self.base);
        let hi = (opened + batch).min(self.base + self.size);
        for idx in lo..hi {
            self.open(idx - self.base, now, tick);
        }

        for local in 0..self.conns.len() {
            if self.conns[local].next_tick > tick {
                continue;
            }
            match (self.conns[local].role, self.conns[local].state) {
                (_, ConnState::Disconnected { reconnect_at_tick }) if tick >= reconnect_at_tick => {
                    self.open(local, now, tick);
                }
                (Role::Steady, ConnState::Idle) | (Role::Churner, ConnState::Idle) => {
                    self.request(local, now);
                    self.conns[local].next_tick = tick + self.rng.gen_range(2u64..12);
                }
                (Role::SlowReader, ConnState::Idle) => {
                    self.request(local, now);
                    self.conns[local].next_tick = tick + 4;
                }
                (Role::SlowReader, ConnState::Awaiting { .. }) => {
                    // Sip a few hundred bytes, then wait again.
                    let id = self.conns[local].id;
                    let mut sip = [0u8; 256];
                    if let Ok(n) = self.stack.recv(id, &mut sip) {
                        self.note_received(local, n, now, tick, steady);
                    }
                    self.conns[local].next_tick = tick + 4;
                }
                (Role::Keepalive, ConnState::Idle) => {
                    // Stays idle on purpose; push the next check far out.
                    self.conns[local].next_tick = tick + 1000;
                }
                _ => {}
            }
        }

        while let Some(t) = self.stack.next_timeout() {
            if t > now {
                break;
            }
            self.stack.on_timer(t);
        }
    }

    /// Pump send half: everything this lane has on the wire.
    fn drain(&mut self, now: u64) -> Vec<Seg> {
        let mut out = Vec::new();
        while let Some((_dst, h, p)) = self.stack.poll_transmit(now) {
            out.push((h, p));
        }
        out
    }

    /// Pump receive half: server segments, in server emission order.
    fn deliver(&mut self, now: u64, segs: Vec<Seg>) {
        for (h, p) in segs {
            self.stack.handle_segment(SERVER_IP, &h, &p, now);
        }
    }

    /// Per-tick phase 3: drain this lane's socket events and readable data.
    fn events(&mut self, tick: u64, now: u64, steady: bool) {
        while let Some(ev) = self.stack.poll_event() {
            let local = match self.by_sock.get(&ev.socket()) {
                Some(i) => *i,
                None => continue,
            };
            // Stale id (the slot was already recycled to a new socket):
            // drop the mapping and ignore the event.
            if self.conns[local].id != ev.socket() {
                self.by_sock.remove(&ev.socket());
                continue;
            }
            match ev {
                SockEvent::Connected(_) if self.conns[local].state == ConnState::Connecting => {
                    self.conns[local].state = ConnState::Idle;
                }
                SockEvent::Connected(_) => {}
                SockEvent::Readable(id) => self.read(local, id, now, tick, steady),
                SockEvent::Aborted(id) | SockEvent::Closed(id) => {
                    // Churners reach here after their active close; anyone
                    // else losing a connection re-opens lazily.
                    if let ConnState::Disconnected { .. } = self.conns[local].state {
                    } else if self.conns[local].role == Role::Churner {
                        self.by_sock.remove(&id);
                        self.conns[local].state = ConnState::Disconnected {
                            reconnect_at_tick: tick + self.rng.gen_range(5u64..20),
                        };
                    }
                }
                _ => {}
            }
        }
    }

    fn read(&mut self, local: usize, id: SocketId, now: u64, tick: u64, steady: bool) {
        // Slow readers sip on their own schedule, not on readiness.
        if self.conns[local].role == Role::SlowReader {
            return;
        }
        let mut buf = [0u8; 2048];
        loop {
            let n = match self.stack.recv(id, &mut buf) {
                Ok(0) => return,
                Ok(n) => n,
                Err(_) => return,
            };
            self.note_received(local, n, now, tick, steady);
            if n < buf.len() {
                return;
            }
        }
    }

    fn note_received(&mut self, local: usize, n: usize, now: u64, tick: u64, steady: bool) {
        if let ConnState::Awaiting {
            expect,
            got,
            sent_at,
        } = self.conns[local].state
        {
            let got = got + n;
            if got >= expect {
                self.completed += 1;
                if steady {
                    self.completed_steady += 1;
                    self.latencies_ns.push(now - sent_at);
                }
                match self.conns[local].role {
                    Role::Churner => {
                        let id = self.conns[local].id;
                        let _ = self.stack.close(id, now);
                        self.by_sock.remove(&id);
                        self.conns[local].state = ConnState::Disconnected {
                            reconnect_at_tick: tick + self.rng.gen_range(5u64..20),
                        };
                    }
                    _ => {
                        self.conns[local].state = ConnState::Idle;
                        self.conns[local].next_tick = tick + self.rng.gen_range(2u64..12);
                    }
                }
            } else {
                self.conns[local].state = ConnState::Awaiting {
                    expect,
                    got,
                    sent_at,
                };
            }
        }
    }
}

/// Run `f` over every lane in lane order with the `neat-obs` registry off,
/// so client-side TCP work never reaches the report's snapshot.
fn each_lane(lanes: &mut [Lane], f: impl FnMut((usize, &mut Lane))) {
    neat_obs::set_thread_enabled(false);
    lanes.iter_mut().enumerate().for_each(f);
    neat_obs::set_thread_enabled(true);
}

/// The server stack and its request/response logic.
struct Server {
    stack: TcpStack,
    listener: SocketId,
    /// Request reassembly: bytes of a partial request seen.
    partial: FxHashMap<SocketId, Vec<u8>>,
    /// Responses that hit a full send buffer: (id, remaining).
    backlog: Vec<(SocketId, usize)>,
}

impl Server {
    fn new() -> Server {
        let cfg = TcpConfig {
            initial_rto_ns: 20_000_000,
            backlog: 4096,
            delayed_ack_ns: 0,
            nagle: false,
            ..TcpConfig::default()
        };
        let mut stack = TcpStack::new(SERVER_IP, cfg);
        let listener = stack.listen(PORT).expect("listen");
        Server {
            stack,
            listener,
            partial: FxHashMap::default(),
            backlog: Vec::new(),
        }
    }

    /// Accept, read requests, write responses; retry the backlogged ones.
    fn work(&mut self, now: u64) {
        while self.stack.acceptable(self.listener) > 0 {
            let _ = self.stack.accept(self.listener);
        }
        while let Some(ev) = self.stack.poll_event() {
            match ev {
                SockEvent::Readable(id) => self.read(id, now),
                SockEvent::PeerClosed(id) => {
                    // Active-close side is the client; finish our half.
                    let _ = self.stack.close(id, now);
                    self.partial.remove(&id);
                }
                _ => {}
            }
        }
        // Retry responses that earlier hit a full send buffer.
        if !self.backlog.is_empty() {
            let mut still = Vec::new();
            for (id, remaining) in std::mem::take(&mut self.backlog) {
                let left = self.send_response(id, remaining);
                if left > 0 {
                    still.push((id, left));
                }
            }
            self.backlog = still;
        }
    }

    fn read(&mut self, id: SocketId, now: u64) {
        let _ = now;
        let mut buf = [0u8; 4096];
        loop {
            let n = match self.stack.recv(id, &mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(_) => break,
            };
            let mut sizes = Vec::new();
            {
                let pending = self.partial.entry(id).or_default();
                pending.extend_from_slice(&buf[..n]);
                while pending.len() >= REQ_LEN {
                    let big = pending[0] != 0;
                    pending.drain(..REQ_LEN);
                    sizes.push(if big { RESP_BIG } else { RESP_SMALL });
                }
            }
            for size in sizes {
                let left = self.send_response(id, size);
                if left > 0 {
                    self.backlog.push((id, left));
                }
            }
            if n < buf.len() {
                break;
            }
        }
        if self.partial.get(&id).map(|p| p.is_empty()).unwrap_or(false) {
            self.partial.remove(&id);
        }
    }

    /// Push up to `size` response bytes; returns bytes still owed.
    fn send_response(&mut self, id: SocketId, size: usize) -> usize {
        const CHUNK: [u8; 1024] = [0x42; 1024];
        let mut left = size;
        while left > 0 {
            let n = left.min(CHUNK.len());
            match self.stack.send(id, &CHUNK[..n]) {
                Ok(sent) => {
                    left -= sent;
                    if sent < n {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        left
    }

    fn timers(&mut self, now: u64) {
        while let Some(t) = self.stack.next_timeout() {
            if t > now {
                break;
            }
            self.stack.on_timer(t);
        }
    }
}

/// Shuttle segments between lanes and server until quiescent, charging
/// `ROUND_NS` per round. The server consumes client segments in lane
/// order every round.
fn pump(server: &mut Server, lanes: &mut [Lane], now: &mut u64) {
    loop {
        let mut by_lane: Vec<Vec<Seg>> = Vec::with_capacity(lanes.len());
        each_lane(lanes, |(_, l)| by_lane.push(l.drain(*now)));
        let mut moved = false;
        for (i, segs) in by_lane.iter().enumerate() {
            let src = lane_ip(i);
            for (h, p) in segs {
                server.stack.handle_segment(src, h, p, *now);
                moved = true;
            }
        }
        server.work(*now);
        // Server replies, routed back by destination IP.
        let mut back: Vec<Vec<Seg>> = (0..lanes.len()).map(|_| Vec::new()).collect();
        while let Some((dst, h, p)) = server.stack.poll_transmit(*now) {
            back[lane_of_ip(dst)].push((h, p));
            moved = true;
        }
        each_lane(lanes, |(i, l)| {
            l.deliver(*now, std::mem::take(&mut back[i]))
        });
        if !moved {
            break;
        }
        *now += ROUND_NS;
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let i = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[i]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--quick") {
        // Keep the report's `quick` field consistent however we're invoked.
        std::env::set_var("NEAT_BENCH_QUICK", "1");
    }
    let quick = neat_bench::quick();

    let n_conns: usize = if quick { 10_000 } else { 100_000 };
    let ramp_ticks: u64 = 50;
    let steady_ticks: u64 = if quick { 150 } else { 250 };
    let total_ticks = ramp_ticks + steady_ticks;
    let warmup_ticks = ramp_ticks + 20;

    let client_cfg = TcpConfig {
        initial_rto_ns: 20_000_000,
        delayed_ack_ns: 0,
        nagle: false,
        // Churners must recycle ports within the run.
        time_wait_ns: 50_000_000,
        // Idle keepalivers exercise the wheel's coarse levels.
        keepalive_ns: 100_000_000,
        ..TcpConfig::default()
    };
    let n_lanes = n_conns.div_ceil(CONNS_PER_STACK);
    // Lanes register their metrics before the server does, which fixes the
    // snapshot's key order.
    let mut lanes: Vec<Lane> = (0..n_lanes)
        .map(|i| {
            let size = CONNS_PER_STACK.min(n_conns - i * CONNS_PER_STACK);
            Lane::new(i, size, client_cfg.clone())
        })
        .collect();
    let mut server = Server::new();

    println!("conn_scale: {n_conns} clients over {n_lanes} lanes");
    let wall_start = std::time::Instant::now();

    let per_tick = n_conns.div_ceil(ramp_ticks as usize);
    let mut opened = 0usize;
    let mut now = 0u64;
    let mut mem_per_conn_half = 0.0f64;
    let mut steady_sample: Vec<(u64, usize, f64)> = Vec::new();

    for tick in 0..total_ticks {
        now = now.max(tick * TICK_NS);
        let steady = tick >= warmup_ticks;

        // Ramp: open the next batch of connections (each lane opens its
        // slice of the global range).
        let batch = per_tick.min(n_conns - opened);
        each_lane(&mut lanes, |(_, l)| {
            l.actions(tick, now, opened, batch, steady)
        });
        opened += batch;
        server.timers(now);
        pump(&mut server, &mut lanes, &mut now);
        each_lane(&mut lanes, |(_, l)| l.events(tick, now, steady));
        pump(&mut server, &mut lanes, &mut now);

        if tick == ramp_ticks / 2 {
            mem_per_conn_half = server.stack.budget().bytes_per_conn();
        }
        if steady && (tick - warmup_ticks).is_multiple_of(50) {
            steady_sample.push((
                tick,
                server.stack.conn_count(),
                server.stack.budget().bytes_per_conn(),
            ));
        }
    }
    // Wall time is printed, never reported: the JSON stays byte-identical.
    println!(
        "conn_scale: simulated {} ms in {:.1}s wall",
        total_ticks * TICK_NS / 1_000_000,
        wall_start.elapsed().as_secs_f64()
    );

    let mut completed = 0u64;
    let mut completed_steady = 0u64;
    let mut refused = 0u64;
    let mut latencies_ns: Vec<u64> = Vec::new();
    for lane in &lanes {
        completed += lane.completed;
        completed_steady += lane.completed_steady;
        refused += lane.refused;
        latencies_ns.extend_from_slice(&lane.latencies_ns);
    }

    // Headline numbers.
    if std::env::var("CONN_SCALE_DEBUG").is_ok() {
        let mut dist = std::collections::BTreeMap::new();
        for id in server.stack.socket_ids() {
            if let Some(st) = server.stack.state(id) {
                *dist.entry(format!("{st:?}")).or_insert(0u64) += 1;
            }
        }
        eprintln!("server socket states: {dist:?}");
        let mut cdist = std::collections::BTreeMap::new();
        for lane in &lanes {
            for id in lane.stack.socket_ids() {
                if let Some(st) = lane.stack.state(id) {
                    *cdist.entry(format!("{st:?}")).or_insert(0u64) += 1;
                }
            }
        }
        eprintln!("client socket states: {cdist:?}");
    }
    server.stack.publish_mem_gauges();
    let steady_secs = (steady_ticks - 20) as f64 * TICK_NS as f64 / 1e9;
    let krps = completed_steady as f64 / steady_secs / 1e3;
    let mem_per_conn = server.stack.budget().bytes_per_conn();
    latencies_ns.sort_unstable();
    let p50_us = percentile(&latencies_ns, 0.50) as f64 / 1e3;
    let p99_us = percentile(&latencies_ns, 0.99) as f64 / 1e3;

    let mut report = BenchReport::new("conn_scale");
    let mut t = Table::new(
        format!("conn_scale: {n_conns} long-lived clients (fixed seed)"),
        &["metric", "value"],
    );
    t.row(&["clients (target)".into(), n_conns.to_string()]);
    t.row(&[
        "server live conns (end)".into(),
        server.stack.conn_count().to_string(),
    ]);
    t.row(&["requests completed".into(), completed.to_string()]);
    t.row(&["steady krps".into(), format!("{krps:.1}")]);
    t.row(&["p50 latency (us)".into(), format!("{p50_us:.1}")]);
    t.row(&["p99 latency (us)".into(), format!("{p99_us:.1}")]);
    t.row(&[
        "bytes/conn @ half ramp".into(),
        format!("{mem_per_conn_half:.0}"),
    ]);
    t.row(&["bytes/conn @ end".into(), format!("{mem_per_conn:.0}")]);
    t.row(&[
        "budget refusals".into(),
        (refused + server.stack.budget().refused()).to_string(),
    ]);
    report.table(&t);

    let mut growth = Table::new(
        "memory boundedness: bytes/conn while scaling up",
        &["tick", "live conns", "bytes/conn"],
    );
    for (tick, conns, bpc) in &steady_sample {
        growth.row(&[tick.to_string(), conns.to_string(), format!("{bpc:.0}")]);
    }
    report.table(&growth);

    // The boundedness claim of the issue: per-conn memory must not grow
    // with the connection count. Half-ramp load is lighter per conn (less
    // buffered data), so allow a generous constant factor — what this
    // catches is O(n) growth, which would blow far past 4x.
    if mem_per_conn_half > 0.0 && mem_per_conn > 4.0 * mem_per_conn_half {
        eprintln!(
            "FAIL: bytes/conn grew {:.0} -> {:.0} while conns scaled up",
            mem_per_conn_half, mem_per_conn
        );
        std::process::exit(1);
    }

    report.metric("conn_scale_krps", krps);
    report.metric("conn_scale_mem_per_conn_bytes", mem_per_conn);
    report.metric("conn_scale_p99_us", p99_us);
    report.finish();
}
