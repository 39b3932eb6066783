//! `httperf` — the load generator (§6.1–§6.2).
//!
//! Each instance is one process on the client machine (the paper runs "12
//! httperf processes — one per client machine's core"), embedding its own
//! library TCP stack (mTCP-style OS bypass — the client box is harness,
//! not the system under test). It keeps `num_conns` persistent
//! connections open, issues `requests_per_conn` GETs on each, replaces
//! finished connections with fresh ones, and reports rates/latency with
//! httperf's semantics: "dismisses from the request rate and throughput
//! any connection which has an error".

use crate::http;
use neat::msg::Msg;
use neat::netcode::{FrameIo, RxClass};
use neat_net::ethernet::MacAddr;
use neat_net::ipv4::IpProtocol;
use neat_sim::{calibration, Ctx, Event, Histogram, ProcId, Process, Time};
use neat_tcp::{SockEvent, SockOpt, SocketId, TcpConfig, TcpStack};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct HttperfConfig {
    pub target: (Ipv4Addr, u16),
    /// Concurrent persistent connections held open.
    pub num_conns: usize,
    /// Requests per connection before it is closed and replaced.
    pub requests_per_conn: u32,
    /// Request path (selects the file size on the server).
    pub path: String,
    /// Per-request timeout; expiry makes the connection an error.
    pub timeout_ns: u64,
    /// Ephemeral port partition for this instance.
    pub port_range: (u16, u16),
    /// Stagger between the initial connection opens.
    pub open_spacing_ns: u64,
    /// Think time between receiving a response and issuing the next
    /// request (0 = closed loop at full speed).
    pub think_ns: u64,
    /// Socket options applied to every connection right after `connect`
    /// (httperf's `--sock-opt` style flags: congestion algorithm, initial
    /// cwnd, receive-buffer size).
    pub sock_opts: Vec<SockOpt>,
}

impl Default for HttperfConfig {
    fn default() -> Self {
        HttperfConfig {
            target: (Ipv4Addr::new(192, 168, 69, 1), 8000),
            num_conns: 16,
            requests_per_conn: 100,
            path: "/file".into(),
            timeout_ns: 5_000_000_000,
            port_range: (49_152, 50_151),
            open_spacing_ns: 20_000,
            think_ns: 0,
            sock_opts: Vec::new(),
        }
    }
}

/// Cumulative measurements, shared with the harness. Snapshot/subtract
/// across a window to get rates.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Successfully completed requests (on non-error connections so far).
    pub completed: u64,
    pub response_bytes: u64,
    pub latency: Histogram,
    /// Connections that errored (timeout / reset / replica crash).
    pub conn_errors: u64,
    /// Requests completed on connections that later errored — httperf
    /// subtracts these from its report.
    pub requests_on_error_conns: u64,
    pub conns_finished: u64,
    pub conns_opened: u64,
    /// Order-sensitive FNV-1a fold of every byte the client application
    /// read, in delivery order across all its connections. Two fixed-seed
    /// runs that delivered byte-identical streams produce equal digests,
    /// so failover tests can assert the recovered byte stream exactly
    /// matches the uncrashed one.
    pub rx_digest: u64,
}

impl ClientMetrics {
    /// Error-adjusted completed count (httperf's reported number).
    pub fn reported_requests(&self) -> u64 {
        self.completed.saturating_sub(self.requests_on_error_conns)
    }

    fn digest_bytes(&mut self, data: &[u8]) {
        let mut h = if self.rx_digest == 0 {
            0xcbf2_9ce4_8422_2325 // FNV-1a offset basis
        } else {
            self.rx_digest
        };
        for &b in data {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        self.rx_digest = h;
    }
}

#[derive(Debug)]
struct ConnRun {
    parser: http::StreamParser,
    requests_done: u32,
    /// Completed requests counted into `completed` for this connection.
    counted: u64,
    sent_at: Option<u64>,
    connected: bool,
}

const TOK_STACK: u64 = 0;
const TOK_SCAN: u64 = 1;
const TOK_OPEN: u64 = 2;
/// Tokens >= TOK_THINK encode a think-time wakeup for socket id
/// `token - TOK_THINK`.
const TOK_THINK: u64 = 1_000;

/// The load-generator process.
pub struct HttperfProc {
    pub name: String,
    cfg: HttperfConfig,
    nic: ProcId,
    stack: TcpStack,
    io: FrameIo,
    conns: HashMap<SocketId, ConnRun>,
    armed: Option<u64>,
    pub metrics: Rc<RefCell<ClientMetrics>>,
    obs: ClientObs,
}

/// Metrics-registry handles mirroring the hot-path [`ClientMetrics`] counters.
#[derive(Clone, Copy)]
struct ClientObs {
    completed: neat_obs::Counter,
    conn_errors: neat_obs::Counter,
    latency: neat_obs::HistogramHandle,
}

impl ClientObs {
    fn new() -> ClientObs {
        ClientObs {
            completed: neat_obs::counter("client.responses"),
            conn_errors: neat_obs::counter("client.conn_errors"),
            latency: neat_obs::histogram("client.latency_ns"),
        }
    }
}

impl HttperfProc {
    pub fn new(
        name: impl Into<String>,
        cfg: HttperfConfig,
        nic: ProcId,
        client_ip: Ipv4Addr,
        client_mac: MacAddr,
        arp_seed: Vec<(Ipv4Addr, MacAddr)>,
        metrics: Rc<RefCell<ClientMetrics>>,
    ) -> HttperfProc {
        let tcp_cfg = TcpConfig {
            initial_rto_ns: 20_000_000,
            // Load generators recycle ports aggressively (the standard
            // tcp_tw_reuse benchmarking setting): a full 10 s TIME_WAIT
            // would exhaust the port range under 1-request/connection
            // churn and throttle the offered load.
            time_wait_ns: 250_000_000,
            ..TcpConfig::default()
        };
        let mut stack = TcpStack::new(client_ip, tcp_cfg);
        stack.set_port_range(cfg.port_range.0, cfg.port_range.1);
        let mut io = FrameIo::new(client_ip, client_mac);
        for (a, m) in arp_seed {
            io.seed_arp(a, m);
        }
        HttperfProc {
            name: name.into(),
            cfg,
            nic,
            stack,
            io,
            conns: HashMap::new(),
            armed: None,
            metrics,
            obs: ClientObs::new(),
        }
    }

    /// Open one connection. A refused `connect` (e.g. no free port in
    /// `port_range`) counts as a connection error and is not retried.
    fn open_conn(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.charge(calibration::CLIENT_CONN);
        let now = ctx.now().as_nanos();
        let Ok(sock) = self
            .stack
            .connect(self.cfg.target.0, self.cfg.target.1, now)
        else {
            self.metrics.borrow_mut().conn_errors += 1;
            self.obs.conn_errors.inc();
            return;
        };
        for &opt in &self.cfg.sock_opts {
            let _ = self.stack.set_opt(sock, opt);
        }
        self.metrics.borrow_mut().conns_opened += 1;
        self.conns.insert(
            sock,
            ConnRun {
                parser: http::StreamParser::new(),
                requests_done: 0,
                counted: 0,
                sent_at: None,
                connected: false,
            },
        );
    }

    /// Drain a connection's receive buffer through the unified readiness
    /// surface: `poll(fd)` gates the loop, `recv_vectored` pulls up to
    /// 16 KiB per call through four iovec windows.
    fn read_all(&mut self, sock: SocketId) -> Vec<u8> {
        let mut buf = [0u8; 16384];
        let mut data = Vec::new();
        while self.stack.poll(sock).readable {
            let (a, rest) = buf.split_at_mut(4096);
            let (b, rest) = rest.split_at_mut(4096);
            let (c, d) = rest.split_at_mut(4096);
            match self.stack.recv_vectored(sock, &mut [a, b, c, d]) {
                Ok(0) => break,
                Ok(n) => data.extend_from_slice(&buf[..n]),
                Err(_) => break,
            }
        }
        data
    }

    fn issue_request(&mut self, ctx: &mut Ctx<'_, Msg>, sock: SocketId) {
        ctx.charge(calibration::CLIENT_REQUEST);
        let now = ctx.now().as_nanos();
        let req = http::format_request(&self.cfg.path, true);
        let _ = self.stack.send(sock, &req);
        if let Some(run) = self.conns.get_mut(&sock) {
            run.sent_at = Some(now);
        }
    }

    fn conn_failed(&mut self, ctx: &mut Ctx<'_, Msg>, sock: SocketId) {
        if let Some(run) = self.conns.remove(&sock) {
            let mut m = self.metrics.borrow_mut();
            m.conn_errors += 1;
            m.requests_on_error_conns += run.counted;
            drop(m);
            self.obs.conn_errors.inc();
            let _ = self.stack.abort(sock);
            // Replace the connection to hold the offered load constant.
            self.open_conn(ctx);
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().as_nanos();
        // --- stack events ---
        while let Some(ev) = self.stack.poll_event() {
            match ev {
                SockEvent::Connected(sock) => {
                    if let Some(run) = self.conns.get_mut(&sock) {
                        run.connected = true;
                        self.issue_request(ctx, sock);
                    }
                }
                SockEvent::Readable(sock) => {
                    let data = self.read_all(sock);
                    ctx.charge(calibration::copy_cost(data.len()));
                    if !data.is_empty() {
                        self.metrics.borrow_mut().digest_bytes(&data);
                    }
                    let Some(run) = self.conns.get_mut(&sock) else {
                        continue;
                    };
                    run.parser.push(&data);
                    let mut finished = false;
                    while let Some(resp) = run.parser.next_response() {
                        let mut m = self.metrics.borrow_mut();
                        if let Some(t0) = run.sent_at.take() {
                            let d = now.saturating_sub(t0);
                            m.latency.record(Time::from_nanos(d));
                            self.obs.latency.observe(d);
                        }
                        m.completed += 1;
                        m.response_bytes += resp.body.len() as u64;
                        drop(m);
                        self.obs.completed.inc();
                        run.counted += 1;
                        run.requests_done += 1;
                        if run.requests_done >= self.cfg.requests_per_conn {
                            finished = true;
                            break;
                        }
                        // Next request on the persistent connection
                        // (after any configured think time).
                        if self.cfg.think_ns > 0 {
                            ctx.set_timer(Time::from_nanos(self.cfg.think_ns), TOK_THINK + sock.0);
                        } else {
                            ctx.charge(calibration::CLIENT_REQUEST);
                            let req = http::format_request(&self.cfg.path, true);
                            let _ = self.stack.send(sock, &req);
                            run.sent_at = Some(now);
                        }
                    }
                    if finished {
                        self.metrics.borrow_mut().conns_finished += 1;
                        self.conns.remove(&sock);
                        let _ = self.stack.close(sock, now);
                        self.open_conn(ctx);
                    }
                }
                SockEvent::Aborted(sock) => {
                    self.conn_failed(ctx, sock);
                }
                SockEvent::Closed(_)
                | SockEvent::PeerClosed(_)
                | SockEvent::Writable(_)
                | SockEvent::Acceptable(_) => {}
            }
        }
        // --- wire out ---
        while let Some((dst, h, payload)) = self.stack.poll_transmit(now) {
            ctx.charge(calibration::TCP_TX_SEG / 2); // fast client cores
            let seg = h.emit(&payload, self.stack.local_ip, dst);
            self.io.send_ip(dst, IpProtocol::Tcp, &seg, now);
        }
        for frame in self.io.drain() {
            ctx.send(self.nic, Msg::NetTx(frame));
        }
        // --- timers ---
        if let Some(d) = self.stack.next_timeout() {
            if self.armed.map(|a| d < a).unwrap_or(true) {
                self.armed = Some(d);
                ctx.set_timer(Time::from_nanos(d.saturating_sub(now)), TOK_STACK);
            }
        }
    }

    /// Classify one inbound frame and feed any TCP segment to the stack
    /// (no flush — callers decide when to drain).
    fn absorb_frame(&mut self, ctx: &mut Ctx<'_, Msg>, frame: &neat_net::PktBuf) {
        let now = ctx.now().as_nanos();
        if let RxClass::Tcp { src, seg } = self.io.classify_rx(frame, now) {
            ctx.charge(calibration::TCP_RX_SEG / 2);
            if let Ok((h, range)) = neat_net::TcpHeader::parse(&seg, src, self.stack.local_ip) {
                self.stack.handle_segment(src, &h, &seg[range], now);
            }
        }
    }

    fn scan_timeouts(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().as_nanos();
        let timed_out: Vec<SocketId> = self
            .conns
            .iter()
            .filter(|(_, r)| {
                r.sent_at
                    .map(|t| now.saturating_sub(t) > self.cfg.timeout_ns)
                    .unwrap_or(false)
            })
            .map(|(s, _)| *s)
            .collect();
        for sock in timed_out {
            self.conn_failed(ctx, sock);
        }
        // Also replace connections that failed to even open (SYN lost to a
        // dead replica etc. — the stack reports those via Aborted, handled
        // above).
        ctx.set_timer(Time::from_millis(50), TOK_SCAN);
    }
}

impl Process<Msg> for HttperfProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_batch(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcId, msgs: Vec<Msg>) {
        // Amortized delivery: absorb every frame in the batch, then run
        // the event/TX drain once for the whole run of responses.
        let mut deferred_drain = false;
        for msg in msgs {
            match msg {
                Msg::NetRx(frame) => {
                    self.absorb_frame(ctx, &frame);
                    deferred_drain = true;
                }
                other => self.on_event(ctx, Event::Message { from, msg: other }),
            }
        }
        if deferred_drain {
            self.drain(ctx);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            // Delivered via `on_batch` in practice; unroll defensively if a
            // batch ever reaches the scalar path.
            Event::Batch { from, msgs } => {
                for msg in msgs {
                    self.on_event(ctx, Event::Message { from, msg });
                }
            }
            Event::Start => {
                // Register with the client NIC hub (ARP/default traffic).
                ctx.send(
                    self.nic,
                    Msg::Announce {
                        queue: 0,
                        head: ctx.self_id,
                    },
                );
                // Stagger the initial opens.
                for i in 0..self.cfg.num_conns {
                    ctx.set_timer(
                        Time::from_nanos(1 + i as u64 * self.cfg.open_spacing_ns),
                        TOK_OPEN,
                    );
                }
                ctx.set_timer(Time::from_millis(50), TOK_SCAN);
            }
            Event::Timer { token } => match token {
                TOK_OPEN => {
                    self.open_conn(ctx);
                    self.drain(ctx);
                }
                TOK_SCAN => {
                    self.scan_timeouts(ctx);
                    self.drain(ctx);
                }
                t if t >= TOK_THINK => {
                    let sock = SocketId(t - TOK_THINK);
                    if self.conns.contains_key(&sock) {
                        self.issue_request(ctx, sock);
                        self.drain(ctx);
                    }
                }
                _ => {
                    self.armed = None;
                    let now = ctx.now().as_nanos();
                    self.stack.on_timer(now);
                    self.drain(ctx);
                }
            },
            Event::Message { msg, .. } => {
                if let Msg::NetRx(frame) = msg {
                    self.absorb_frame(ctx, &frame);
                    self.drain(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_sim::{MachineSpec, Sim, SimConfig};

    /// Swallows every frame the client sends: no server ever answers.
    struct BlackHole;
    impl Process<Msg> for BlackHole {
        fn name(&self) -> String {
            "blackhole".into()
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_, Msg>, _ev: Event<Msg>) {}
    }

    #[test]
    fn refused_connect_counts_as_conn_error() {
        // One ephemeral port and no server: the first connection holds the
        // port in SYN_SENT for the whole run, so the other two opens are
        // refused by the stack.
        let mut sim: Sim<Msg> = Sim::new(SimConfig::default());
        let m = sim.add_machine(MachineSpec::load_generator());
        let nic = sim.spawn(sim.hw_thread(m, 0, 0), Box::new(BlackHole));
        let cfg = HttperfConfig {
            target: (Ipv4Addr::new(10, 0, 0, 1), 80),
            num_conns: 3,
            port_range: (40_000, 40_000),
            ..HttperfConfig::default()
        };
        let metrics = Rc::new(RefCell::new(ClientMetrics::default()));
        let client = HttperfProc::new(
            "httperf.0",
            cfg,
            nic,
            Ipv4Addr::new(10, 0, 0, 2),
            MacAddr([0x02, 0, 0, 0, 0, 2]),
            Vec::new(),
            metrics.clone(),
        );
        sim.spawn(sim.hw_thread(m, 1, 0), Box::new(client));
        sim.run_until(Time::from_millis(1));
        let m = metrics.borrow();
        assert_eq!(m.conns_opened, 1);
        assert_eq!(m.conn_errors, 2);
        assert_eq!(neat_obs::counter("client.conn_errors").get(), 2);
    }
}
