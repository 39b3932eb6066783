//! The application-side POSIX socket library (§3.2–§3.3).
//!
//! Embedded in every application process, this is the layer that makes
//! replication invisible: applications deal in file descriptors; the
//! library maps them to `(replica, socket)` handles, replicates listeners
//! via the SYSCALL server, picks a *random* replica for every active open
//! (the load-balancing-cum-security property of §3.8), and heals its
//! bookkeeping when the supervisor reports replica restarts.
//!
//! The API is errno-shaped: every fallible operation returns
//! `Result<_, SockErr>`, and readiness is queried through the unified
//! non-blocking `poll(fd) -> Readiness` surface shared with
//! [`neat_tcp::TcpStack::poll`]. Incoming bytes are buffered per fd and
//! pulled with [`SocketLib::recv`] — [`LibEvent`] is only the wakeup
//! channel, it never carries payload.

use crate::msg::{ConnHandle, Msg};
use neat_sim::{Ctx, ProcId};
use std::collections::{HashMap, HashSet, VecDeque};

pub use neat_tcp::Readiness;
pub use neat_tcp::{SockOpt, SockOptKind};

/// An application-level file descriptor.
pub type Fd = u32;

/// Errno-like error type for every socket-library operation. `TcpError`
/// from the in-stack engine maps into this at the stack boundary so
/// applications see exactly one error vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockErr {
    /// The operation cannot make progress now (no data, no buffer room).
    WouldBlock,
    /// The fd is unknown or not (yet) bound to a connection.
    NotConnected,
    /// The connection was reset/aborted by the peer or the stack.
    ConnReset,
    /// The remote end refused the connection.
    ConnRefused,
    /// The replica owning the socket crashed with the operation in flight.
    ReplicaLost,
    /// The local address/port is already in use.
    AddrInUse,
    /// No ephemeral ports left.
    NoPorts,
    /// The operation is invalid in the socket's current state.
    BadState,
    /// The connection timed out (retransmission limit).
    TimedOut,
    /// The stack's connection-memory budget is exhausted (ENOMEM/ENOBUFS).
    NoMemory,
}

impl From<neat_tcp::TcpError> for SockErr {
    fn from(e: neat_tcp::TcpError) -> SockErr {
        use neat_tcp::TcpError as T;
        match e {
            T::NoSocket => SockErr::NotConnected,
            T::BadState => SockErr::BadState,
            T::AddrInUse => SockErr::AddrInUse,
            T::NoPorts => SockErr::NoPorts,
            T::WouldBlock => SockErr::WouldBlock,
            T::Reset => SockErr::ConnReset,
            T::TimedOut => SockErr::TimedOut,
            T::NoMemory => SockErr::NoMemory,
        }
    }
}

impl std::fmt::Display for SockErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for SockErr {}

/// Events the library surfaces to application logic. Pure notifications:
/// data itself is pulled with [`SocketLib::recv`] after a `Readable`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibEvent {
    /// `listen()` completed on all replicas.
    ListenReady { port: u16 },
    /// A connection was accepted on a listening port.
    Accepted { fd: Fd, port: u16 },
    /// An active open completed.
    Connected { fd: Fd },
    /// An active open failed (`ReplicaLost` when the chosen replica
    /// crashed between SYN and completion).
    ConnectFailed { fd: Fd, err: SockErr },
    /// Readiness changed: poll the fd and drain it with `recv`.
    Readable { fd: Fd },
    /// Fully closed. `err` is `None` for a clean close, `ConnReset` for
    /// RST/timeout, `ReplicaLost` when the owning replica crashed.
    Closed { fd: Fd, err: Option<SockErr> },
}

/// Per-fd receive-side state: bytes delivered by the stack but not yet
/// pulled by the application, plus the EOF latch.
#[derive(Debug, Default)]
struct RxState {
    buf: VecDeque<u8>,
    eof: bool,
}

/// Retained tail of recently written bytes, kept per fd so a migrated
/// connection can resend whatever the old replica accepted after its last
/// replication checkpoint (the `app_bytes` gap in [`Msg::ConnMigrated`]).
const TX_TAIL_CAP: usize = 64 * 1024;

/// Per-fd transmit-side bookkeeping for transparent migration.
#[derive(Debug, Default)]
struct TxState {
    /// Total bytes ever written on this fd.
    sent_total: u64,
    /// The last up-to-[`TX_TAIL_CAP`] of those bytes.
    tail: VecDeque<u8>,
}

/// Per-process socket library state.
#[derive(Debug)]
pub struct SocketLib {
    syscall: ProcId,
    supervisor: Option<ProcId>,
    /// Socket-owning heads of the live replicas.
    replicas: Vec<ProcId>,
    listen_ports: Vec<u16>,
    conn_of: HashMap<Fd, ConnHandle>,
    fd_of: HashMap<ConnHandle, Fd>,
    rx: HashMap<Fd, RxState>,
    tx: HashMap<Fd, TxState>,
    /// Stacks reported dead by the supervisor. In-flight messages from
    /// them (e.g. an `Incoming` racing the crash report) must not bind a
    /// fresh fd to a handle that can never carry data again.
    dead_stacks: HashSet<ProcId>,
    next_fd: Fd,
    next_token: u64,
    /// In-flight active opens: token → (fd, chosen replica). Recording the
    /// replica is what lets a crash between SYN and `Connected` be
    /// reconciled against the supervisor's restart report instead of
    /// leaking the entry forever.
    pending_connect: HashMap<u64, (Fd, ProcId)>,
    /// Last-set per-fd socket options: the library-side shadow `get_opt`
    /// answers from, and the flush source when an option is set while the
    /// `connect()` is still in flight (applied as soon as the fd binds).
    opts: HashMap<Fd, Vec<SockOpt>>,
    /// Connections lost to replica crashes (reliability accounting).
    pub lost_to_crash: u64,
    registered: bool,
    /// When set, all per-connection operations route to this process
    /// instead of the handle's owner (the monolith's "syscalls run on the
    /// caller's core" semantics).
    route_override: Option<ProcId>,
}

impl SocketLib {
    pub fn new(syscall: ProcId, replicas: Vec<ProcId>, supervisor: Option<ProcId>) -> SocketLib {
        SocketLib {
            syscall,
            supervisor,
            replicas,
            listen_ports: Vec::new(),
            conn_of: HashMap::new(),
            fd_of: HashMap::new(),
            rx: HashMap::new(),
            tx: HashMap::new(),
            dead_stacks: HashSet::new(),
            next_fd: 3, // 0..2 are stdio, of course
            next_token: 1,
            pending_connect: HashMap::new(),
            opts: HashMap::new(),
            lost_to_crash: 0,
            registered: false,
            route_override: None,
        }
    }

    /// Route all connection operations through `pid` (monolith mode: the
    /// kernel context on the application's own core).
    pub fn set_route(&mut self, pid: ProcId) {
        self.route_override = Some(pid);
    }

    /// Register with the supervisor for lifecycle notifications. Call once
    /// from the process's `Start` handler.
    pub fn init(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.registered {
            self.registered = true;
            if let Some(sup) = self.supervisor {
                ctx.send(sup, Msg::RegisterApp { app: ctx.self_id });
            }
        }
    }

    /// POSIX `listen()`: replicate across all stack replicas via SYSCALL.
    /// With `syscall == ProcId(0)` (monolith mode) the listen goes straight
    /// to the kernel context instead.
    pub fn listen(&mut self, ctx: &mut Ctx<'_, Msg>, port: u16) -> Result<(), SockErr> {
        if self.listen_ports.contains(&port) {
            return Err(SockErr::AddrInUse);
        }
        ctx.charge(neat_sim::calibration::SYSCALL_CLIENT);
        self.listen_ports.push(port);
        if self.syscall == ProcId(0) {
            for r in self.replicas.clone() {
                ctx.send(
                    r,
                    Msg::Listen {
                        port,
                        app: ctx.self_id,
                    },
                );
            }
        } else {
            ctx.send(
                self.syscall,
                Msg::SysListen {
                    port,
                    app: ctx.self_id,
                },
            );
        }
        Ok(())
    }

    /// POSIX `connect()`: bind a fresh fd to a *randomly chosen* replica
    /// (§3.8: "binding each connection to a random replica").
    pub fn connect(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        remote: (std::net::Ipv4Addr, u16),
    ) -> Result<Fd, SockErr> {
        if self.replicas.is_empty() {
            return Err(SockErr::NotConnected);
        }
        let fd = self.alloc_fd();
        let token = self.next_token;
        self.next_token += 1;
        let idx = ctx.rng().gen_range(0..self.replicas.len());
        let replica = self.replicas[idx];
        self.pending_connect.insert(token, (fd, replica));
        ctx.send(
            replica,
            Msg::Connect {
                remote,
                app: ctx.self_id,
                token,
            },
        );
        Ok(fd)
    }

    /// POSIX `write()` on a connection fd. Returns the bytes queued.
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        fd: Fd,
        data: Vec<u8>,
    ) -> Result<usize, SockErr> {
        let Some(conn) = self.conn_of.get(&fd) else {
            return Err(SockErr::NotConnected);
        };
        let len = data.len();
        ctx.charge(neat_sim::calibration::copy_cost(len));
        let to = self.route_override.unwrap_or(conn.stack);
        let tx = self.tx.entry(fd).or_default();
        tx.sent_total += len as u64;
        // Only the last TX_TAIL_CAP bytes can survive the trim.
        tx.tail.extend(&data[len.saturating_sub(TX_TAIL_CAP)..]);
        let excess = tx.tail.len().saturating_sub(TX_TAIL_CAP);
        tx.tail.drain(..excess);
        ctx.send(
            to,
            Msg::ConnSend {
                sock: conn.sock,
                data,
            },
        );
        Ok(len)
    }

    /// POSIX `close()` on a connection fd.
    pub fn close(&mut self, ctx: &mut Ctx<'_, Msg>, fd: Fd) -> Result<(), SockErr> {
        let Some(conn) = self.conn_of.get(&fd) else {
            return Err(SockErr::NotConnected);
        };
        let to = self.route_override.unwrap_or(conn.stack);
        ctx.send(to, Msg::ConnClose { sock: conn.sock });
        Ok(())
    }

    /// POSIX `setsockopt()` on a connection fd: select the congestion
    /// algorithm, override the initial cwnd, or resize the receive
    /// buffer. Options set while the `connect()` is still in flight are
    /// buffered and applied the moment the fd binds; on a bound fd the
    /// option reaches the owning replica immediately.
    pub fn set_opt(&mut self, ctx: &mut Ctx<'_, Msg>, fd: Fd, opt: SockOpt) -> Result<(), SockErr> {
        let bound = self.conn_of.contains_key(&fd);
        let pending = self.pending_connect.values().any(|&(pfd, _)| pfd == fd);
        if !bound && !pending {
            return Err(SockErr::NotConnected);
        }
        let shadow = self.opts.entry(fd).or_default();
        match shadow.iter_mut().find(|o| o.kind() == opt.kind()) {
            Some(slot) => *slot = opt,
            None => shadow.push(opt),
        }
        if let Some(conn) = self.conn_of.get(&fd) {
            let to = self.route_override.unwrap_or(conn.stack);
            ctx.send(
                to,
                Msg::SetSockOpt {
                    sock: conn.sock,
                    opt,
                },
            );
        }
        Ok(())
    }

    /// POSIX `getsockopt()`: read back the last value set on this fd.
    /// Answers from the library-side shadow (no slow-path round trip);
    /// `None` means the option was never set here, i.e. the stack default
    /// applies.
    pub fn get_opt(&self, fd: Fd, kind: SockOptKind) -> Option<SockOpt> {
        self.opts
            .get(&fd)?
            .iter()
            .copied()
            .find(|o| o.kind() == kind)
    }

    /// Flush options set before the fd was bound to its connection.
    fn flush_opts(&mut self, ctx: &mut Ctx<'_, Msg>, fd: Fd) {
        let Some(conn) = self.conn_of.get(&fd) else {
            return;
        };
        let to = self.route_override.unwrap_or(conn.stack);
        let sock = conn.sock;
        for &opt in self.opts.get(&fd).into_iter().flatten() {
            ctx.send(to, Msg::SetSockOpt { sock, opt });
        }
    }

    /// Unified non-blocking readiness query. Mirrors `poll(2)` semantics:
    /// `readable` is also set at EOF so the reader observes it via `recv`.
    pub fn poll(&self, fd: Fd) -> Readiness {
        let bound = self.conn_of.contains_key(&fd);
        match self.rx.get(&fd) {
            Some(st) => Readiness {
                readable: !st.buf.is_empty() || st.eof,
                writable: bound,
                hup: st.eof || !bound,
            },
            None => Readiness {
                readable: false,
                writable: bound,
                hup: !bound,
            },
        }
    }

    /// Non-blocking read: drain everything buffered for `fd`. `Ok` with an
    /// empty vec means EOF; `Err(WouldBlock)` means no data yet.
    pub fn recv(&mut self, ctx: &mut Ctx<'_, Msg>, fd: Fd) -> Result<Vec<u8>, SockErr> {
        if !self.conn_of.contains_key(&fd) && !self.rx.contains_key(&fd) {
            return Err(SockErr::NotConnected);
        }
        let st = self.rx.entry(fd).or_default();
        if st.buf.is_empty() {
            return if st.eof {
                Ok(Vec::new()) // EOF, like read() == 0
            } else {
                Err(SockErr::WouldBlock)
            };
        }
        let data: Vec<u8> = std::mem::take(&mut st.buf).into();
        // The app-side copy out of the stack's buffers is the one copy the
        // zero-copy frame plane cannot elide.
        ctx.charge(neat_sim::calibration::copy_cost(data.len()));
        Ok(data)
    }

    fn alloc_fd(&mut self) -> Fd {
        let fd = self.next_fd;
        self.next_fd += 1;
        fd
    }

    fn bind(&mut self, conn: ConnHandle, fd: Fd) {
        self.conn_of.insert(fd, conn);
        self.fd_of.insert(conn, fd);
    }

    fn unbind(&mut self, conn: &ConnHandle) -> Option<Fd> {
        let fd = self.fd_of.remove(conn)?;
        self.conn_of.remove(&fd);
        self.rx.remove(&fd);
        self.tx.remove(&fd);
        self.opts.remove(&fd);
        Some(fd)
    }

    pub fn open_conns(&self) -> usize {
        self.conn_of.len()
    }

    pub fn replica_of(&self, fd: Fd) -> Option<ProcId> {
        self.conn_of.get(&fd).map(|c| c.stack)
    }

    /// In-flight `connect()`s that have not completed yet (diagnostics;
    /// the crash-reconciliation tests assert this drains).
    pub fn pending_connects(&self) -> usize {
        self.pending_connect.len()
    }

    /// Translate one inbound message into library events. Unrecognized
    /// messages yield no events (the app handles them itself).
    pub fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: &Msg) -> Vec<LibEvent> {
        match msg {
            Msg::SysListenDone { port } => vec![LibEvent::ListenReady { port: *port }],
            Msg::ListenOk { port } if self.syscall == ProcId(0) => {
                vec![LibEvent::ListenReady { port: *port }]
            }
            Msg::Incoming { port, conn } => {
                if self.dead_stacks.contains(&conn.stack) {
                    // The accept raced the owning replica's crash report:
                    // binding it would leak an fd that can never progress.
                    return vec![];
                }
                let fd = self.alloc_fd();
                self.bind(*conn, fd);
                vec![LibEvent::Accepted { fd, port: *port }]
            }
            Msg::ConnOpen { conn, token } => match self.pending_connect.remove(token) {
                Some((fd, _)) => {
                    self.bind(*conn, fd);
                    self.flush_opts(ctx, fd);
                    vec![LibEvent::Connected { fd }]
                }
                None => vec![],
            },
            Msg::ConnFailed { token } => match self.pending_connect.remove(token) {
                Some((fd, _)) => {
                    self.opts.remove(&fd);
                    vec![LibEvent::ConnectFailed {
                        fd,
                        err: SockErr::ConnRefused,
                    }]
                }
                None => vec![],
            },
            Msg::ConnData { conn, data } => match self.fd_of.get(conn) {
                Some(&fd) => {
                    let st = self.rx.entry(fd).or_default();
                    st.buf.extend(data.iter());
                    vec![LibEvent::Readable { fd }]
                }
                None => vec![],
            },
            Msg::ConnEof { conn } => match self.fd_of.get(conn) {
                Some(&fd) => {
                    self.rx.entry(fd).or_default().eof = true;
                    vec![LibEvent::Readable { fd }]
                }
                None => vec![],
            },
            Msg::ConnClosed { conn, aborted } => match self.unbind(conn) {
                Some(fd) => vec![LibEvent::Closed {
                    fd,
                    err: aborted.then_some(SockErr::ConnReset),
                }],
                None => vec![],
            },
            Msg::ConnMigrated {
                old,
                new,
                app_bytes,
            } => {
                // The connection moved (failover or live migration): rebind
                // the fd, then resend whatever the app wrote that the
                // restored state never saw. No event — the application is
                // not supposed to notice.
                let Some(fd) = self.fd_of.remove(old) else {
                    return vec![];
                };
                self.conn_of.insert(fd, *new);
                self.fd_of.insert(*new, fd);
                let gap = self
                    .tx
                    .get(&fd)
                    .map(|t| t.sent_total.saturating_sub(*app_bytes))
                    .unwrap_or(0);
                if gap == 0 {
                    return vec![];
                }
                let tail_bytes = match self.tx.get_mut(&fd) {
                    Some(t) if gap as usize <= t.tail.len() => {
                        let skip = t.tail.len() - gap as usize;
                        t.tail.make_contiguous()[skip..].to_vec()
                    }
                    _ => {
                        // The gap outruns the retained tail: the stream
                        // cannot be made whole, so surface a reset.
                        if let Some(fd) = self.unbind(new) {
                            self.lost_to_crash += 1;
                            return vec![LibEvent::Closed {
                                fd,
                                err: Some(SockErr::ConnReset),
                            }];
                        }
                        return vec![];
                    }
                };
                let to = self.route_override.unwrap_or(new.stack);
                ctx.charge(neat_sim::calibration::copy_cost(tail_bytes.len()));
                ctx.send(
                    to,
                    Msg::ConnSend {
                        sock: new.sock,
                        data: tail_bytes,
                    },
                );
                vec![]
            }
            Msg::ReplicaRestarted { old, new } => {
                // Handles still on the dead replica are gone — either
                // stateless recovery (§3.6) or the flows buddy replication
                // could not restore. Reap them *eagerly*: free the fd and
                // its buffers now and tell the app with a reset, instead of
                // leaving entries to be discovered on the next poll.
                self.dead_stacks.insert(*old);
                let dead: Vec<ConnHandle> = self
                    .fd_of
                    .keys()
                    .filter(|c| c.stack == *old)
                    .copied()
                    .collect();
                let mut evs = Vec::new();
                for conn in dead {
                    if let Some(fd) = self.unbind(&conn) {
                        self.lost_to_crash += 1;
                        evs.push(LibEvent::Closed {
                            fd,
                            err: Some(SockErr::ConnReset),
                        });
                    }
                }
                // Reconcile in-flight connects against the restart report:
                // a SYN sent to the dead replica will never be answered, so
                // fail those fds instead of leaking their tokens.
                let orphaned: Vec<u64> = self
                    .pending_connect
                    .iter()
                    .filter(|(_, (_, replica))| replica == old)
                    .map(|(tok, _)| *tok)
                    .collect();
                for tok in orphaned {
                    if let Some((fd, _)) = self.pending_connect.remove(&tok) {
                        self.lost_to_crash += 1;
                        evs.push(LibEvent::ConnectFailed {
                            fd,
                            err: SockErr::ReplicaLost,
                        });
                    }
                }
                for r in &mut self.replicas {
                    if *r == *old {
                        *r = *new;
                    }
                }
                // Re-establish listening subsockets on the new replica.
                for port in self.listen_ports.clone() {
                    ctx.send(
                        *new,
                        Msg::Listen {
                            port,
                            app: ctx.self_id,
                        },
                    );
                }
                evs
            }
            Msg::ReplicaAdded { stack } => {
                self.replicas.push(*stack);
                for port in self.listen_ports.clone() {
                    ctx.send(
                        *stack,
                        Msg::Listen {
                            port,
                            app: ctx.self_id,
                        },
                    );
                }
                vec![]
            }
            Msg::ReplicaRemoved { stack } => {
                self.replicas.retain(|r| r != stack);
                self.dead_stacks.insert(*stack);
                // An orderly removal drains (or migrates) every connection
                // first, so normally nothing is bound here. If the replica
                // died mid-drain, its remaining handles are gone: reap them
                // eagerly, as in the restart path.
                let dead: Vec<ConnHandle> = self
                    .fd_of
                    .keys()
                    .filter(|c| c.stack == *stack)
                    .copied()
                    .collect();
                let mut evs = Vec::new();
                for conn in dead {
                    if let Some(fd) = self.unbind(&conn) {
                        self.lost_to_crash += 1;
                        evs.push(LibEvent::Closed {
                            fd,
                            err: Some(SockErr::ConnReset),
                        });
                    }
                }
                evs
            }
            _ => vec![],
        }
    }
}
