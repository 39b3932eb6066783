//! The discrete-event engine: one event heap, dispatch, CPU-time
//! accounting.
//!
//! The engine owns all machines and processes and advances simulated time by
//! dispatching events in `(time, origin machine, origin sequence)` order.
//! Each dispatch:
//!
//! 1. finds the destination process's hardware thread and computes the
//!    *start* instant — after any queued work on that thread (FIFO server)
//!    and after any MWAIT wake-up if the thread was sleeping (§4);
//! 2. runs the handler to completion, letting it charge cycles and emit
//!    outputs (sends, timers, spawns, kills) through [`Ctx`];
//! 3. converts charged cycles to time at the thread's frequency, applying
//!    the SMT capacity penalty when the sibling hardware thread is busy;
//! 4. schedules the outputs at the handler's *completion* instant.
//!
//! ## Event order and determinism
//!
//! Every event carries the identity of the machine that *scheduled* it plus
//! that machine's private sequence counter, and [`Sim`] pops its single
//! heap in `(time, origin machine, origin seq)` order — a total order, so
//! same seed ⇒ same history. Each machine also owns its pid allocator
//! (pids are `(machine + 1) << 40 | local`) and its RNG stream, so a
//! machine's pids and draws depend only on its own history. A handler
//! reaches only its own machine's state through [`Ctx`]; other machines
//! hear from it by message. See DESIGN.md "Event order & determinism".
//!
//! Machine-local rules of the cost model:
//!
//! * `Ctx::spawn` targets a hardware thread of the calling process's own
//!   machine (the harness-level [`Sim::spawn`] can target any machine);
//! * `Ctx::is_alive` answers for processes of the caller's machine only;
//! * per-link coalescing applies to machine-local links only, and the
//!   MWAIT wake-up charge is paid for machine-local destinations only
//!   (cross-machine traffic is signalled by the receiving NIC's IRQ path,
//!   whose receiver-side costs the calibration already carries).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use neat_util::Rng;

use crate::calibration;
use crate::machine::{
    HwThread, HwThreadId, Machine, MachineId, MachineSpec, ThreadKind, ThreadStats,
};
use crate::process::{Event, ProcId, Process};
use crate::time::{Cycles, Time};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the simulation-wide RNG; same seed ⇒ identical history.
    /// Each machine derives an independent child stream from this seed, so
    /// draws on one machine never perturb another machine's stream.
    pub seed: u64,
    /// Per-(src,dst)-link message coalescing horizon in nanoseconds: a
    /// `send()` joins the link's open batch instead of scheduling its own
    /// delivery, and the whole batch is delivered as one wakeup no later
    /// than `batch_ns` after the batch opened. `0` disables coalescing
    /// (every message is its own delivery event, the pre-batching model).
    /// Coalescing applies to machine-local links only.
    pub batch_ns: u64,
    /// Flush an open batch early once it holds this many messages.
    pub batch_max: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xEA7_F00D,
            batch_ns: 0,
            batch_max: 32,
        }
    }
}

impl SimConfig {
    /// The batched fast path with default horizon/depth (what testbeds
    /// run); `seed` as in [`SimConfig::default`].
    pub fn batched(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            batch_ns: 2_000,
            batch_max: 32,
        }
    }
}

/// Counters for the per-link coalescing machinery (exported as `sim.batch.*`
/// gauges; also queried directly by the ablation benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches delivered because the `batch_ns` horizon expired.
    pub flush_timer: u64,
    /// Batches delivered early because they reached `batch_max` depth.
    pub flush_depth: u64,
    /// Batches closed because a later send fell past the horizon.
    pub flush_close: u64,
    /// Messages that travelled inside a multi-message batch.
    pub batched_msgs: u64,
    /// Multi-message batch deliveries (wakeups saved = batched_msgs - this).
    pub batch_deliveries: u64,
}

impl BatchStats {
    /// Mean messages per multi-message batch delivery.
    pub fn occupancy(&self) -> f64 {
        if self.batch_deliveries == 0 {
            0.0
        } else {
            self.batched_msgs as f64 / self.batch_deliveries as f64
        }
    }
}

/// One open per-link batch: messages coalescing toward a single delivery.
struct LinkBatch<M> {
    msgs: Vec<M>,
    /// Hard delivery deadline (`opened_at + batch_ns`).
    flush_at: Time,
    /// Earliest instant the batch may be delivered without violating
    /// causality: the max of its members' natural delivery times.
    /// Invariant: `ready_at <= flush_at`.
    ready_at: Time,
    /// Invalidation token for the scheduled `FlushBatch` heap event.
    epoch: u64,
}

/// The identity a scheduled event carries: which machine scheduled it and
/// that machine's private sequence number — globally unique, and computable
/// from the origin machine's local history alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Origin {
    dom: u32,
    seq: u64,
}

struct HeapEv<M> {
    time: Time,
    origin: Origin,
    kind: HeapKind<M>,
}

enum HeapKind<M> {
    /// Deliver an event to a process (immediately if its thread is free,
    /// else onto the thread's FIFO queue).
    Deliver { dst: ProcId, ev: Event<M> },
    /// A hardware thread finished its current work: pop its queue.
    ThreadResume(HwThreadId),
    /// The `batch_ns` horizon of a per-link batch expired: deliver it.
    /// Stale if the batch was already flushed (epoch mismatch).
    FlushBatch {
        src: ProcId,
        dst: ProcId,
        epoch: u64,
    },
}

impl<M> PartialEq for HeapEv<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.origin == other.origin
    }
}
impl<M> Eq for HeapEv<M> {}
impl<M> PartialOrd for HeapEv<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for HeapEv<M> {
    // BinaryHeap is a max-heap; invert so the earliest event pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.origin).cmp(&(self.time, self.origin))
    }
}

struct ProcSlot<M> {
    proc: Option<Box<dyn Process<M>>>,
    thread: HwThreadId,
    name: String,
    alive: bool,
}

/// How a process left the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DieMode {
    /// Abnormal termination — triggers the crash monitor (Table 3 path).
    Crash,
    /// Voluntary exit (lazy-termination garbage collection, §3.4).
    Exit,
}

enum Output<M> {
    Send {
        dst: ProcId,
        msg: M,
        extra_delay: Time,
    },
    Timer {
        delay: Time,
        token: u64,
    },
    Spawn {
        pid: ProcId,
        thread: HwThreadId,
        proc: Box<dyn Process<M>>,
        delay: Time,
    },
    Kill {
        pid: ProcId,
        crash: bool,
    },
}

/// Crash-monitor message constructor.
type CrashHook<M> = Box<dyn Fn(ProcId, &str) -> M>;

/// Bits reserved for a machine's local pid counter: pids are
/// `(machine + 1) << PID_DOM_SHIFT | local`, so allocation is a purely
/// machine-local operation and the owning machine can be recovered from the
/// pid itself. `ProcId(0)` stays the reserved "external" sender. Metric
/// names embed pids (e.g. `web.accepted.r1099511627783`), so the encoding
/// is part of every report.
const PID_DOM_SHIFT: u32 = 40;

fn machine_of_pid(pid: ProcId) -> u32 {
    debug_assert!(pid.0 >> PID_DOM_SHIFT != 0, "pid {pid:?} has no machine");
    (pid.0 >> PID_DOM_SHIFT) as u32 - 1
}

/// Location of a hardware thread: owning machine + index within it.
#[derive(Debug, Clone, Copy)]
struct ThreadLoc {
    dom: u32,
    idx: u32,
}

/// Machines and thread locations (fixed once processes run).
struct Topo {
    machines: Vec<Machine>,
    /// Global `HwThreadId` → (machine, local index).
    thread_loc: Vec<ThreadLoc>,
}

impl Topo {
    fn loc(&self, t: HwThreadId) -> ThreadLoc {
        self.thread_loc[t.0]
    }
}

/// The scheduling state one machine owns: everything a handler on it may
/// touch, plus the counters that feed event keys, pids and random draws.
struct MachineState<M> {
    dom: u32,
    /// Private monotone event-sequence counter (origin identity).
    seq: u64,
    /// Private pid allocator (low bits of this machine's pids).
    next_pid: u64,
    rng: Rng,
    /// This machine's hardware threads, indexed by local thread index.
    threads: Vec<HwThread>,
    /// Global ids of the local threads (export/debug naming).
    thread_ids: Vec<HwThreadId>,
    /// Per-local-thread FIFO of events waiting for the thread.
    pending: Vec<VecDeque<(ProcId, Event<M>)>>,
    /// Whether a ThreadResume marker is scheduled per local thread.
    resume_scheduled: Vec<bool>,
    procs: HashMap<ProcId, ProcSlot<M>>,
    /// Open per-link batches keyed by `(src, dst)` (machine-local links).
    batches: HashMap<(ProcId, ProcId), LinkBatch<M>>,
    batch_epoch: u64,
}

impl<M> MachineState<M> {
    fn new(dom: u32, seed: u64) -> MachineState<M> {
        // Independent per-machine stream: machine-separated SplitMix-style
        // derivation so machine k's draws are stable however many other
        // machines exist.
        let rng = Rng::seed_from_u64(seed ^ (dom as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        MachineState {
            dom,
            seq: 0,
            next_pid: 1,
            rng,
            threads: Vec::new(),
            thread_ids: Vec::new(),
            pending: Vec::new(),
            resume_scheduled: Vec::new(),
            procs: HashMap::new(),
            batches: HashMap::new(),
            batch_epoch: 0,
        }
    }

    fn alloc_pid(&mut self) -> ProcId {
        let pid = ProcId(((self.dom as u64 + 1) << PID_DOM_SHIFT) | self.next_pid);
        self.next_pid += 1;
        pid
    }

    fn next_origin(&mut self) -> Origin {
        let o = Origin {
            dom: self.dom,
            seq: self.seq,
        };
        self.seq += 1;
        o
    }

    fn ensure_thread_books(&mut self) {
        while self.pending.len() < self.threads.len() {
            self.pending.push(VecDeque::new());
            self.resume_scheduled.push(false);
        }
    }
}

#[path = "engine_dispatch.rs"]
mod engine_dispatch;

/// The simulation world.
pub struct Sim<M> {
    now: Time,
    /// Simulation seed: each machine derives its RNG stream from this.
    seed: u64,
    topo: Topo,
    /// Per-machine state, indexed by machine id.
    states: Vec<MachineState<M>>,
    /// Every pending event of every machine.
    heap: BinaryHeap<HeapEv<M>>,
    /// `(monitor process, message constructor)` notified on crashes.
    crash_monitor: Option<(ProcId, CrashHook<M>)>,
    /// Coalescing horizon (zero = batching off) and early-flush depth.
    batch_ns: Time,
    batch_max: usize,
    batch_stats: BatchStats,
    events_dispatched: u64,
    spawns: u64,
    crashes: u64,
    exits: u64,
}

impl<M: 'static> Sim<M> {
    pub fn new(config: SimConfig) -> Sim<M> {
        Sim {
            now: Time::ZERO,
            seed: config.seed,
            topo: Topo {
                machines: Vec::new(),
                thread_loc: Vec::new(),
            },
            states: Vec::new(),
            heap: BinaryHeap::new(),
            crash_monitor: None,
            batch_ns: Time(config.batch_ns),
            batch_max: config.batch_max.max(1),
            batch_stats: BatchStats::default(),
            events_dispatched: 0,
            spawns: 0,
            crashes: 0,
            exits: 0,
        }
    }

    /// Coalescing counters (occupancy, flush causes) for benches/tests.
    pub fn batch_stats(&self) -> BatchStats {
        self.batch_stats
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Schedule delivery of `ev` to `dst` at `time`, keyed by the next
    /// sequence number of machine `origin_dom`.
    fn push(&mut self, origin_dom: usize, time: Time, dst: ProcId, ev: Event<M>) {
        let origin = self.states[origin_dom].next_origin();
        self.heap.push(HeapEv {
            time,
            origin,
            kind: HeapKind::Deliver { dst, ev },
        });
    }

    /// Add a machine; its hardware threads are created immediately.
    pub fn add_machine(&mut self, spec: MachineSpec) -> MachineId {
        let id = MachineId(self.topo.machines.len());
        let dom = id.0 as u32;
        let mut d = MachineState::new(dom, self.seed);
        let mut thread_ids = Vec::new();
        for core in 0..spec.cores {
            let base = self.topo.thread_loc.len();
            for t in 0..spec.threads_per_core {
                let tid = HwThreadId(self.topo.thread_loc.len());
                let sibling = if spec.threads_per_core == 2 {
                    // Sibling is the other thread of this core; fix up below.
                    Some(HwThreadId(base + (1 - t as usize)))
                } else {
                    None
                };
                self.topo.thread_loc.push(ThreadLoc {
                    dom,
                    idx: d.threads.len() as u32,
                });
                d.threads.push(HwThread {
                    machine: id,
                    core,
                    thread: t,
                    kind: ThreadKind::Cpu,
                    freq: spec.freq,
                    sibling,
                    busy_until: Time::ZERO,
                    stats: ThreadStats::default(),
                    stats_since: Time::ZERO,
                    util_ewma: 0.0,
                    util_at: Time::ZERO,
                });
                d.thread_ids.push(tid);
                thread_ids.push(tid);
            }
        }
        d.ensure_thread_books();
        self.states.push(d);
        self.topo.machines.push(Machine {
            id,
            spec,
            threads: thread_ids,
        });
        id
    }

    /// Add a device engine (e.g. a NIC pipeline) to a machine. Device
    /// threads charge wall time directly and never sleep.
    pub fn add_device_thread(&mut self, machine: MachineId) -> HwThreadId {
        let tid = HwThreadId(self.topo.thread_loc.len());
        let dom = machine.0 as u32;
        let d = &mut self.states[machine.0];
        self.topo.thread_loc.push(ThreadLoc {
            dom,
            idx: d.threads.len() as u32,
        });
        d.threads.push(HwThread {
            machine,
            core: u32::MAX,
            thread: 0,
            kind: ThreadKind::Device,
            freq: self.topo.machines[machine.0].spec.freq,
            sibling: None,
            busy_until: Time::ZERO,
            stats: ThreadStats::default(),
            stats_since: Time::ZERO,
            util_ewma: 0.0,
            util_at: Time::ZERO,
        });
        d.thread_ids.push(tid);
        d.ensure_thread_books();
        tid
    }

    /// Total hardware threads across all machines (global ids are
    /// `0..num_hw_threads()`).
    pub fn num_hw_threads(&self) -> usize {
        self.topo.thread_loc.len()
    }

    /// Hardware-thread id for `(machine, core, thread)`.
    pub fn hw_thread(&self, machine: MachineId, core: u32, thread: u32) -> HwThreadId {
        self.topo.machines[machine.0].thread(core, thread)
    }

    /// The machine a hardware thread belongs to.
    pub fn machine_of_thread(&self, t: HwThreadId) -> MachineId {
        MachineId(self.topo.loc(t).dom as usize)
    }

    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.topo.machines[id.0]
    }

    /// Spawn a process pinned to a hardware thread; it receives
    /// [`Event::Start`] at the current time. Harness-level: may target any
    /// machine (handler-level [`Ctx::spawn`] is machine-local).
    pub fn spawn(&mut self, thread: HwThreadId, proc: Box<dyn Process<M>>) -> ProcId {
        let dom = self.topo.loc(thread).dom as usize;
        let pid = self.states[dom].alloc_pid();
        self.insert_proc(pid, thread, proc);
        self.push(dom, self.now, pid, Event::Start);
        pid
    }

    /// Inject a message from "outside" (harness code) into a process.
    pub fn send_external(&mut self, dst: ProcId, msg: M) {
        let dom = machine_of_pid(dst) as usize;
        self.push(
            dom,
            self.now + calibration::CHANNEL_LATENCY,
            dst,
            Event::Message {
                from: ProcId(0),
                msg,
            },
        );
    }

    /// Register the process to be notified (via a constructed message) when
    /// any other process crashes — the reincarnation-server role.
    pub fn set_crash_monitor(
        &mut self,
        monitor: ProcId,
        hook: impl Fn(ProcId, &str) -> M + 'static,
    ) {
        self.crash_monitor = Some((monitor, Box::new(hook)));
    }

    /// Is the process still alive? (Harness-level: any machine.)
    pub fn is_alive(&self, pid: ProcId) -> bool {
        let dom = machine_of_pid(pid) as usize;
        self.states
            .get(dom)
            .and_then(|d| d.procs.get(&pid))
            .map(|s| s.alive)
            .unwrap_or(false)
    }

    pub fn proc_name(&self, pid: ProcId) -> Option<&str> {
        let dom = machine_of_pid(pid) as usize;
        self.states
            .get(dom)?
            .procs
            .get(&pid)
            .map(|s| s.name.as_str())
    }

    pub fn proc_thread(&self, pid: ProcId) -> Option<HwThreadId> {
        let dom = machine_of_pid(pid) as usize;
        self.states.get(dom)?.procs.get(&pid).map(|s| s.thread)
    }

    fn thread_ref(&self, tid: HwThreadId) -> &HwThread {
        let loc = self.topo.loc(tid);
        &self.states[loc.dom as usize].threads[loc.idx as usize]
    }

    /// Activity statistics of a hardware thread since the last reset.
    pub fn thread_stats(&self, tid: HwThreadId) -> ThreadStats {
        self.thread_ref(tid).stats
    }

    pub fn thread_stats_since(&self, tid: HwThreadId) -> Time {
        self.thread_ref(tid).stats_since
    }

    /// Reset activity accounting on all threads (start of a measurement
    /// window).
    pub fn reset_all_stats(&mut self) {
        let now = self.now;
        for d in &mut self.states {
            for t in &mut d.threads {
                t.reset_stats(now);
            }
        }
    }

    /// Export per-hardware-thread activity and engine totals into the
    /// `neat_obs` metrics registry as gauges (`cpu.t<idx>.*`, `sim.*`).
    /// Called by the harness at the end of a measurement window so the
    /// bench reports carry the paper's Table-2-style CPU breakdowns.
    pub fn export_obs(&self) {
        for (idx, loc) in self.topo.thread_loc.iter().enumerate() {
            let t = &self.states[loc.dom as usize].threads[loc.idx as usize];
            if t.stats.events == 0 && t.stats.active_ns() == 0 {
                continue; // unused thread: keep the snapshot compact
            }
            let elapsed = self.now.since(t.stats_since);
            let p = |what: &str| format!("cpu.t{idx}.{what}");
            neat_obs::gauge_set(&p("load"), t.stats.load(elapsed));
            neat_obs::gauge_set(&p("busy_ns"), t.stats.busy_ns as f64);
            neat_obs::gauge_set(&p("poll_ns"), t.stats.poll_ns as f64);
            neat_obs::gauge_set(&p("kernel_ns"), t.stats.kernel_ns as f64);
            neat_obs::gauge_set(&p("events"), t.stats.events as f64);
            neat_obs::gauge_set(&p("sleeps"), t.stats.sleeps as f64);
            neat_obs::gauge_set(&p("max_queue"), t.stats.max_queue as f64);
        }
        neat_obs::gauge_set("sim.now_ns", self.now.as_nanos() as f64);
        neat_obs::gauge_set("sim.events_dispatched", self.events_dispatched() as f64);
        neat_obs::gauge_set("sim.heap_len", self.heap.len() as f64);
        neat_obs::gauge_set(
            "sim.live_procs",
            self.states
                .iter()
                .flat_map(|d| d.procs.values())
                .filter(|s| s.alive)
                .count() as f64,
        );
        neat_obs::gauge_set("sim.spawns", self.spawns as f64);
        neat_obs::gauge_set("sim.crashes", self.crashes as f64);
        neat_obs::gauge_set("sim.exits", self.exits as f64);
        let b = self.batch_stats;
        neat_obs::gauge_set("sim.batch.flush_timer", b.flush_timer as f64);
        neat_obs::gauge_set("sim.batch.flush_depth", b.flush_depth as f64);
        neat_obs::gauge_set("sim.batch.flush_close", b.flush_close as f64);
        neat_obs::gauge_set("sim.batch.batched_msgs", b.batched_msgs as f64);
        neat_obs::gauge_set("sim.batch.deliveries", b.batch_deliveries as f64);
        neat_obs::gauge_set("sim.batch.occupancy", b.occupancy());
    }

    /// Run until the event queue is exhausted or simulated time reaches
    /// `until`. Returns the number of events dispatched.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let mut dispatched = 0u64;
        while self.heap.peek().is_some_and(|top| top.time <= until) {
            let ev = self.heap.pop().unwrap();
            self.now = ev.time;
            self.dispatch(ev);
            dispatched += 1;
        }
        self.events_dispatched += dispatched;
        if self.now < until {
            self.now = until;
        }
        dispatched
    }
}

/// The capability handle a process receives while handling an event.
///
/// Everything a process can do to the outside world goes through this —
/// there is no other channel, which is what makes the isolation claim of
/// the design hold by construction in this reproduction. All state it can
/// reach directly belongs to the executing process's machine; effects on
/// other machines travel as messages.
pub struct Ctx<'a, M> {
    dom: &'a mut MachineState<M>,
    topo: &'a Topo,
    batching: bool,
    sender_kind: ThreadKind,
    /// The process currently executing.
    pub self_id: ProcId,
    start: Time,
    charged: Cycles,
    charged_ns: u64,
    outputs: Vec<Output<M>>,
    die: Option<DieMode>,
    /// Local thread indices already charged a wake store in this handler:
    /// the MWAIT wake is paid once per sleeping destination per wakeup,
    /// not per message (the batching amortization of §3.4).
    woken_threads: Vec<usize>,
    /// Destination of the previous `send` in this handler: an immediate
    /// follow-up send to the same process appends to the same channel run
    /// and is charged [`calibration::MSG_SEND_APPEND`] instead of the full
    /// [`calibration::MSG_SEND`].
    last_send_dst: Option<ProcId>,
}

impl<'a, M: 'static> Ctx<'a, M> {
    /// The instant this handler began executing (after queueing + wake-up).
    pub fn now(&self) -> Time {
        self.start
    }

    /// Charge CPU work in cycles (converted at the owning thread's clock).
    pub fn charge(&mut self, cycles: Cycles) {
        self.charged += cycles;
    }

    /// Charge wall-clock time directly (device engines: DMA, serialization).
    pub fn charge_ns(&mut self, ns: u64) {
        self.charged_ns += ns;
    }

    /// Send a message to another process. Costs [`calibration::MSG_SEND`]
    /// plus a wake-up store if the destination is asleep.
    pub fn send(&mut self, dst: ProcId, msg: M) {
        self.send_delayed(dst, msg, Time::ZERO);
    }

    /// Send with additional delivery delay (wire propagation etc.).
    pub fn send_delayed(&mut self, dst: ProcId, msg: M, extra_delay: Time) {
        // A run of sends to the same destination shares one doorbell/fence;
        // only the first pays the full channel-enqueue cost.
        self.charged += if self.last_send_dst == Some(dst) {
            calibration::MSG_SEND_APPEND
        } else {
            calibration::MSG_SEND
        };
        self.last_send_dst = Some(dst);
        // No coalescer to defer the receiver kick to: each local channel
        // message pays its own kernel-call-class notification (§3.4 — the
        // scalar, pre-batching model). Device engines signal via IRQ,
        // which the receiver-side cold descriptor costs already model.
        if !self.batching && extra_delay.as_nanos() == 0 && self.sender_kind == ThreadKind::Cpu {
            self.charged += calibration::MSG_NOTIFY;
        }
        // The MWAIT wake store applies to machine-local destinations only:
        // a cross-machine send reaches the peer through its NIC, whose IRQ
        // path the receiver-side costs already model.
        if machine_of_pid(dst) == self.dom.dom {
            if let Some(slot) = self.dom.procs.get(&dst) {
                let lt = self.topo.loc(slot.thread).idx as usize;
                let th = &self.dom.threads[lt];
                if th.kind == ThreadKind::Cpu
                    && th.busy_until + calibration::SPIN_POLL_WINDOW < self.start
                    && !self.woken_threads.contains(&lt)
                {
                    // Destination thread is (by now) asleep: pay the wake
                    // store — once per handler per thread; later messages
                    // in the same burst find it already waking.
                    self.woken_threads.push(lt);
                    self.charged += calibration::WAKE_REMOTE;
                }
            }
        }
        self.outputs.push(Output::Send {
            dst,
            msg,
            extra_delay,
        });
    }

    /// Arrange for [`Event::Timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.outputs.push(Output::Timer { delay, token });
    }

    /// Spawn a new process (returns its pid immediately; it starts after
    /// `delay` — process creation is not free, §3.4). The target thread
    /// must belong to the calling process's machine: remote-machine
    /// process management goes through a message to a peer on that
    /// machine (or the harness between runs), never directly: the pid
    /// comes from this machine's allocator.
    pub fn spawn(&mut self, thread: HwThreadId, proc: Box<dyn Process<M>>, delay: Time) -> ProcId {
        assert_eq!(
            self.topo.loc(thread).dom,
            self.dom.dom,
            "Ctx::spawn targets a thread on another machine; spawn via a \
             process on that machine or from the harness instead"
        );
        let pid = self.dom.alloc_pid();
        self.outputs.push(Output::Spawn {
            pid,
            thread,
            proc,
            delay,
        });
        pid
    }

    /// Forcibly terminate another process (supervisor use only).
    pub fn kill(&mut self, pid: ProcId, crash: bool) {
        self.outputs.push(Output::Kill { pid, crash });
    }

    /// Terminate this process abnormally: all its state is lost and the
    /// crash monitor is notified. Used by fault injection (Table 3).
    pub fn crash_self(&mut self) {
        self.die = Some(DieMode::Crash);
    }

    /// Terminate this process voluntarily (lazy-termination GC, §3.4).
    pub fn exit_self(&mut self) {
        self.die = Some(DieMode::Exit);
    }

    /// This machine's deterministic RNG stream (independent per machine,
    /// derived from the simulation seed).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.dom.rng
    }

    /// Hardware-thread lookup helper for spawning onto specific cores.
    pub fn hw_thread(&self, machine: MachineId, core: u32, thread: u32) -> HwThreadId {
        self.topo.machines[machine.0].thread(core, thread)
    }

    /// Is another process on this machine currently alive? (Used by the
    /// driver to avoid queueing packets to a crashed replica.) Liveness of
    /// remote-machine processes is not observable from a handler — that
    /// information travels by message.
    pub fn is_alive(&self, pid: ProcId) -> bool {
        assert_eq!(
            machine_of_pid(pid),
            self.dom.dom,
            "Ctx::is_alive queried a process on another machine; liveness \
             is machine-local"
        );
        self.dom.procs.get(&pid).map(|s| s.alive).unwrap_or(false)
    }
}
#[cfg(test)]
#[path = "engine_tests.rs"]
mod tests;
