//! Tests for the discrete-event engine (out-of-line so `engine.rs`
//! stays within the CI module-size guard; `#[path]` inclusion keeps
//! private-item access).

use super::*;

#[derive(Debug)]
enum TMsg {
    Ping(u32),
    Pong(u32),
    Die,
}

struct Echo {
    got: Vec<u32>,
}
impl Process<TMsg> for Echo {
    fn name(&self) -> String {
        "echo".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
        if let Event::Message { from, msg } = ev {
            match msg {
                TMsg::Ping(n) => {
                    self.got.push(n);
                    ctx.charge(1000);
                    ctx.send(from, TMsg::Pong(n));
                }
                TMsg::Die => ctx.crash_self(),
                TMsg::Pong(_) => {}
            }
        }
    }
}

struct Collector {
    pongs: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
    peer: Option<ProcId>,
    to_send: u32,
}
impl Process<TMsg> for Collector {
    fn name(&self) -> String {
        "collector".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
        match ev {
            Event::Start => {
                if let Some(p) = self.peer {
                    for i in 0..self.to_send {
                        ctx.send(p, TMsg::Ping(i));
                    }
                }
            }
            Event::Message {
                msg: TMsg::Pong(n), ..
            } => self.pongs.borrow_mut().push(n),
            _ => {}
        }
    }
}

fn two_proc_sim() -> (
    Sim<TMsg>,
    ProcId,
    ProcId,
    std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
) {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t0 = sim.hw_thread(m, 0, 0);
    let t1 = sim.hw_thread(m, 1, 0);
    let echo = sim.spawn(t0, Box::new(Echo { got: vec![] }));
    let pongs = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let coll = sim.spawn(
        t1,
        Box::new(Collector {
            pongs: pongs.clone(),
            peer: Some(echo),
            to_send: 5,
        }),
    );
    (sim, echo, coll, pongs)
}

#[test]
fn messages_round_trip_in_order() {
    let (mut sim, _, _, pongs) = two_proc_sim();
    sim.run_until(Time::from_millis(10));
    assert_eq!(*pongs.borrow(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn charged_cycles_advance_busy_time() {
    let (mut sim, echo, _, _) = two_proc_sim();
    sim.run_until(Time::from_millis(10));
    let tid = sim.proc_thread(echo).unwrap();
    let st = sim.thread_stats(tid);
    assert_eq!(st.events, 6, "start + 5 pings");
    // 5 pings x >=1000 cycles at 1.9GHz -> >= 2631ns busy
    assert!(st.busy_ns >= 2_500, "busy {}ns", st.busy_ns);
}

#[test]
fn crash_drops_state_and_messages() {
    let (mut sim, echo, coll, pongs) = two_proc_sim();
    sim.run_until(Time::from_millis(1));
    assert!(sim.is_alive(echo));
    sim.send_external(echo, TMsg::Die);
    sim.run_until(Time::from_millis(2));
    assert!(!sim.is_alive(echo));
    let before = pongs.borrow().len();
    // Messages to the dead process vanish; collector gets nothing new.
    sim.send_external(echo, TMsg::Ping(99));
    sim.run_until(Time::from_millis(5));
    assert_eq!(pongs.borrow().len(), before);
    assert!(sim.is_alive(coll));
}

#[test]
fn crash_monitor_is_notified() {
    let (mut sim, echo, coll, pongs) = two_proc_sim();
    // Reuse collector as the "monitor": crashes arrive as Pong(4242).
    sim.set_crash_monitor(coll, |_pid, _| TMsg::Pong(4242));
    sim.run_until(Time::from_millis(1));
    sim.send_external(echo, TMsg::Die);
    sim.run_until(Time::from_millis(2));
    assert!(pongs.borrow().contains(&4242));
}

#[test]
fn determinism_same_seed_same_history() {
    let run = || {
        let (mut sim, _, _, pongs) = two_proc_sim();
        sim.run_until(Time::from_millis(10));
        let got = pongs.borrow().clone();
        (sim.now(), sim.events_dispatched(), got)
    };
    assert_eq!(run(), run());
}

#[test]
fn spawn_from_ctx_starts_later() {
    struct Spawner {
        thread: Option<HwThreadId>,
    }
    impl Process<TMsg> for Spawner {
        fn name(&self) -> String {
            "spawner".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Start = ev {
                let t = self.thread.unwrap();
                ctx.spawn(t, Box::new(Echo { got: vec![] }), Time::from_millis(3));
            }
        }
    }
    let mut sim: Sim<TMsg> = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t0 = sim.hw_thread(m, 0, 0);
    let t1 = sim.hw_thread(m, 1, 0);
    sim.spawn(t0, Box::new(Spawner { thread: Some(t1) }));
    sim.run_until(Time::from_millis(1));
    // Child not yet started (delay 3ms) — but it exists as alive.
    sim.run_until(Time::from_millis(10));
    let st = sim.thread_stats(t1);
    assert_eq!(st.events, 1, "child's Start dispatched after the delay");
}

#[test]
fn batching_coalesces_per_link_and_preserves_order() {
    // A burst of sends inside one handler must arrive as one Batch
    // wakeup, in send order, when coalescing is on.
    struct Sink {
        got: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
        wakeups: std::rc::Rc<std::cell::RefCell<u64>>,
    }
    impl Process<TMsg> for Sink {
        fn name(&self) -> String {
            "sink".into()
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Message {
                msg: TMsg::Ping(n), ..
            } = ev
            {
                *self.wakeups.borrow_mut() += 1;
                self.got.borrow_mut().push(n);
            }
        }
        fn on_batch(&mut self, ctx: &mut Ctx<'_, TMsg>, from: ProcId, msgs: Vec<TMsg>) {
            *self.wakeups.borrow_mut() += 1;
            for msg in msgs {
                if let TMsg::Ping(n) = msg {
                    self.got.borrow_mut().push(n);
                }
                let _ = (from, &ctx);
            }
        }
    }
    let mut sim: Sim<TMsg> = Sim::new(SimConfig {
        batch_ns: 2_000,
        ..SimConfig::default()
    });
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t0 = sim.hw_thread(m, 0, 0);
    let t1 = sim.hw_thread(m, 1, 0);
    let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let wakeups = std::rc::Rc::new(std::cell::RefCell::new(0u64));
    let sink = sim.spawn(
        t0,
        Box::new(Sink {
            got: got.clone(),
            wakeups: wakeups.clone(),
        }),
    );
    let pongs = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    sim.spawn(
        t1,
        Box::new(Collector {
            pongs: pongs.clone(),
            peer: Some(sink),
            to_send: 8,
        }),
    );
    sim.run_until(Time::from_millis(10));
    assert_eq!(*got.borrow(), (0..8).collect::<Vec<u32>>(), "FIFO order");
    assert_eq!(*wakeups.borrow(), 1, "one wakeup for the whole burst");
    let bs = sim.batch_stats();
    assert_eq!(bs.batch_deliveries, 1);
    assert_eq!(bs.batched_msgs, 8);
    assert_eq!(bs.flush_timer, 1, "horizon flush delivered it");
}

#[test]
fn batch_max_flushes_early() {
    // A silent consumer, so only the ping direction produces batches.
    struct Quiet {
        got: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
    }
    impl Process<TMsg> for Quiet {
        fn name(&self) -> String {
            "quiet".into()
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Message {
                msg: TMsg::Ping(n), ..
            } = ev
            {
                self.got.borrow_mut().push(n);
            }
        }
    }
    let mut sim: Sim<TMsg> = Sim::new(SimConfig {
        batch_ns: 1_000_000, // horizon far away: only depth can flush early
        batch_max: 4,
        ..SimConfig::default()
    });
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t0 = sim.hw_thread(m, 0, 0);
    let t1 = sim.hw_thread(m, 1, 0);
    let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let quiet = sim.spawn(t0, Box::new(Quiet { got: got.clone() }));
    let pongs = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    sim.spawn(
        t1,
        Box::new(Collector {
            pongs: pongs.clone(),
            peer: Some(quiet),
            to_send: 9,
        }),
    );
    sim.run_until(Time::from_millis(20));
    let bs = sim.batch_stats();
    assert_eq!(bs.flush_depth, 2, "9 msgs at depth 4: two early flushes");
    assert_eq!(bs.flush_timer, 1, "the trailing message rides the horizon");
    assert_eq!(*got.borrow(), (0..9).collect::<Vec<u32>>());
}

#[test]
fn batched_and_unbatched_histories_match() {
    // The coalescer may merge wakeups and shift delivery instants, but
    // the application-visible stream (payloads, per-link order) must
    // be identical with batching on and off.
    let run = |batch_ns: u64| {
        let mut sim: Sim<TMsg> = Sim::new(SimConfig {
            batch_ns,
            ..SimConfig::default()
        });
        let m = sim.add_machine(MachineSpec::amd_opteron_6168());
        let t0 = sim.hw_thread(m, 0, 0);
        let t1 = sim.hw_thread(m, 1, 0);
        let echo = sim.spawn(t0, Box::new(Echo { got: vec![] }));
        let pongs = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
        sim.spawn(
            t1,
            Box::new(Collector {
                pongs: pongs.clone(),
                peer: Some(echo),
                to_send: 32,
            }),
        );
        sim.run_until(Time::from_millis(50));
        let out = pongs.borrow().clone();
        out
    };
    assert_eq!(run(0), run(2_000));
}

#[test]
fn smt_sibling_slows_execution() {
    struct Burn;
    impl Process<TMsg> for Burn {
        fn name(&self) -> String {
            "burn".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Message { .. } = ev {
                ctx.charge(1_000_000);
            }
        }
    }
    // Run a stream of work alone vs. with a busy SMT sibling: in steady
    // state each thread of a busy pair runs 2/SMT_CAPACITY slower.
    let solo_busy = {
        let mut sim: Sim<TMsg> = Sim::new(SimConfig::default());
        let m = sim.add_machine(MachineSpec::xeon_e5520_dual());
        let t0 = sim.hw_thread(m, 0, 0);
        let p = sim.spawn(t0, Box::new(Burn));
        sim.run_until(Time::from_micros(1));
        sim.reset_all_stats();
        for _ in 0..20 {
            sim.send_external(p, TMsg::Ping(0));
        }
        sim.run_until(Time::from_millis(100));
        sim.thread_stats(t0).busy_ns
    };
    let paired_busy = {
        let mut sim: Sim<TMsg> = Sim::new(SimConfig::default());
        let m = sim.add_machine(MachineSpec::xeon_e5520_dual());
        let t0 = sim.hw_thread(m, 0, 0);
        let t1 = sim.hw_thread(m, 0, 1);
        let a = sim.spawn(t0, Box::new(Burn));
        let b = sim.spawn(t1, Box::new(Burn));
        sim.run_until(Time::from_micros(1));
        sim.reset_all_stats();
        for _ in 0..20 {
            sim.send_external(a, TMsg::Ping(0));
            sim.send_external(b, TMsg::Ping(0));
        }
        sim.run_until(Time::from_millis(100));
        sim.thread_stats(t0).busy_ns
    };
    assert!(
        paired_busy as f64 > solo_busy as f64 * 1.3,
        "SMT contention should slow the thread: solo={solo_busy} paired={paired_busy}"
    );
}

/// Message type of the multi-machine golden-order test.
#[derive(Debug)]
enum RingMsg {
    /// Ring traffic between machines; payload = remaining hops.
    Ping(u64),
    /// Machine-local traffic to a sink.
    Token(u64),
}

/// Dispatch-order log shared by every process: `(now ns, pid, payload)`.
type RingLog = std::rc::Rc<std::cell::RefCell<Vec<(u64, u64, u64)>>>;

const RING_LINK_NS: u64 = 800;

/// Pings the worker on the next machine over a wire-delayed link, feeds
/// tokens to its machine-local sink, burns RNG-dependent work and re-arms
/// a timer.
struct RingWorker {
    peer: ProcId,
    sink: ProcId,
    log: RingLog,
    timers_left: u64,
}

impl Process<RingMsg> for RingWorker {
    fn name(&self) -> String {
        "worker".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, RingMsg>, ev: Event<RingMsg>) {
        match ev {
            Event::Start => {
                ctx.set_timer(Time::from_micros(5), 1);
                ctx.send_delayed(self.peer, RingMsg::Ping(40), Time(RING_LINK_NS));
            }
            Event::Message {
                msg: RingMsg::Ping(v),
                ..
            } => {
                self.log
                    .borrow_mut()
                    .push((ctx.now().as_nanos(), ctx.self_id.0, v));
                // Per-machine stream: a draw leaking across machines would
                // move every later charge.
                let cost = ctx.rng().gen_range(500u64..5_000);
                ctx.charge(cost);
                ctx.send(self.sink, RingMsg::Token(v));
                if v > 0 {
                    ctx.send_delayed(self.peer, RingMsg::Ping(v - 1), Time(RING_LINK_NS));
                }
            }
            Event::Timer { .. } => {
                ctx.send(self.sink, RingMsg::Token(1_000 + self.timers_left));
                if self.timers_left > 0 {
                    self.timers_left -= 1;
                    ctx.set_timer(Time::from_micros(5), 1);
                }
            }
            _ => {}
        }
    }
}

/// Logs every token it receives; crashes on `crash_on` if set.
struct RingSink {
    log: RingLog,
    crash_on: Option<u64>,
}

impl Process<RingMsg> for RingSink {
    fn name(&self) -> String {
        "sink".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, RingMsg>, ev: Event<RingMsg>) {
        if let Event::Message {
            msg: RingMsg::Token(v),
            ..
        } = ev
        {
            self.log
                .borrow_mut()
                .push((ctx.now().as_nanos(), ctx.self_id.0, v));
            if self.crash_on == Some(v) {
                ctx.crash_self();
            }
        }
    }
}

/// Runs an `n`-machine ring for 2 ms: equal-time ties across machines at
/// start, cross-machine sends with wire delay, per-machine RNG draws, and
/// a crash on the last machine reported to a monitor on the first.
/// Returns `(events dispatched, (busy ns, events) per active thread, FNV-1a
/// hash of the dispatch-order log)`.
fn run_ring(n: usize, batch_ns: u64) -> (u64, Vec<(u64, u64)>, u64) {
    let mut sim = Sim::new(SimConfig {
        seed: 0xDE7E_4213,
        batch_ns,
        ..SimConfig::default()
    });
    let log: RingLog = Default::default();
    let machines: Vec<_> = (0..n)
        .map(|_| sim.add_machine(MachineSpec::amd_opteron_6168()))
        .collect();
    let sinks: Vec<ProcId> = machines
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let crash_on = (i == n - 1).then_some(20);
            let sink = RingSink {
                log: log.clone(),
                crash_on,
            };
            sim.spawn(sim.hw_thread(m, 1, 0), Box::new(sink))
        })
        .collect();
    sim.set_crash_monitor(sinks[0], |pid, _| RingMsg::Token(7_000_000 + (pid.0 >> 40)));
    for (i, &m) in machines.iter().enumerate() {
        // Workers are the second pid of each machine: `(machine+1)<<40 | 2`.
        let next = machines[(i + 1) % n];
        let worker = RingWorker {
            peer: ProcId(((next.0 as u64 + 1) << 40) | 2),
            sink: sinks[i],
            log: log.clone(),
            timers_left: 20,
        };
        sim.spawn(sim.hw_thread(m, 0, 0), Box::new(worker));
    }
    let dispatched = sim.run_until(Time::from_millis(2));
    let busy = (0..sim.num_hw_threads())
        .map(|t| sim.thread_stats(HwThreadId(t)))
        .filter(|st| st.events > 0)
        .map(|st| (st.busy_ns, st.events))
        .collect();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &(t, pid, v) in log.borrow().iter() {
        for b in [t, pid, v].iter().flat_map(|x| x.to_le_bytes()) {
            hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    (dispatched, busy, hash)
}

// The constants below were recorded from the engine before its per-machine
// heaps were merged into one; any change to dispatch order, RNG streams,
// pid allocation or the cost model moves them.

#[test]
fn ring_dispatch_order_is_golden() {
    let (dispatched, busy, hash) = run_ring(4, 0);
    assert_eq!(dispatched, 666);
    assert_eq!(
        busy,
        [
            (82693, 63),
            (3392, 64),
            (85398, 63),
            (3339, 63),
            (82918, 63),
            (3339, 63),
            (85668, 63),
            (1643, 31),
        ]
    );
    assert_eq!(hash, 112092057057524131);
}

#[test]
fn batched_ring_dispatch_order_is_golden() {
    // Adds FlushBatch events, ThreadResume chains and epoch bookkeeping.
    let (dispatched, busy, hash) = run_ring(4, 2_000);
    assert_eq!(dispatched, 641);
    assert_eq!(
        busy,
        [
            (66317, 63),
            (1749, 33),
            (69087, 63),
            (1749, 33),
            (66639, 63),
            (1908, 36),
            (69261, 63),
            (901, 17),
        ]
    );
    assert_eq!(hash, 4460550273978610797);
}
