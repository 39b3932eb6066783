//! The dispatch core of the discrete-event engine (a child module of
//! `engine` — split out so each engine source file stays within the CI
//! module-size guard while keeping private-item access).
//!
//! [`Sim::dispatch`] runs one event popped from the heap: the machine it
//! belongs to follows from the event (the destination pid, the batched
//! link's pids, or the resumed thread).

use super::*;

impl<M: 'static> Sim<M> {
    /// Dispatch one event popped from the heap.
    pub(super) fn dispatch(&mut self, ev: HeapEv<M>) {
        let HeapEv { time, kind, .. } = ev;
        match kind {
            HeapKind::Deliver { dst, ev } => {
                let di = machine_of_pid(dst) as usize;
                let d = &mut self.states[di];
                let Some(slot) = d.procs.get(&dst) else {
                    return;
                };
                if !slot.alive {
                    return;
                }
                let tid = slot.thread;
                let lt = self.topo.loc(tid).idx as usize;
                // FIFO server: if the thread is (or will be) busy, or has
                // queued work, append; a resume marker fires at the end of
                // the current work.
                let busy_until = d.threads[lt].busy_until;
                if busy_until > time || !d.pending[lt].is_empty() {
                    d.pending[lt].push_back((dst, ev));
                    // Queue-depth high-water mark (per-thread backlog; a
                    // compare+store, cheap enough to keep always-on).
                    let depth = d.pending[lt].len() as u64;
                    let st = &mut d.threads[lt].stats;
                    st.max_queue = st.max_queue.max(depth);
                    if !d.resume_scheduled[lt] {
                        self.schedule_resume(di, lt, busy_until.max(time));
                    }
                } else {
                    self.execute(di, lt, dst, ev, time);
                }
            }
            HeapKind::FlushBatch { src, dst, epoch } => {
                // Stale unless the batch is still open under this epoch.
                let di = machine_of_pid(src) as usize;
                let d = &mut self.states[di];
                let live = d
                    .batches
                    .get(&(src, dst))
                    .map(|b| b.epoch == epoch)
                    .unwrap_or(false);
                if live {
                    let b = d.batches.remove(&(src, dst)).unwrap();
                    self.batch_stats.flush_timer += 1;
                    // The horizon IS the delivery instant (`time ==
                    // flush_at >= ready_at`), like interrupt moderation.
                    self.deliver_batch(di, src, dst, b.msgs, time);
                }
            }
            HeapKind::ThreadResume(tid) => {
                let ThreadLoc { dom, idx } = self.topo.loc(tid);
                let (di, lt) = (dom as usize, idx as usize);
                self.states[di].resume_scheduled[lt] = false;
                // Pop queued work until we find a live destination.
                while let Some((dst, ev)) = self.states[di].pending[lt].pop_front() {
                    let alive = self.states[di]
                        .procs
                        .get(&dst)
                        .map(|s| s.alive)
                        .unwrap_or(false);
                    if !alive {
                        continue; // messages to dead processes vanish
                    }
                    self.execute(di, lt, dst, ev, time);
                    break;
                }
                // More work queued: chain the next marker.
                let d = &self.states[di];
                if !d.pending[lt].is_empty() && !d.resume_scheduled[lt] {
                    let at = d.threads[lt].busy_until.max(time);
                    self.schedule_resume(di, lt, at);
                }
            }
        }
    }

    /// Schedule a ThreadResume marker for local thread `lt` of machine `di`.
    fn schedule_resume(&mut self, di: usize, lt: usize, at: Time) {
        let d = &mut self.states[di];
        d.resume_scheduled[lt] = true;
        let origin = d.next_origin();
        self.heap.push(HeapEv {
            time: at,
            origin,
            kind: HeapKind::ThreadResume(d.thread_ids[lt]),
        });
    }

    /// Deliver a closed batch at `at` (>= the current dispatch instant).
    /// Single-message batches degrade to a plain `Message` so receivers
    /// and traces can't tell a lone coalesced message from an unbatched
    /// one. Batched links are machine-local.
    fn deliver_batch(&mut self, di: usize, src: ProcId, dst: ProcId, msgs: Vec<M>, at: Time) {
        if msgs.len() == 1 {
            let msg = msgs.into_iter().next().unwrap();
            self.push(di, at, dst, Event::Message { from: src, msg });
        } else {
            self.batch_stats.batched_msgs += msgs.len() as u64;
            self.batch_stats.batch_deliveries += 1;
            self.push(di, at, dst, Event::Batch { from: src, msgs });
        }
    }

    /// Route one `send()` through the per-link coalescer. `at` is the
    /// message's natural delivery instant (sender completion + channel
    /// latency); the batch may delay it up to the `batch_ns` horizon.
    /// `now` is the current dispatch instant (deliveries never precede it).
    fn enqueue_batched(
        &mut self,
        di: usize,
        src: ProcId,
        dst: ProcId,
        msg: M,
        at: Time,
        now: Time,
    ) {
        let key = (src, dst);
        let d = &mut self.states[di];
        match d.batches.get_mut(&key) {
            Some(b) if at <= b.flush_at => {
                b.msgs.push(msg);
                b.ready_at = b.ready_at.max(at);
                if b.msgs.len() >= self.batch_max {
                    // Depth flush: deliver now-complete batch at its
                    // ready time; the scheduled FlushBatch goes stale.
                    let b = d.batches.remove(&key).unwrap();
                    self.batch_stats.flush_depth += 1;
                    let at = b.ready_at.max(now);
                    self.deliver_batch(di, src, dst, b.msgs, at);
                }
            }
            Some(_) => {
                // The new message lands past the horizon: close the old
                // batch (its flush event goes stale) and open a new one.
                let old = d.batches.remove(&key).unwrap();
                self.batch_stats.flush_close += 1;
                let old_at = old.ready_at.max(now);
                self.deliver_batch(di, src, dst, old.msgs, old_at);
                self.open_batch(di, key, msg, at);
            }
            None => self.open_batch(di, key, msg, at),
        }
    }

    fn open_batch(&mut self, di: usize, key: (ProcId, ProcId), msg: M, at: Time) {
        let d = &mut self.states[di];
        d.batch_epoch += 1;
        let epoch = d.batch_epoch;
        let flush_at = at + self.batch_ns;
        d.batches.insert(
            key,
            LinkBatch {
                msgs: vec![msg],
                flush_at,
                ready_at: at,
                epoch,
            },
        );
        let origin = d.next_origin();
        self.heap.push(HeapEv {
            time: flush_at,
            origin,
            kind: HeapKind::FlushBatch {
                src: key.0,
                dst: key.1,
                epoch,
            },
        });
    }

    /// Register a live process pinned to `thread` under `pid`.
    pub(super) fn insert_proc(
        &mut self,
        pid: ProcId,
        thread: HwThreadId,
        proc: Box<dyn Process<M>>,
    ) {
        let name = proc.name();
        self.spawns += 1;
        self.states[machine_of_pid(pid) as usize].procs.insert(
            pid,
            ProcSlot {
                proc: Some(proc),
                thread,
                name,
                alive: true,
            },
        );
    }

    /// Run one handler on a free local thread at `time`
    /// (>= thread.busy_until).
    fn execute(&mut self, di: usize, lt: usize, dst: ProcId, ev: Event<M>, time: Time) {
        let tracing = neat_obs::tracing();
        let d = &mut self.states[di];
        // Tracing hook: name the span before the event is consumed. Guarded
        // so the disabled path pays one bool read, no format.
        let span_name = if tracing {
            let pname = d.procs.get(&dst).map(|s| s.name.as_str()).unwrap_or("?");
            Some(format!("{pname} [{}]", ev.label()))
        } else {
            None
        };
        let mut proc = match d.procs.get_mut(&dst) {
            Some(slot) if slot.alive => match slot.proc.take() {
                Some(p) => p,
                None => return,
            },
            _ => return,
        };

        // --- CPU-time accounting: wake the thread, find the start instant.
        let start = {
            let th = &mut d.threads[lt];
            let woken = th.wake_for(time);
            woken.max(th.busy_until)
        };
        let kind = d.threads[lt].kind;
        let freq = d.threads[lt].freq;
        // SMT contention: slowdown scales with the sibling thread's recent
        // utilization — two saturated siblings each run at SMT_CAPACITY/2
        // of a dedicated core's speed. Siblings share a core, so the
        // sibling is on this machine.
        let smt_slow = match d.threads[lt].sibling {
            Some(sib) if kind == ThreadKind::Cpu => {
                let sl = self.topo.loc(sib).idx as usize;
                let s = &d.threads[sl];
                let u = if s.busy_until > start || !d.pending[sl].is_empty() {
                    1.0
                } else {
                    s.recent_util(start)
                };
                1.0 + (2.0 / calibration::SMT_CAPACITY - 1.0) * u
            }
            _ => 1.0,
        };

        let mut ctx = Ctx {
            dom: d,
            topo: &self.topo,
            batching: self.batch_ns.as_nanos() > 0,
            sender_kind: kind,
            self_id: dst,
            start,
            charged: proc.dispatch_cost(),
            charged_ns: 0,
            outputs: Vec::new(),
            die: None,
            woken_threads: Vec::new(),
            last_send_dst: None,
        };
        match ev {
            Event::Batch { from, msgs } => proc.on_batch(&mut ctx, from, msgs),
            ev => proc.on_event(&mut ctx, ev),
        }
        let Ctx {
            charged,
            charged_ns,
            outputs,
            die,
            ..
        } = ctx;

        // --- Completion time.
        let work = match kind {
            ThreadKind::Cpu => {
                let base = freq.cycles_to_time(charged);
                Time((base.as_nanos() as f64 * smt_slow) as u64 + charged_ns)
            }
            ThreadKind::Device => Time(charged_ns + freq.cycles_to_time(charged).as_nanos()),
        };
        let end = start + work;
        let d = &mut self.states[di];
        {
            let th = &mut d.threads[lt];
            th.stats.smt_slow_sum += smt_slow;
            th.record_busy(start, end);
        }
        if let Some(name) = span_name {
            neat_obs::trace::complete(
                d.thread_ids[lt].0 as u64,
                name,
                "dispatch",
                start.as_nanos(),
                end.as_nanos(),
            );
        }

        // --- Apply outputs at completion time.
        for out in outputs {
            match out {
                Output::Send {
                    dst: to,
                    msg,
                    extra_delay,
                } => {
                    let at = end + calibration::CHANNEL_LATENCY + extra_delay;
                    // Only latency-free machine-local sends coalesce;
                    // anything with explicit wire/propagation delay keeps
                    // its own event.
                    if self.batch_ns.as_nanos() > 0
                        && extra_delay.as_nanos() == 0
                        && machine_of_pid(to) as usize == di
                    {
                        self.enqueue_batched(di, dst, to, msg, at, time);
                    } else {
                        self.push(di, at, to, Event::Message { from: dst, msg });
                    }
                }
                Output::Timer { delay, token } => {
                    self.push(di, end + delay, dst, Event::Timer { token });
                }
                Output::Spawn {
                    pid,
                    thread,
                    proc,
                    delay,
                } => {
                    // Ctx::spawn asserted thread is on this machine.
                    self.insert_proc(pid, thread, proc);
                    self.push(di, end + delay, pid, Event::Start);
                }
                Output::Kill { pid, crash } => {
                    let mode = if crash { DieMode::Crash } else { DieMode::Exit };
                    self.reap(pid, mode, end);
                }
            }
        }

        // --- Put the process back (a doomed one too, so reap can drop it).
        if let Some(slot) = self.states[di].procs.get_mut(&dst) {
            slot.proc = Some(proc);
        }
        if let Some(mode) = die {
            self.reap(dst, mode, end);
        }
    }

    fn reap(&mut self, pid: ProcId, mode: DieMode, at: Time) {
        let p = machine_of_pid(pid) as usize;
        let d = &mut self.states[p];
        let (name, thread) = match d.procs.get_mut(&pid) {
            Some(slot) if slot.alive => {
                slot.alive = false;
                slot.proc = None; // all state dropped — stateless recovery
                (slot.name.clone(), slot.thread)
            }
            _ => return,
        };
        match mode {
            DieMode::Crash => self.crashes += 1,
            DieMode::Exit => self.exits += 1,
        }
        if neat_obs::tracing() {
            let what = match mode {
                DieMode::Crash => "crash",
                DieMode::Exit => "exit",
            };
            neat_obs::trace::instant(
                thread.0 as u64,
                format!("{what}: {name}"),
                "lifecycle",
                at.as_nanos(),
            );
        }
        if mode == DieMode::Crash {
            if let Some((monitor, hook)) = &self.crash_monitor {
                let msg = hook(pid, &name);
                let monitor = *monitor;
                // Crash detection latency: the kernel notices the fault and
                // notifies the monitor (one exception + IPC round). Keyed by
                // the dead process's machine.
                self.push(
                    p,
                    at + calibration::CRASH_NOTIFY_LATENCY,
                    monitor,
                    Event::Message {
                        from: ProcId(0),
                        msg,
                    },
                );
            }
        }
    }
}
