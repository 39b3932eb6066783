//! The testbed workloads and one measured repetition of each: build the
//! testbed, warm it up, then step a fixed simulated window while the
//! host clock and the simulated counters are read at every slice.

use crate::metrics::{self, ErrorCounts};
use crate::refkernel;
use crate::spans::Spans;
use neat::config::NeatConfig;
use neat::msg::Msg;
use neat::supervisor::Role;
use neat_apps::scenario::{Testbed, TestbedSpec, Workload as ClientLoad};
use neat_apps::webserver::FileStore;
use neat_sim::{HwThreadId, ProcId, ThreadStats, Time};
use neat_util::Rng;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NEaT 3x single-component, 6 webs, 12 × 16 persistent connections,
    /// 100 requests each, 20 B file: the paper's headline point.
    Keepalive20b,
    /// Multi 2x with buddy replication, 4 webs, 16 × 4 connections of one
    /// request each, seeded crashes of the boot-time TCP components.
    ChurnFailover,
    /// NEaT 2x single-component, 4 webs, 12 × 16 connections, 100 KB
    /// file, 1 % frame loss at the server NIC.
    Bulk100kLossy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Keepalive20b,
        Workload::ChurnFailover,
        Workload::Bulk100kLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Keepalive20b => "keepalive_20b",
            Workload::ChurnFailover => "churn_failover",
            Workload::Bulk100kLossy => "bulk_100k_lossy",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Simulated warm-up before the window (boot and connection ramp),
    /// part of `setup_s`. `keepalive_20b` needs the longest: its first
    /// ~50 ms still carry the ramp's slow requests, which would otherwise
    /// make up its p99.
    pub fn warmup(self) -> Time {
        match self {
            Workload::Keepalive20b => Time::from_millis(100),
            _ => Time::from_millis(40),
        }
    }

    /// Untimed simulated offset between warm-up and window, 0–10 ms by
    /// seed, so every seed measures a different stretch of the run even
    /// where nothing else in the workload is random.
    pub fn phase(seed: u64) -> Time {
        Time::from_micros(Rng::seed_from_u64(seed ^ 0x5EED_0FF5).below(10_000))
    }

    /// Simulated measurement window.
    pub fn window(self) -> Time {
        match self {
            Workload::Keepalive20b => Time::from_millis(80),
            Workload::ChurnFailover => Time::from_millis(160),
            Workload::Bulk100kLossy => Time::from_millis(150),
        }
    }

    /// Crashes injected during the window.
    pub fn crashes(self) -> usize {
        match self {
            Workload::ChurnFailover => 2,
            _ => 0,
        }
    }

    pub fn spec(self, seed: u64) -> TestbedSpec {
        let mut spec = match self {
            Workload::Keepalive20b => TestbedSpec::amd(NeatConfig::single(3), 6),
            Workload::ChurnFailover => {
                let mut s = TestbedSpec::amd(NeatConfig::multi(2).replicated(), 4);
                s.clients = 16;
                s.workload = ClientLoad {
                    conns_per_client: 4,
                    requests_per_conn: 1,
                    ..ClientLoad::default()
                };
                s
            }
            Workload::Bulk100kLossy => {
                let mut s = TestbedSpec::amd(NeatConfig::single(2), 4);
                s.files = FileStore::size_sweep(&[100_000]);
                s.workload.path = "/file100000".into();
                s.wire_faults.drop_pct = 1;
                s
            }
        };
        spec.seed = seed;
        spec
    }
}

/// Simulated slice between host-clock reads inside the window.
const SLICE_NS: u64 = 10_000_000;
/// Step used while waiting for a crashed replica's handoff.
const RECOVERY_STEP_NS: u64 = 20_000;

/// Everything one repetition measured. Host fields vary run to run;
/// every other field is a pure function of the workload and seed.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    // --- host ledger ---
    pub setup_s: f64,
    pub wall_s: f64,
    /// Host seconds of each simulated window slice, in order.
    pub slice_wall_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Host seconds of the reference kernel, timed after the window.
    pub ref_kernel_s: f64,
    // --- simulated ledger ---
    pub window_s: f64,
    pub requests: u64,
    pub bytes: u64,
    pub latency: neat_sim::Histogram,
    pub errors: ErrorCounts,
    pub rx_digest: u64,
    pub recovery_ns: Vec<u64>,
    pub crashes_injected: u64,
    pub crashes_seen: u64,
    pub handoffs: u64,
    pub stateful_losses: u64,
    pub events: u64,
    pub stalled_slices: u64,
    pub batch_occupancy: f64,
    pub pktbuf_grants: u64,
    pub pktbuf_copies_avoided: u64,
    pub pktbuf_outstanding: u64,
    pub obs: Vec<(String, f64)>,
    pub driver: ThreadStats,
    pub replicas: Vec<ThreadStats>,
    pub syscall: ThreadStats,
    pub webs: Vec<ThreadStats>,
    pub server_threads: Vec<ThreadStats>,
}

/// Seeded crash schedule: distinct boot-time TCP components, each hit at
/// most once, at times spread over the window's middle.
pub fn crash_plan(w: Workload, seed: u64, tcp_pids: &[ProcId]) -> Vec<(Time, ProcId)> {
    let n = w.crashes().min(tcp_pids.len());
    if n == 0 {
        return Vec::new();
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let mut targets = tcp_pids.to_vec();
    rng.shuffle(&mut targets);
    let win = w.window().as_nanos();
    // Crash k lands in the k-th of n equal bands of the window's middle
    // half, so every handoff completes inside the window.
    let band = win / 2 / n as u64;
    (0..n)
        .map(|k| {
            let off = win / 4 + band * k as u64 + rng.below(band / 2);
            (Time::from_nanos(off), targets[k])
        })
        .collect()
}

fn tcp_heads(tb: &Testbed) -> Vec<ProcId> {
    tb.deployment
        .comp_pids
        .iter()
        .filter_map(|comps| {
            comps
                .iter()
                .find(|(r, _)| matches!(r, Role::Tcp | Role::Single))
                .map(|(_, p)| *p)
        })
        .collect()
}

struct ClientTotals {
    completed: u64,
    reported: u64,
    bytes: u64,
    errors: u64,
    dismissed: u64,
}

fn client_totals(tb: &Testbed) -> ClientTotals {
    let mut t = ClientTotals {
        completed: 0,
        reported: 0,
        bytes: 0,
        errors: 0,
        dismissed: 0,
    };
    for m in &tb.client_metrics {
        let m = m.borrow();
        t.completed += m.completed;
        t.reported += m.reported_requests();
        t.bytes += m.response_bytes;
        t.errors += m.conn_errors;
        t.dismissed += m.requests_on_error_conns;
    }
    t
}

/// Connection slots the generators hold no connection for: a refused
/// `connect` is dropped without error or retry, so the slot stays empty.
fn stalled_slots(tb: &Testbed, conns_per_client: usize) -> u64 {
    tb.client_metrics
        .iter()
        .map(|m| {
            let m = m.borrow();
            let live = m
                .conns_opened
                .saturating_sub(m.conns_finished)
                .saturating_sub(m.conn_errors);
            (conns_per_client as u64).saturating_sub(live)
        })
        .sum()
}

fn per_client_completed(tb: &Testbed) -> Vec<u64> {
    tb.client_metrics
        .iter()
        .map(|m| m.borrow().completed)
        .collect()
}

/// (on-CPU seconds, run-queue wait seconds) of the calling thread, from
/// `/proc/thread-self/schedstat`; zeros where it is unavailable.
pub fn schedstat_s() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut f = text
        .split_whitespace()
        .map(|v| v.parse::<f64>().unwrap_or(0.0) / 1e9);
    (f.next().unwrap_or(0.0), f.next().unwrap_or(0.0))
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Run one repetition. With `spans` recording, every phase and window
/// slice becomes a span under `parent`.
pub fn run(w: Workload, seed: u64, spans: &mut Spans, parent: u32) -> Rep {
    let spec = w.spec(seed);
    let conns_per_client = spec.workload.conns_per_client;
    let t_build = Instant::now();
    let sb = spans.begin("build", parent);
    let mut tb = Testbed::build(spec);
    spans.end(sb);
    let sw = spans.begin("warmup", parent);
    let warm_end = tb.sim.now() + w.warmup();
    tb.sim.run_until(warm_end);
    spans.end(sw);
    let setup_s = t_build.elapsed().as_secs_f64();
    tb.sim.run_until(warm_end + Workload::phase(seed));

    let plan = crash_plan(w, seed, &tcp_heads(&tb));
    let crashes_injected = plan.len() as u64;
    let c0 = client_totals(&tb);
    let events0 = tb.sim.events_dispatched();
    tb.sim.reset_all_stats();
    neat_obs::reset();
    let pool0 = neat_net::pktbuf::stats();
    // Latency is reported over the window only; the histograms are the
    // harness's own records and feed nothing back into the simulation.
    for m in &tb.client_metrics {
        m.borrow_mut().latency = neat_sim::Histogram::new();
    }

    let start = tb.sim.now();
    let end = start + w.window();
    let t_window = Instant::now();
    let mut recovery_ns = Vec::new();
    let mut stalled_slices = 0u64;
    let mut crashes = plan.into_iter().peekable();
    let mut slice_start = start;
    let mut slice_wall_s = Vec::new();
    while slice_start < end {
        let t_slice = Instant::now();
        let slice_end = (slice_start + Time::from_nanos(SLICE_NS)).min(end);
        let before = per_client_completed(&tb);
        let ev0 = tb.sim.events_dispatched();
        let req0 = client_totals(&tb).reported;
        let frames0 = metrics::obs_counter("nic.rx_frames") + metrics::obs_counter("nic.tx_frames");
        let deltas0 = metrics::obs_counter("repl.deltas_sent");
        let ss = spans.begin("window.slice", parent);
        while let Some(&(at, pid)) = crashes.peek() {
            if start + at >= slice_end {
                break;
            }
            crashes.next();
            tb.sim.run_until(start + at);
            let sc = spans.begin("crash", ss);
            let handoffs0 = tb.deployment.sup_stats.borrow().handoffs_completed;
            let poisoned = tb.sim.now();
            tb.sim.send_external(pid, Msg::Poison);
            spans.end(sc);
            let sr = spans.begin("recovery", ss);
            // Step until the supervisor reports the buddy handoff; the
            // deadline bounds a handoff that never completes.
            let deadline = poisoned + Time::from_millis(40);
            while tb.deployment.sup_stats.borrow().handoffs_completed == handoffs0
                && tb.sim.now() < deadline
            {
                let next = tb.sim.now() + Time::from_nanos(RECOVERY_STEP_NS);
                tb.sim.run_until(next);
            }
            if tb.deployment.sup_stats.borrow().handoffs_completed > handoffs0 {
                recovery_ns.push(tb.sim.now().since(poisoned).as_nanos());
            }
            spans.end(sr);
        }
        if tb.sim.now() < slice_end {
            tb.sim.run_until(slice_end);
        }
        let after = per_client_completed(&tb);
        stalled_slices += before.iter().zip(&after).filter(|(b, a)| a == b).count() as u64;
        let frames1 = metrics::obs_counter("nic.rx_frames") + metrics::obs_counter("nic.tx_frames");
        spans.arg(ss, "events", (tb.sim.events_dispatched() - ev0) as f64);
        spans.arg(ss, "requests", (client_totals(&tb).reported - req0) as f64);
        spans.arg(ss, "frames", (frames1 - frames0) as f64);
        spans.arg(
            ss,
            "deltas",
            (metrics::obs_counter("repl.deltas_sent") - deltas0) as f64,
        );
        spans.end(ss);
        slice_wall_s.push(t_slice.elapsed().as_secs_f64());
        slice_start = slice_end;
    }
    let wall_s = t_window.elapsed().as_secs_f64();
    let window = tb.sim.now().since(start);

    tb.sim.export_obs();
    let pool1 = neat_net::pktbuf::stats();
    let c1 = client_totals(&tb);
    let stalled = stalled_slots(&tb, conns_per_client);
    let sup = tb.deployment.sup_stats.borrow().clone();
    let mut latency = neat_sim::Histogram::new();
    let mut rx_digest = 0xcbf2_9ce4_8422_2325u64;
    for m in &tb.client_metrics {
        let m = m.borrow();
        latency.merge(&m.latency);
        rx_digest = (rx_digest ^ m.rx_digest).wrapping_mul(0x100_0000_01b3);
    }
    let server_threads: Vec<ThreadStats> = (0..tb.sim.num_hw_threads())
        .map(HwThreadId)
        .filter(|&t| tb.sim.machine_of_thread(t) == tb.server_machine)
        .map(|t| tb.sim.thread_stats(t))
        .collect();
    let syscall_thread = tb
        .sim
        .proc_thread(tb.deployment.syscall)
        .expect("syscall process is alive");
    // The kernel's buffer must not count in the peak.
    let peak = peak_rss_mb();
    let ref_kernel_s = refkernel::seconds();

    Rep {
        setup_s,
        wall_s,
        slice_wall_s,
        peak_rss_mb: peak,
        ref_kernel_s,
        window_s: window.as_secs_f64(),
        requests: c1.reported - c0.reported,
        bytes: c1.bytes - c0.bytes,
        latency,
        errors: ErrorCounts {
            completed: c1.completed - c0.completed,
            conn_errors: c1.errors - c0.errors,
            dismissed: c1.dismissed - c0.dismissed,
            stalled_slots: stalled,
        },
        rx_digest,
        recovery_ns,
        crashes_injected,
        crashes_seen: sup.crashes_seen,
        handoffs: sup.handoffs_completed,
        stateful_losses: sup.stateful_losses,
        events: tb.sim.events_dispatched() - events0,
        stalled_slices,
        batch_occupancy: tb.sim.batch_stats().occupancy(),
        pktbuf_grants: pool1.grants - pool0.grants,
        pktbuf_copies_avoided: pool1.copies_avoided - pool0.copies_avoided,
        pktbuf_outstanding: pool1.outstanding,
        obs: metrics::obs_values(),
        driver: tb.sim.thread_stats(tb.driver_thread),
        replicas: tb
            .replica_threads
            .iter()
            .map(|&t| tb.sim.thread_stats(t))
            .collect(),
        syscall: tb.sim.thread_stats(syscall_thread),
        webs: tb
            .web_threads
            .iter()
            .map(|&t| tb.sim.thread_stats(t))
            .collect(),
        server_threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_plan_hits_each_component_once_inside_the_window() {
        let pids = [ProcId(7), ProcId(11)];
        for seed in 0..50 {
            let plan = crash_plan(Workload::ChurnFailover, seed, &pids);
            assert_eq!(plan.len(), 2);
            assert_ne!(plan[0].1, plan[1].1, "seed {seed}");
            let win = Workload::ChurnFailover.window();
            assert!(plan[0].0 < plan[1].0 && plan[1].0 < win, "seed {seed}");
        }
        assert!(crash_plan(Workload::Keepalive20b, 1, &pids).is_empty());
        // Fewer components than crashes: never poison one twice.
        assert_eq!(crash_plan(Workload::ChurnFailover, 1, &pids[..1]).len(), 1);
    }
}
