//! Turning a repetition (and, traced, its replays and spans) into the
//! JSON that `run.py` aggregates.

use crate::metrics::{self, ratio, Span};
use crate::replay::Replays;
use crate::spans::Spans;
use crate::workload::Rep;
use neat_util::{Json, ToJson};

/// Host-ledger and simulated-ledger values of one repetition. Every
/// field under `sim` is a pure function of workload and seed.
pub fn rep_json(r: &Rep) -> Json {
    let (cpu_s, runq_wait_s) = crate::workload::schedstat_s();
    let host = Json::object()
        .field("setup_s", r.setup_s)
        .field("wall_s", r.wall_s)
        .field("slice_wall_s", r.slice_wall_s.to_json())
        .field("peak_rss_mb", r.peak_rss_mb)
        .field("ref_kernel_s", r.ref_kernel_s)
        .field("cpu_s", cpu_s)
        .field("runq_wait_s", runq_wait_s);
    let sim = Json::object()
        .field("latency_samples", r.latency.count())
        .field(
            "latency_runs",
            Json::Array(
                latency_runs(&r.latency)
                    .into_iter()
                    .map(|(v, c)| Json::Array(vec![v.to_json(), c.to_json()]))
                    .collect(),
            ),
        )
        .field("attempted", r.errors.attempted())
        .field("failed", r.errors.failed())
        .field("conn_errors", r.errors.conn_errors)
        .field("dismissed", r.errors.dismissed)
        .field("stalled_slots", r.errors.stalled_slots)
        .field("recovery_ns", r.recovery_ns.to_json())
        .field("crashes_injected", r.crashes_injected)
        .field("crashes_seen", r.crashes_seen)
        .field("handoffs", r.handoffs)
        .field("requests", r.requests)
        .field("bytes", r.bytes)
        .field("window_s", r.window_s)
        .field("events", r.events)
        .field("rx_digest", format!("{:016x}", r.rx_digest));
    Json::object().field("host", host).field("sim", sim)
}

/// The histogram's samples as `(bucket value in ns, count)` runs in
/// ascending order, so histograms of separate processes can be pooled.
/// The k-th smallest sample's bucket is `quantile((k − ½) ÷ n)`, since
/// `quantile` returns the bucket holding sample `ceil(n × q)`.
pub fn latency_runs(h: &neat_sim::Histogram) -> Vec<(u64, u64)> {
    let n = h.count();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for k in 1..=n {
        let v = h.quantile((k as f64 - 0.5) / n as f64).as_nanos();
        match runs.last_mut() {
            Some((last, c)) if *last == v => *c += 1,
            _ => runs.push((v, 1)),
        }
    }
    runs
}

fn busy_pct(busy_ns: u64, window_s: f64) -> f64 {
    ratio(busy_ns as f64, window_s * 1e9) * 100.0
}

/// Cycles the thread spent busy per completed request, at the server
/// machine's 1.9 GHz (AMD Opteron 6168).
fn cycles_per_req(busy_ns: u64, requests: u64) -> f64 {
    ratio(busy_ns as f64 * 1.9, requests as f64)
}

fn obs(r: &Rep, name: &str) -> f64 {
    r.obs
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or(0.0)
}

/// Every per-layer metric, by name. Counts and `ThreadStats` reads are
/// simulated-ledger and exact; the `*_ns_per_*` values come from the
/// host-timed replays.
pub fn layer_json(r: &Rep, rp: &Replays, spans: &Spans) -> Json {
    let req = r.requests as f64;
    let per_req = |v: f64| ratio(v, req);
    let win = r.window_s;
    let frames = obs(r, "nic.rx_frames") + obs(r, "nic.tx_frames");
    let segs = obs(r, "tcp.rx_segments") + obs(r, "tcp.tx_segments");
    let rexmits = obs(r, "tcp.rto_retransmits") + obs(r, "tcp.fast_retransmits");
    let accepted = obs(r, "tcp.conns_accepted");
    let deltas_sent = obs(r, "repl.deltas_sent");
    let deltas_applied = obs(r, "repl.deltas_applied");
    let server_sleeps: u64 = r.server_threads.iter().map(|t| t.sleeps).sum();
    let replica_busy: u64 = r.replicas.iter().map(|t| t.busy_ns).sum();
    let web_busy: u64 = r.webs.iter().map(|t| t.busy_ns).sum();
    let window_ns_per_req = ratio(r.wall_s * 1e9, req);

    // Host cost the replays account for, as (ns per op, ops per request).
    let attributed = [
        (rp.sim_ns_per_event, per_req(r.events as f64)),
        (rp.nic_ns_per_frame, per_req(frames)),
        (
            (rp.net_parse_ns_per_pkt + rp.net_emit_ns_per_pkt),
            per_req(frames),
        ),
        (rp.tcp_ns_per_seg, per_req(segs)),
        (rp.tcp_ns_per_conn, per_req(accepted)),
        (rp.repl_ns_per_delta, per_req(deltas_sent)),
    ];

    let mut j = Json::object()
        // --- sim ---
        .field("sim.events_per_req", per_req(r.events as f64))
        .field(
            "sim.host_ns_per_event",
            ratio(r.wall_s * 1e9, r.events as f64),
        )
        .field("sim.replay_ns_per_event", rp.sim_ns_per_event)
        .field("sim.batch_occupancy", r.batch_occupancy)
        .field("sim.server_sleeps_per_req", per_req(server_sleeps as f64))
        // --- nic ---
        .field("nic.frames_per_req", per_req(frames))
        .field("nic.rx_ring_depth_max", obs(r, "nic.rx_ring_depth_max"))
        .field("nic.rx_dropped_ring", obs(r, "nic.rx_dropped_ring"))
        .field("nic.replay_ns_per_frame", rp.nic_ns_per_frame)
        // --- net ---
        .field("net.replay_parse_ns_per_pkt", rp.net_parse_ns_per_pkt)
        .field("net.replay_emit_ns_per_pkt", rp.net_emit_ns_per_pkt)
        .field("net.pktbuf_grants_per_req", per_req(r.pktbuf_grants as f64))
        .field(
            "net.pktbuf_copies_avoided_ratio",
            ratio(r.pktbuf_copies_avoided as f64, r.pktbuf_grants as f64),
        )
        .field("net.pktbuf_outstanding", r.pktbuf_outstanding)
        // --- tcp ---
        .field("tcp.segments_per_req", per_req(segs))
        .field("tcp.retransmits_per_kseg", ratio(rexmits * 1e3, segs))
        .field("tcp.conns_accepted_per_req", per_req(accepted))
        .field("tcp.syn_dropped", obs(r, "tcp.syn_dropped"))
        .field("tcp.replay_ns_per_seg", rp.tcp_ns_per_seg)
        .field("tcp.replay_ns_per_conn", rp.tcp_ns_per_conn)
        // --- core ---
        .field("core.driver_busy_pct", busy_pct(r.driver.busy_ns, win))
        .field(
            "core.driver_cycles_per_req",
            cycles_per_req(r.driver.busy_ns, r.requests),
        )
        .field(
            "core.replica_busy_pct_max",
            r.replicas
                .iter()
                .map(|t| busy_pct(t.busy_ns, win))
                .fold(0.0, f64::max),
        )
        .field(
            "core.replica_cycles_per_req",
            cycles_per_req(replica_busy, r.requests),
        )
        .field(
            "core.replica_queue_max",
            r.replicas.iter().map(|t| t.max_queue).max().unwrap_or(0),
        )
        .field("core.syscall_busy_pct", busy_pct(r.syscall.busy_ns, win))
        .field("core.repl_deltas_per_req", per_req(deltas_sent))
        .field(
            "core.repl_applied_ratio",
            ratio(deltas_applied, deltas_sent),
        )
        .field("core.repl_replay_ns_per_delta", rp.repl_ns_per_delta)
        .field(
            "core.handoff_ratio",
            ratio(r.handoffs as f64, r.crashes_seen as f64),
        )
        .field("core.stateful_losses", r.stateful_losses)
        .field(
            "core.host_unattributed_ns_per_req",
            metrics::unattributed_ns_per_req(window_ns_per_req, &attributed),
        )
        // --- apps ---
        .field(
            "apps.web_busy_pct",
            busy_pct(web_busy, win) / r.webs.len().max(1) as f64,
        )
        .field(
            "apps.web_cycles_per_req",
            cycles_per_req(web_busy, r.requests),
        )
        .field("apps.client_stalled_slices", r.stalled_slices);

    // Self time of each top-level phase, from the spans.
    let s = spans.spans();
    for name in [
        "build",
        "warmup",
        "window.slice",
        "crash",
        "recovery",
        "replay",
    ] {
        let total: u64 = s
            .iter()
            .filter(|sp: &&Span| sp.name == name)
            .map(|sp| metrics::self_time_ns(s, sp.id))
            .sum();
        j = j.field(format!("span.{name}.self_s"), total as f64 / 1e9);
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_list_every_sample_by_bucket() {
        let mut h = neat_sim::Histogram::new();
        assert!(latency_runs(&h).is_empty());
        for ns in [5, 5, 7, 1_000, 1_001, 3_000_000, 7] {
            h.record(neat_sim::Time::from_nanos(ns));
        }
        let runs = latency_runs(&h);
        assert_eq!(runs.iter().map(|r| r.1).sum::<u64>(), 7);
        assert_eq!(runs[0], (5, 2));
        assert_eq!(runs[1], (7, 2));
        // 1000 and 1001 share a bucket; values are bucket lower bounds.
        assert_eq!(runs[2].1, 2);
        assert!(runs[2].0 <= 1_000);
        assert!(runs[3].0 <= 3_000_000 && runs[3].0 > 2_800_000);
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            let k = (7.0 * q).ceil() as u64;
            let mut seen = 0;
            let from_runs = runs
                .iter()
                .find(|(_, c)| {
                    seen += c;
                    seen >= k
                })
                .map(|r| r.0);
            assert_eq!(from_runs, Some(h.quantile(q).as_nanos()), "q = {q}");
        }
    }
}
