//! failover — buddy-replica failover and live flow migration headlines.
//!
//! Two fixed-seed scenarios on the replicated multi-component stack
//! (`NeatConfig::multi(2).replicated()`), both CI-gated:
//!
//! * **Crash failover**: poison the TCP component of one replica while
//!   long-lived connections are in flight. The supervisor hands the dead
//!   replica's flows to the respawned head via its buddy
//!   (`ReplHandoff` → `ReplRestore` → `ReplRestored`), so recovery must be
//!   transparent: zero connections lost, zero client-visible errors in
//!   the crash window. Headlines: `failover_transparent_pct` and
//!   `failover_handoff_pct` (both expected at 100).
//!
//! * **Live migration**: `Msg::ScaleDown` drains a replica by migrating
//!   its established flows to the surviving head over the same transfer
//!   path (`MigrateOut` → `ReplRestore`), no crash involved. Headlines:
//!   `migration_krps` (service keeps running through the migration),
//!   `migration_errors` and `migration_lost_conns` (both expected at 0).
//!
//! The `neat-obs` registry is disabled for the entire binary, so the
//! embedded snapshot stays empty and the JSON byte-identical run to run
//! (tier-2 CI runs the quick profile twice and diffs it).
//!
//! Everything is virtual-time deterministic: fixed seeds, no wall clock
//! in any reported number.

use neat::config::NeatConfig;
use neat::msg::Msg;
use neat::supervisor::Role;
use neat_apps::scenario::{Testbed, TestbedSpec, Workload};
use neat_bench::{quick, BenchReport, Table};
use neat_sim::Time;

fn testbed(seed: u64) -> Testbed {
    let mut spec = TestbedSpec::amd(NeatConfig::multi(2).replicated(), 4);
    spec.seed = seed;
    spec.clients = 4;
    spec.workload = Workload {
        conns_per_client: 8,
        requests_per_conn: 1_000, // long-lived connections: crash impact visible
        ..Workload::default()
    };
    Testbed::build(spec)
}

struct CrashOutcome {
    transparent: bool,
    handoff: bool,
    lost: u64,
    errors: u64,
    requests: u64,
}

/// Crash the TCP component of one replica mid-run; classify the crash
/// window exactly like `table3` does (pre-crash churn is not the fault's
/// doing).
fn crash_run(seed: u64, replica: usize) -> CrashOutcome {
    let mut tb = testbed(seed);
    tb.sim.run_until(Time::from_millis(150));

    let pid = tb.deployment.comp_pids[replica]
        .iter()
        .find(|(r, _)| *r == Role::Tcp)
        .map(|(_, p)| *p)
        .expect("tcp component");
    let pre_lost: u64 = tb
        .web_metrics
        .iter()
        .map(|m| m.borrow().conns_lost_to_crash)
        .sum();
    let pre_errors = tb.total_errors();
    let pre_requests = tb.total_reported();
    tb.sim.send_external(pid, Msg::Poison);
    let now = tb.sim.now();
    tb.sim.run_until(now + Time::from_millis(300));

    let lost: u64 = tb
        .web_metrics
        .iter()
        .map(|m| m.borrow().conns_lost_to_crash)
        .sum::<u64>()
        .saturating_sub(pre_lost);
    let errors = tb.total_errors().saturating_sub(pre_errors);
    let stats = tb.deployment.sup_stats.borrow().clone();
    CrashOutcome {
        transparent: lost == 0 && errors == 0,
        handoff: stats.handoffs_completed >= 1,
        lost,
        errors,
        requests: tb.total_reported().saturating_sub(pre_requests),
    }
}

struct MigrationOutcome {
    completed: bool,
    krps: f64,
    errors: u64,
    lost: u64,
    settle: Time,
}

/// Scale down a two-replica deployment: the drained replica's established
/// flows migrate live to the survivor; clients must not notice.
fn migration_run(seed: u64) -> MigrationOutcome {
    let mut tb = testbed(seed);
    tb.sim.run_until(Time::from_millis(150));

    let pre_errors = tb.total_errors();
    let pre_lost: u64 = tb
        .web_metrics
        .iter()
        .map(|m| m.borrow().conns_lost_to_crash)
        .sum();
    let pre_requests = tb.total_reported();
    let t0 = tb.sim.now();
    tb.sim
        .send_external(tb.deployment.supervisor, Msg::ScaleDown);
    // The drain is lazy: step until the supervisor reports completion
    // (fixed virtual-time steps, so the loop shape is deterministic).
    let deadline = t0 + Time::from_millis(500);
    while tb.deployment.sup_stats.borrow().scale_downs_completed == 0 && tb.sim.now() < deadline {
        let next = tb.sim.now() + Time::from_millis(10);
        tb.sim.run_until(next);
    }
    let settle = tb.sim.now().since(t0);
    // Measure a post-migration window on the surviving replica.
    let now = tb.sim.now();
    tb.sim.run_until(now + Time::from_millis(150));

    let elapsed = tb.sim.now().since(t0);
    let requests = tb.total_reported().saturating_sub(pre_requests);
    let completed = tb.deployment.sup_stats.borrow().scale_downs_completed == 1;
    MigrationOutcome {
        completed,
        krps: requests as f64 / elapsed.as_secs_f64() / 1e3,
        errors: tb.total_errors().saturating_sub(pre_errors),
        lost: tb
            .web_metrics
            .iter()
            .map(|m| m.borrow().conns_lost_to_crash)
            .sum::<u64>()
            .saturating_sub(pre_lost),
        settle,
    }
}

fn main() {
    // Environment independence for the determinism gate: keep the obs
    // registry out of the report entirely.
    neat_obs::set_thread_enabled(false);
    let args: Vec<String> = std::env::args().collect();
    let runs = if quick() || args.iter().any(|a| a == "--quick") {
        3
    } else {
        10
    };
    println!("failover: {runs} crash runs + 1 live migration");

    let mut report = BenchReport::new("failover");
    let mut t = Table::new(
        format!("Crash failover — TCP component poisoned, {runs} fixed-seed runs"),
        &[
            "seed",
            "transparent",
            "handoff",
            "lost",
            "errors",
            "reqs in window",
        ],
    );
    let mut transparent = 0usize;
    let mut handoffs = 0usize;
    for i in 0..runs {
        let seed = 0xFA_110 + i as u64;
        let o = crash_run(seed, i % 2);
        transparent += o.transparent as usize;
        handoffs += o.handoff as usize;
        t.row(&[
            format!("{seed:#x}"),
            if o.transparent { "yes" } else { "NO" }.into(),
            if o.handoff { "yes" } else { "NO" }.into(),
            o.lost.to_string(),
            o.errors.to_string(),
            o.requests.to_string(),
        ]);
    }
    report.table(&t);
    let pct = |n: usize| n as f64 / runs as f64 * 100.0;
    report.metric("failover_transparent_pct", pct(transparent));
    report.metric("failover_handoff_pct", pct(handoffs));

    let m = migration_run(0x5CA1E);
    let mut t2 = Table::new(
        "Live migration — ScaleDown drains one replica, flows move to its buddy",
        &[
            "completed",
            "settle (ms)",
            "krps through migration",
            "errors",
            "lost conns",
        ],
    );
    t2.row(&[
        if m.completed { "yes" } else { "NO" }.into(),
        format!("{:.1}", m.settle.as_secs_f64() * 1e3),
        format!("{:.1}", m.krps),
        m.errors.to_string(),
        m.lost.to_string(),
    ]);
    report.table(&t2);
    report.metric("migration_krps", m.krps);
    report.metric("migration_errors", m.errors as f64);
    report.metric("migration_lost_conns", m.lost as f64);
    report.finish();
    println!(
        "With buddy replication every TCP crash should hand its flows to\n\
         the respawned head (transparent + handoff = 100%), and a live\n\
         migration should drain a replica with zero client-visible errors."
    );
}
