//! Run the complete evaluation: every table and figure of §6, writing
//! paper-shaped output to stdout and `results/*.txt`, plus one unified
//! `results/BENCH_<name>.json` per experiment.
//!
//! `--quick` (or `NEAT_BENCH_QUICK=1`) runs the deterministic smoke
//! configuration the CI regression gate compares against
//! `baselines/bench_baselines.json`: shorter measurement windows, the
//! file-size sweep capped at 100K, and a 10-run fault campaign.
//! `NEAT_TABLE3_RUNS=N` still overrides the fault-injection campaign size.
//!
//! Every binary runs even when an earlier one fails; failures are
//! collected and reported together, and the exit status is non-zero if
//! any binary failed (so CI shows the full picture instead of dying at
//! the first broken experiment).

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick") || neat_bench::quick();
    let bins = [
        "table1",
        "fig4_5",
        "fig7",
        "fig9",
        "fig11",
        "fig12",
        "table2",
        "table3",
        "failover",
        "fig13",
        "security",
        "ablations",
        "cc_compare",
        "conn_scale",
    ];
    let _ = std::fs::remove_dir_all("results");
    let exe = std::env::current_exe().expect("self path");
    let dir = exe.parent().expect("bin dir");
    let mut failed: Vec<String> = Vec::new();
    for b in bins {
        println!("\n=== {b} ===");
        let mut cmd = Command::new(dir.join(b));
        if quick {
            cmd.env("NEAT_BENCH_QUICK", "1");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("!!! {b} exited with {status}");
                failed.push(b.to_string());
            }
            Err(e) => {
                eprintln!("!!! failed to launch {b}: {e}");
                failed.push(b.to_string());
            }
        }
    }
    if failed.is_empty() {
        println!("\nAll experiments complete; outputs collected under results/.");
    } else {
        eprintln!(
            "\n{} of {} experiments FAILED: {}",
            failed.len(),
            bins.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
