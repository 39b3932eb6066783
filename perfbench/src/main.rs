//! `neat-perfbench` — the measuring half of the repository benchmark.
//! `run.py` builds it and drives it; see `README.md` for the workloads,
//! the metrics and how to read the trace.
//!
//! ```text
//! neat-perfbench rep <workload> <seed>           one untraced repetition
//! neat-perfbench traced <workload> <seed> <out>  one traced repetition plus
//!                                                the layer replays; spans
//!                                                go to <out>
//! neat-perfbench fig12-points                    the Figure 12 sweep in
//!                                                process, one line a point
//! ```
//!
//! Each command prints one JSON object on its last line.

mod metrics;
mod refkernel;
mod replay;
mod report;
mod spans;
mod workload;

use metrics::ROOT;
use spans::Spans;
use std::process::ExitCode;
use workload::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: neat-perfbench rep <workload> <seed>\n       \
         neat-perfbench traced <workload> <seed> <trace-out>\n       \
         neat-perfbench fig12-points"
    );
    ExitCode::from(2)
}

fn parse_workload_seed(args: &[String]) -> Option<(Workload, u64)> {
    let w = Workload::parse(args.first()?)?;
    let seed = args.get(1)?.parse().ok()?;
    Some((w, seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "rep" => {
            let Some((w, seed)) = parse_workload_seed(&args[1..]) else {
                return usage();
            };
            let rep = workload::run(w, seed, &mut Spans::new(false), ROOT);
            println!("{}", report::rep_json(&rep).render());
        }
        "traced" => {
            let (Some((w, seed)), Some(out)) = (parse_workload_seed(&args[1..]), args.get(3))
            else {
                return usage();
            };
            let mut spans = Spans::new(true);
            let top = spans.begin("rep", ROOT);
            let rep = workload::run(w, seed, &mut spans, top);
            spans.end(top);
            let replays = replay::run_all(w, &mut spans);
            let layers = report::layer_json(&rep, &replays, &spans);
            let names = layers.as_object().unwrap_or_default();
            if let Some((bad, _)) = names.iter().find(|(k, _)| !metrics::valid_name(k)) {
                eprintln!("invalid metric name {bad:?}");
                return ExitCode::FAILURE;
            }
            if let Err(e) = std::fs::write(out, spans.to_chrome_json().render()) {
                eprintln!("cannot write trace {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "{}",
                report::rep_json(&rep).field("layers", layers).render()
            );
        }
        "fig12-points" => {
            for line in replay::fig12_points() {
                println!("{}", line.render());
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
