//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --benchmark-json          # render BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed output check prints
//! `"correct": false` with no metrics and exits 1.

use perfbench::{metrics, run, setup_once, Kind, Opts, Size};
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups measured per run (each in its own process); `setup_s` is their median.
const SETUP_RUNS: usize = 5;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let mut kind = None;
    let mut seed = None;
    let mut seconds = f64::from(metrics::RUN_SECONDS);
    let mut trace = false;
    let mut setup_child = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_default();
        match a.as_str() {
            "--workload" => match Kind::parse(&val()) {
                Some(k) => kind = Some(k),
                None => return usage("unknown workload"),
            },
            "--seed" => match val().parse() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match val().parse::<f64>() {
                Ok(s) if s >= 0.0 => seconds = s,
                _ => return usage("--seconds takes a non-negative number"),
            },
            "--trace" => match val().as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--setup-child" => setup_child = true,
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(kind), Some(seed)) = (kind, seed) else {
        return usage("--workload and --seed are required");
    };
    if setup_child {
        println!("{}", setup_once(kind, Size::Full, seed).line());
        return ExitCode::SUCCESS;
    }
    let opts = Opts {
        kind,
        seed,
        seconds,
        trace,
        size: Size::Full,
        setup_runs: SETUP_RUNS,
        setup_exe: std::env::current_exe().ok(),
        spans_out: trace
            .then(|| PathBuf::from(format!("perfbench/out/{}.trace.json", kind.name()))),
    };
    match run(&opts) {
        Ok(report) => {
            println!(
                "# {} seed={} passes={} modeled_digest={}",
                kind.name(),
                seed,
                report.passes,
                report.modeled_digest
            );
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", kind.name());
            println!("{{\"correct\": false, \"attempted\": 0, \"failed\": 0, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
    }
}
