//! The repository benchmark. One command runs a workload (or all of
//! them), checks its outputs, and prints every metric with its unit; the
//! last line of standard output is the JSON result. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-steady|operator-sweep|serve-chaos|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```

mod harness;
mod host;
mod operators;
mod serve;
mod sweep;
mod trace;

use std::process::ExitCode;

use harness::{Args, Outcome};

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["serve-steady", "operator-sweep", "serve-chaos"];

const USAGE: &str = "usage: perfbench --workload <serve-steady|operator-sweep|serve-chaos|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}: use 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve-steady" => serve::run(serve::Kind::Steady, args),
        "serve-chaos" => serve::run(serve::Kind::Chaos, args),
        "operator-sweep" => sweep::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fields = Vec::new();
    for name in &names {
        let run_args = Args {
            workload: name.to_string(),
            ..args.clone()
        };
        println!(
            "== {name} (seed {}, {} s budget, {}) ==",
            args.seed,
            args.seconds,
            if args.trace {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            }
        );
        let outcome = match run_workload(&run_args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let rows = match outcome.metrics.render(args.trace) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for note in &outcome.notes {
            println!("{note}");
        }
        for (metric, value, unit) in &rows {
            println!("  {metric:<30} {value:>18.6} {unit}");
        }
        for v in &outcome.violations {
            eprintln!("perfbench: {name}: VIOLATION: {v}");
        }
        correct &= outcome.violations.is_empty();
        attempted += outcome.attempted;
        failed += outcome.failed;
        for (metric, value, unit) in rows {
            let key = if names.len() == 1 {
                metric.to_string()
            } else {
                format!("{name}/{metric}")
            };
            fields.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
