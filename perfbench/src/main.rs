//! Command line: one run, or `repeat` to run a workload several times.

use perfbench::{context, run, stats, UNLISTED, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <bulk|serve|churn> --seed <n> --seconds <s> --trace <0|1>
       perfbench repeat --workload <name> --runs <n> [--first-seed <n>] [--seconds <s>] [--trace <0|1>]";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("repeat") {
        return perfbench::repeat::main(&args[1..]);
    }
    let workload = flag(&args, "--workload").unwrap_or("");
    let seed = flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
    let seconds = flag(&args, "--seconds").and_then(|s| s.parse::<f64>().ok());
    let trace = flag(&args, "--trace").unwrap_or("0");
    let (Some(seed), Some(seconds), true, true) = (
        seed,
        seconds,
        WORKLOADS.contains(&workload) || UNLISTED.contains(&workload),
        trace == "0" || trace == "1",
    ) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let trace = trace == "1";
    let cx = context(seed, seconds, trace, false);
    let rep = run(workload, &cx).expect("workload name checked above");
    println!("{}", rep.render(workload, trace, &stats::machine()));
    ExitCode::SUCCESS
}
