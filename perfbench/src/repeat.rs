//! `repeat`: runs one workload several times, each with its own seed,
//! and prints the median, quartiles and spread of every metric — the
//! figures used to set each bound and to show the benchmark is steady.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method); spread is `(q3 - q1) / median`.

use crate::report::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Parses the final result line: `(correct, attempted, failed, metrics)`.
pub fn parse_result(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim())
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for chunk in body.split("}, ").map(|c| c.trim_end_matches('}')) {
        let name = chunk.split('"').nth(1)?;
        let value = chunk.split("\"value\": ").nth(1)?.split(',').next()?;
        metrics.insert(name.to_string(), value.trim().parse().ok()?);
    }
    Some((correct, attempted, failed, metrics))
}

/// `statistics.quantiles(xs, n=4)` (exclusive) and `statistics.median`.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let m = d.len();
    let median = if m % 2 == 1 {
        d[m / 2]
    } else {
        (d[m / 2 - 1] + d[m / 2]) / 2.0
    };
    if m < 2 {
        return (median, median, median);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), median, q(3))
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Entry point of `perfbench repeat`.
pub fn main(args: &[String]) -> ExitCode {
    let Some(workload) = flag(args, "--workload") else {
        eprintln!("repeat needs --workload");
        return ExitCode::from(2);
    };
    let runs: u64 = flag(args, "--runs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let first: u64 = flag(args, "--first-seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let seconds = flag(args, "--seconds").unwrap_or("10");
    let trace = flag(args, "--trace").unwrap_or("0");
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    let mut all_correct = true;
    for seed in first..first + runs {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", seconds, "--trace", trace])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("seed {seed}: exit {:?}", o.status.code());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some((correct, attempted, failed, metrics)) =
            stdout.lines().last().and_then(parse_result)
        else {
            eprintln!("seed {seed}: no result line");
            return ExitCode::FAILURE;
        };
        all_correct &= correct;
        shares.push(failed as f64 / attempted.max(1) as f64);
        let line: Vec<String> = metrics.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "seed {seed}: correct={correct} attempted={attempted} failed={failed} {}",
            line.join(" ")
        );
        for (k, v) in metrics {
            values.entry(k).or_default().push(v);
        }
    }
    println!("\n{workload}: {runs} runs, all correct: {all_correct}, failed shares: {shares:?}");
    println!(
        "{:<34} {:>16} {:>16} {:>16} {:>8} {:>7}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, xs) in &values {
        let (q1, med, q3) = quartiles(xs);
        let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
        let unit = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|&(n, _)| n == name)
            .map_or("", |(_, u)| u);
        println!(
            "{:<34} {q1:>16.6} {med:>16.6} {q3:>16.6} {:>8.4} {:>7} {unit}",
            name,
            (q3 - q1) / med.abs().max(f64::MIN_POSITIVE),
            bound.map_or("-".into(), |b| b.to_string()),
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
    }

    #[test]
    fn parses_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}";
        let (c, a, f, m) = parse_result(line).expect("parses");
        assert!(c);
        assert_eq!((a, f), (12, 0));
        assert_eq!(m["a"], 1.5);
        assert_eq!(m["b"], 2.0);
    }
}
