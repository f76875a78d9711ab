//! Every workload at toy size, untraced and traced, with all its checks;
//! and `BENCHMARK.json` agrees with the metric tables in the code.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{context, run, WORKLOADS};

fn run_toy(workload: &str, trace: bool) {
    let rep = run(workload, &context(7, 0.6, trace, true)).expect("known workload");
    let text = rep.render(workload, trace, &[]);
    let (attempted, failed) = rep.totals();
    assert!(rep.correct(), "{workload} failed its checks:\n{text}");
    assert!(
        attempted > 0 && failed == 0,
        "{workload}: {attempted} attempted, {failed} failed\n{text}"
    );
    let last = text.lines().last().expect("a result line");
    let (correct, _, _, metrics) = perfbench::repeat::parse_result(last).expect("parsable result");
    assert!(correct);
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    assert_eq!(
        metrics.keys().map(String::as_str).collect::<Vec<_>>().len(),
        names.len()
    );
    for name in names {
        let v = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        if !trace {
            assert!(*v > 0.0, "{workload}: {name} = {v}");
        }
    }
}

#[test]
fn bulk_at_toy_size() {
    run_toy("bulk", false);
    run_toy("bulk", true);
}

#[test]
fn serve_at_toy_size() {
    run_toy("serve", false);
    run_toy("serve", true);
}

#[test]
fn churn_at_toy_size() {
    run_toy("churn", false);
    run_toy("churn", true);
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for m in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, m.bound
        );
        assert!(json.contains(&entry), "missing or different: {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "missing or different: {entry}");
    }
    let declared = json.matches("\"name\": ").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
