//! The benchmark against its contract: the metric names it prints are
//! exactly the ones `BENCHMARK.json` declares, and a tiny-size run of
//! every workload passes its correctness checks with no failed operation.

use std::path::PathBuf;

use rcbench::{Options, Size, Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"name"` values of the objects in the top-level array `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("name value") + 1;
            let len = rest[open..].find('"').expect("name closes");
            rest[open..open + len].to_string()
        })
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(name, _)| name.to_string()).collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(names_in(&json, "end_to_end"), declared(&END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), declared(&PER_LAYER));
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
}

fn tiny(workload: Workload, trace: bool) -> rcbench::Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        out_dir,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_rcbench")),
    };
    rcbench::run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn assert_run(workload: Workload) {
    for (trace, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let outcome = tiny(workload, trace);
        assert!(
            outcome.correct && outcome.failed == 0,
            "{} trace={trace}: {:#?}",
            workload.name(),
            outcome.notes
        );
        assert!(outcome.attempted > 0);
        let printed: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(printed, expected, "{} trace={trace}", workload.name());
        if !trace {
            for (name, value, _) in &outcome.metrics {
                assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
            }
        }
        let json = outcome.to_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        for (name, _) in expected {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{json}"
            );
        }
    }
}

#[test]
fn deck_batch_tiny_run_is_correct() {
    assert_run(Workload::DeckBatch);
}

#[test]
fn serve_eco_tiny_run_is_correct() {
    assert_run(Workload::ServeEco);
}

#[test]
fn dag_certify_tiny_run_is_correct() {
    assert_run(Workload::DagCertify);
}
