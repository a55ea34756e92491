//! Self-test: every workload at a tiny size prints exactly the metrics
//! `BENCHMARK.json` declares, with the declared units, and its modeled
//! metrics repeat bit for bit across two runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::json::{parse, Value};
use perfbench::{metrics, run, Kind, Opts, Report, Size};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(kind: Kind, trace: bool) -> Report {
    let opts = Opts {
        kind,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        setup_runs: 1,
        setup_exe: None,
        spans_out: None,
    };
    run(&opts).unwrap_or_else(|e| panic!("{}: {e}", kind.name()))
}

fn printed(r: &Report) -> Vec<(String, String)> {
    // Go through the printed line, not the in-memory list.
    let line = parse(&r.json()).expect("the result line is JSON");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    let Some(Value::Obj(m)) = line.get("metrics") else {
        panic!("no metrics object")
    };
    assert_eq!(m.len(), r.metrics.len(), "duplicate metric names");
    m.iter()
        .map(|(n, v)| {
            (
                n.clone(),
                v.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn checked_in_benchmark_json_is_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    assert_eq!(
        std::fs::read_to_string(path).unwrap(),
        metrics::benchmark_json(),
        "regenerate with `perfbench --benchmark-json > BENCHMARK.json`"
    );
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, Kind::ALL.map(Kind::name));
}

#[test]
fn every_workload_prints_the_declared_metrics_and_repeats_modeled_ones() {
    const HOST: [&str; 3] = ["setup_s", "pass_s.p50", "pass_s.p90"];
    for kind in Kind::ALL {
        let a = tiny(kind, false);
        assert_eq!(
            printed(&a),
            sorted(declared("end_to_end")),
            "{}: end-to-end",
            kind.name()
        );
        let b = tiny(kind, false);
        assert_eq!(
            a.modeled_digest,
            b.modeled_digest,
            "{}: modeled digest",
            kind.name()
        );
        for ((name, va, _), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
            if !HOST.contains(&name.as_str()) {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "{}: {name} must repeat exactly",
                    kind.name()
                );
            }
        }
        let t = tiny(kind, true);
        assert_eq!(
            printed(&t),
            sorted(declared("per_layer")),
            "{}: per-layer",
            kind.name()
        );
        assert_eq!(
            t.modeled_digest,
            a.modeled_digest,
            "{}: tracing changed results",
            kind.name()
        );
    }
}
