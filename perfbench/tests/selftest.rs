//! Self-tests of the benchmark: every workload runs at tiny size and
//! prints each registered metric with its unit, the registry matches
//! `BENCHMARK.json`, and a corrupted reference answer is caught.

use dift_perfbench::{run, Config, Outcome, Scale, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, tag: &str) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        corrupt_reference: false,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{tag}-{}-{trace}", workload.name())),
    }
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn registry_matches_benchmark_json() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert_eq!(json.matches(&decl).count(), 1, "BENCHMARK.json must declare {decl} once");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "{} missing", w.name());
    }
    let declared = json.matches("\"name\": ").count();
    assert_eq!(declared, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out: Outcome = run(&tiny(w, trace, "smoke"));
            assert!(out.attempted > 0, "{}: nothing attempted", w.name());
            assert_eq!(out.failed, 0, "{} (trace {trace}): checks failed", w.name());
            let line = out.json_line(trace);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            for (name, unit) in Outcome::registry(trace) {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line.find(&key).unwrap_or_else(|| panic!("{}: {name} missing", w.name()));
                let rest = &line[at + key.len()..];
                let value: f64 =
                    rest[..rest.find(',').expect("value ends")].parse().expect("number");
                assert!(rest.contains(&format!("\"unit\": \"{unit}\"}}")), "{name}: unit");
                if !trace {
                    assert!(value > 0.0, "{}: end-to-end {name} must never be 0", w.name());
                }
            }
            for stamp in ["seed", "host_cores", "epoch_workers"] {
                assert!(out.stamps.iter().any(|(k, _)| *k == stamp), "{stamp} not stamped");
            }
        }
    }
}

#[test]
fn corrupted_reference_answer_counts_as_failed() {
    for w in Workload::ALL {
        let mut cfg = tiny(w, false, "corrupt");
        cfg.corrupt_reference = true;
        let out = run(&cfg);
        assert!(out.failed >= 1, "{}: a wrong reference went unnoticed", w.name());
        assert!(out.failed_frac() > 0.0);
        assert!(out.json_line(false).starts_with("{\"correct\": false,"));
    }
}
