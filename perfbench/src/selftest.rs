//! The benchmark's self-test: every metric named in `BENCHMARK.json` is
//! printed with its unit, and at a tiny size two runs with one seed do
//! exactly the same work. Run with `cargo test --release`.

use crate::bank::BankSpec;
use crate::kv::KvSpec;
use crate::{run, Budget, Spec, Workload, E2E, LAYER};
use txfix_core::json::Json;

/// Each workload shrunk to well under a second, with enough ops per run
/// for every end-to-end percentile to have ten samples beyond it.
fn tiny(w: Workload) -> (Spec, Budget) {
    let spec = match w.spec() {
        Spec::Kv(s) => Spec::Kv(KvSpec { keys: s.keys / 8, quota: s.quota / 4, ..s }),
        Spec::Bank(s) => Spec::Bank(BankSpec { quota: s.quota / 5, ..s }),
    };
    (spec, Budget::Epochs(12))
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let top = doc.object("BENCHMARK.json").unwrap();
    txfix_core::json::get(top, section)
        .unwrap()
        .array(section)
        .unwrap()
        .iter()
        .map(|m| {
            let m = m.object("metric").unwrap();
            let field = |k| txfix_core::json::get(m, k).unwrap().string(k).unwrap();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn the_metric_tables_match_benchmark_json() {
    assert_eq!(owned(E2E), declared("end_to_end"));
    assert_eq!(owned(LAYER), declared("per_layer"));
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    for w in Workload::ALL {
        let (spec, budget) = tiny(w);
        for (trace, table) in [(false, E2E), (true, LAYER)] {
            let out =
                run(w, spec, 7, budget, trace).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(out.problems.is_empty() && out.failed == 0, "{}: {:?}", w.name(), out.problems);
            let printed: Vec<(String, String)> =
                out.metrics.iter().map(|(n, _, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(printed, owned(table), "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn two_runs_with_one_seed_do_the_same_work() {
    for w in Workload::ALL {
        let (spec, budget) = tiny(w);
        let a = run(w, spec, 11, budget, false).unwrap().counts;
        let b = run(w, spec, 11, budget, false).unwrap().counts;
        assert_eq!(a, b, "{}: [reads, writes, scans, user bytes] differ", w.name());
        assert!(a.iter().all(|&c| c > 0), "{}: {a:?}", w.name());
        let c = run(w, spec, 12, budget, false).unwrap().counts;
        assert_ne!(a, c, "{}: the seed does not reach the inputs", w.name());
    }
}
