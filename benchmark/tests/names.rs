//! `BENCHMARK.json` and the harness must name the same metrics, and the
//! manifest's workloads must be ones the harness runs: the driver looks
//! both up by the manifest's names.

use std::collections::BTreeSet;
use std::process::{Command, Stdio};

use hsc_obs::json::{self, Value};

fn names(list: &Value) -> BTreeSet<String> {
    list.as_array()
        .expect("a list of named entries")
        .iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("entry has a name").to_owned())
        .collect()
}

fn keys(object: &Value) -> BTreeSet<String> {
    object.as_object().expect("an object").keys().cloned().collect()
}

#[test]
fn manifest_and_quick_run_name_the_same_metrics_and_known_workloads() {
    let here = env!("CARGO_MANIFEST_DIR");
    let manifest = std::fs::read_to_string(format!("{here}/../BENCHMARK.json")).unwrap();
    let manifest = json::parse(&manifest).expect("BENCHMARK.json parses");

    let out = std::env::temp_dir().join(format!("hsc-names-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_hsc-e2e"))
        .args(["--quick", "--rounds", "1", "--layers-bin", env!("CARGO_BIN_EXE_hsc-layers")])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .expect("hsc-e2e starts");
    assert!(status.success(), "hsc-e2e --quick exits 0");
    let results = json::parse(&std::fs::read_to_string(&out).unwrap()).expect("results parse");
    let _ = std::fs::remove_file(&out);
    let workloads = results.get("workloads").expect("results list workloads");

    // The suite runs seven workloads; the manifest names the four the
    // driver's time limit leaves room for (README "Deviations").
    let listed = names(manifest.get("workloads").unwrap());
    assert!(listed.is_subset(&keys(workloads)), "{listed:?} are all suite workloads");
    let end_to_end = names(manifest.get("end_to_end").unwrap());
    let per_layer = names(manifest.get("per_layer").unwrap());
    for (name, w) in workloads.as_object().unwrap() {
        assert_eq!(keys(w.get("end_to_end").unwrap()), end_to_end, "{name}: end-to-end metrics");
        assert_eq!(keys(w.get("per_layer").unwrap()), per_layer, "{name}: per-layer metrics");
        assert_eq!(w.get("failed").and_then(Value::as_f64), Some(0.0), "{name}: failed reps");
        // The default seed is the one baseline.json was taken at.
        let mismatches = w.get("baseline_mismatches").and_then(Value::as_f64);
        assert_eq!(mismatches, Some(0.0), "{name}: sim_* and events against baseline.json");
    }
    let legal = |n: &String| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for name in keys(workloads).iter().chain(&end_to_end).chain(&per_layer) {
        assert!(legal(name), "{name:?} must match [A-Za-z0-9_.-]+");
    }
}
