//! Every workload at 1/50 scale (`--seconds 0.3` of the 15-second run), both
//! passes: the run succeeds, no operation fails, the result line names
//! exactly the metrics `BENCHMARK.json` lists, each once, and the table for
//! people shows each per-layer metric once per workload it is measured on.

use std::collections::BTreeMap;

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_djstar-benchmark");
const WORKLOADS: [&str; 5] = [
    "paper_busy",
    "dsp_seq",
    "light_plan",
    "modewalk_plan",
    "venue_pair",
];

fn run(args: &[&str]) -> String {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("spawn benchmark");
    assert!(
        out.status.success(),
        "{args:?} exited {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The names listed under `section` of the manifest text, in order.
fn manifest_names(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} in manifest"));
    manifest[start..]
        .lines()
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .map(|l| {
            let rest = l.split("\"name\": \"").nth(1).expect("name field");
            rest.split('"').next().expect("closing quote").to_string()
        })
        .collect()
}

/// Metric names in a result line, in order of appearance.
fn result_names(line: &str) -> Vec<String> {
    let metrics = line.split("\"metrics\": {").nth(1).expect("metrics object");
    metrics
        .split("\": {\"value\": ")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_string)
        .collect()
}

/// Run one pass, check its result line against `expected`, and return the
/// metric names of its `# name value unit` rows.
fn check_pass(workload: &str, seed: &str, trace: &str, expected: &[String]) -> Vec<String> {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.3",
        "--trace",
        trace,
    ]);
    let line = out.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload} trace {trace}: {line}"
    );
    assert!(
        line.contains("\"failed\": 0, "),
        "{workload} trace {trace}: failed operations: {line}"
    );
    let mut got = result_names(line);
    for name in &got {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
    }
    let mut want = expected.to_vec();
    got.sort();
    want.sort();
    assert_eq!(got, want, "{workload} trace {trace}: metric names");
    out.lines()
        .filter_map(|l| l.strip_prefix("# ")?.split_whitespace().next())
        .filter(|name| expected.iter().any(|e| e == name))
        .map(str::to_string)
        .collect()
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, run(&["--print-manifest"]));
}

#[test]
fn every_workload_prints_every_metric_once_and_fails_nothing() {
    let manifest = run(&["--print-manifest"]);
    assert_eq!(manifest_names(&manifest, "workloads"), WORKLOADS);
    let end_to_end = manifest_names(&manifest, "end_to_end");
    let per_layer = manifest_names(&manifest, "per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    // One test, run in sequence: two benchmark processes at once would
    // fight over the same two CPUs they pin themselves to.
    let mut shown_on: BTreeMap<String, usize> = BTreeMap::new();
    for workload in WORKLOADS {
        let mut rows = check_pass(workload, "1", "0", &end_to_end);
        rows.sort();
        let mut want = end_to_end.clone();
        want.sort();
        assert_eq!(rows, want, "{workload}: end-to-end rows");
        let rows = check_pass(workload, "1", "1", &per_layer);
        for name in &rows {
            *shown_on.entry(name.clone()).or_default() += 1;
        }
        let shown = rows.len();
        let mut rows = rows;
        rows.sort();
        rows.dedup();
        assert_eq!(rows.len(), shown, "{workload}: a per-layer row twice");
        // Correctness again on a second seed.
        check_pass(workload, "2", "0", &end_to_end);
    }
    // A per-layer metric is measured on every workload or on the one it
    // explains; no metric of the manifest is measured nowhere.
    for name in &per_layer {
        let on = shown_on.get(name).copied().unwrap_or(0);
        assert!(
            on == 1 || on == WORKLOADS.len(),
            "{name} shown on {on} workloads"
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"][..],
        &["--trace", "2"][..],
        &["--bogus", "1"][..],
    ] {
        let out = Command::new(EXE).args(args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
