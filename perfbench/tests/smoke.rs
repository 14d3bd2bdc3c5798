//! Smoke test at tiny sizes: every workload, untraced and traced, passes
//! its correctness checks and prints every metric `BENCHMARK.json` names,
//! as a number with the unit the file gives it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The string value of `key` in a flat JSON object's text.
fn field(obj: &str, key: &str) -> String {
    let k = format!("\"{key}\": \"");
    let at = obj.find(&k).unwrap_or_else(|| panic!("no {key} in {obj}")) + k.len();
    obj[at..]
        .split('"')
        .next()
        .expect("closing quote")
        .to_string()
}

/// The objects of one array section of `BENCHMARK.json` (objects there
/// hold no nested brackets).
fn section<'a>(json: &'a str, name: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{name}\""))
        .unwrap_or_else(|| panic!("no {name} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("end of section")];
    body.split('{').skip(1).collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_named_metric_prints_with_its_unit() {
    let json = benchmark_json();
    let workloads: Vec<String> = section(&json, "workloads")
        .iter()
        .map(|o| field(o, "name"))
        .collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, metrics) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {line}"
            );
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
            for obj in section(&json, metrics) {
                let (name, unit) = (field(obj, "name"), field(obj, "unit"));
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace}: no {name}"))
                    + key.len();
                let (value, rest) = line[at..].split_once(", ").expect("value, unit");
                let value: f64 = value
                    .parse()
                    .unwrap_or_else(|_| panic!("{name} = {value} is not a number"));
                assert!(value.is_finite(), "{name} = {value}");
                assert!(
                    rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{name} should be in {unit}: {rest}"
                );
            }
        }
    }
}
