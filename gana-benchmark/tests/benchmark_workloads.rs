//! Workload inputs are a pure function of the seed, and every run prints
//! exactly the metrics `BENCHMARK.json` declares.

use gana::incremental::Digest;
use gana_benchmark::inputs::{self, EditStream};
use gana_benchmark::Workload;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Duration;

fn designs_digest(seed: u64) -> u128 {
    let mut d = Digest::new();
    for design in inputs::paper_designs(seed) {
        d.write(&design.spice);
    }
    d.finish()
}

fn edits_digest(seed: u64) -> u128 {
    let system = gana::datasets::phased_array::generate(seed);
    let mut stream = EditStream::new(&system.circuit, seed);
    let mut d = Digest::new();
    for _ in 0..100 {
        d.write(format!("{:?}", stream.next_edit()));
    }
    d.finish()
}

fn schedule_digest(seed: u64) -> u128 {
    let pools = inputs::serve_pools(seed);
    let mut d = Digest::new();
    for connection in 0..2 {
        let schedule =
            inputs::arrival_schedule(seed, connection, 30.0, Duration::from_secs(5), &pools);
        d.write(format!("{schedule:?}"));
    }
    for entry in pools.iter().flatten() {
        d.write(&entry.design.spice);
    }
    d.finish()
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for digest in [designs_digest, edits_digest, schedule_digest] {
        assert_eq!(digest(3), digest(3), "same seed, same inputs");
        assert_ne!(digest(3), digest(4), "another seed, other inputs");
    }
}

#[test]
fn edit_stream_keeps_its_mix_in_every_block() {
    let system = gana::datasets::phased_array::generate(5);
    let mut stream = EditStream::new(&system.circuit, 5);
    let mut circuit = system.circuit.clone();
    for _ in 0..20 {
        let mut counts = [0; 3];
        for _ in 0..inputs::EDIT_BLOCK {
            let edit = stream.next_edit();
            counts[edit.kind() as usize] += 1;
            edit.apply(&mut circuit);
        }
        assert_eq!(counts, [6, 2, 2]);
    }
}

#[test]
fn arrival_schedule_offers_exactly_its_rate() {
    let pools = inputs::serve_pools(1);
    let schedule = inputs::arrival_schedule(9, 0, 30.0, Duration::from_secs(10), &pools);
    assert_eq!(schedule.len(), 300);
    assert!(schedule.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(schedule.last().unwrap().at < Duration::from_secs(10));
}

/// A minimal JSON reader: enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    List(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut chars = text.chars().peekable();
        let value = Json::value(&mut chars);
        Json::skip_space(&mut chars);
        assert!(chars.next().is_none(), "trailing text after JSON value");
        value
    }

    fn skip_space(chars: &mut std::iter::Peekable<std::str::Chars>) {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    }

    fn value(chars: &mut std::iter::Peekable<std::str::Chars>) -> Json {
        Json::skip_space(chars);
        match chars.peek().copied().expect("a JSON value") {
            '{' => {
                chars.next();
                let mut map = BTreeMap::new();
                loop {
                    Json::skip_space(chars);
                    if chars.peek() == Some(&'}') {
                        chars.next();
                        return Json::Object(map);
                    }
                    let Json::Text(key) = Json::value(chars) else {
                        panic!("object keys are strings")
                    };
                    Json::skip_space(chars);
                    assert_eq!(chars.next(), Some(':'));
                    map.insert(key, Json::value(chars));
                    Json::skip_space(chars);
                    if chars.peek() == Some(&',') {
                        chars.next();
                    }
                }
            }
            '[' => {
                chars.next();
                let mut list = Vec::new();
                loop {
                    Json::skip_space(chars);
                    if chars.peek() == Some(&']') {
                        chars.next();
                        return Json::List(list);
                    }
                    list.push(Json::value(chars));
                    Json::skip_space(chars);
                    if chars.peek() == Some(&',') {
                        chars.next();
                    }
                }
            }
            '"' => {
                chars.next();
                let mut text = String::new();
                loop {
                    match chars.next().expect("closed string") {
                        '"' => return Json::Text(text),
                        '\\' => text.push(chars.next().expect("escaped char")),
                        c => text.push(c),
                    }
                }
            }
            _ => {
                let mut word = String::new();
                while chars
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || "+-.".contains(*c))
                {
                    word.push(chars.next().unwrap());
                }
                match word.as_str() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Number(number.parse().expect("a JSON number")),
                }
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => map.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(list) => list,
            other => panic!("{other:?} is not a list"),
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::Text(text) => text,
            other => panic!("{other:?} is not a string"),
        }
    }
}

fn declared(benchmark: &Json, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .list()
        .iter()
        .map(|m| {
            (
                m.get("name").text().to_string(),
                m.get("unit").text().to_string(),
            )
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_run_prints_exactly_the_declared_metrics() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark = Json::parse(&std::fs::read_to_string(manifest).expect("BENCHMARK.json"));
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .list()
        .iter()
        .map(|w| w.get("name").text())
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = declared(&benchmark, section);
        assert!(expected.iter().all(|(name, _)| valid_name(name)));
        for workload in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_gana-benchmark"))
                .args(["--workload", workload, "--seed", "2", "--seconds", "0.5"])
                .args(["--trace", trace])
                .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            assert!(out.status.success(), "{workload} trace {trace}: {stdout}");
            let result = Json::parse(stdout.lines().last().expect("a result line"));
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert_eq!(result.get("failed"), &Json::Number(0.0));
            let Json::Object(metrics) = result.get("metrics") else {
                panic!("metrics is an object")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), m.get("unit").text().to_string()))
                .collect();
            let mut sorted = expected.clone();
            sorted.sort();
            assert_eq!(printed, sorted, "{workload} trace {trace}");
            for (name, _) in &expected {
                let line = stdout
                    .lines()
                    .find(|l| l.split(' ').next() == Some(name.as_str()));
                assert!(line.is_some(), "{workload}: no `{name} value unit` line");
            }
        }
    }
}
