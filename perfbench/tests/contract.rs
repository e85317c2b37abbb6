//! The benchmark's own contract: the names in `BENCHMARK.json` are the
//! names the command prints, every workload passes its checks on a
//! shortened run, and the traced run's equality check is live.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::traced::{traced_experiment, SimDigest};
use perfbench::{workload, Scale, WORKLOADS};
use std::process::Command;

/// A parsed JSON value (just enough JSON for this test).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => kv
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected '{}' at {}", c as char, self.i);
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut kv = Vec::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Obj(kv);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    kv.push((k, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("utf-8") {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n}"))),
                }
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
        self.i += 1;
        s.to_string()
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_program_measures() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
}

/// Runs the command on a shortened workload and returns its result line.
fn run_short(workload: &str, trace: bool) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--short"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (Parser::parse(&last), stdout)
}

#[test]
fn every_workload_prints_every_metric_by_name_and_unit() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let (result, stdout) = run_short(w, trace);
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{w} trace={trace}"
            );
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let metrics = result.get("metrics");
            assert_eq!(
                metrics.keys(),
                table.iter().map(|m| m.0).collect::<Vec<_>>(),
                "{w} trace={trace}"
            );
            for &(name, unit) in table {
                assert_eq!(metrics.get(name).get("unit").str(), unit);
                assert!(matches!(metrics.get(name).get("value"), Json::Num(v) if v.is_finite()));
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{name} = ")) && l.ends_with(unit)),
                    "{w}: no '{name} = … {unit}' line"
                );
            }
            if !trace {
                for name in END_TO_END.iter().map(|m| m.0).filter(|n| *n != "setup_s") {
                    assert!(
                        metrics.get(name).get("value") != &Json::Num(0.0),
                        "{w}: {name} is 0"
                    );
                }
            }
        }
    }
}

#[test]
fn traced_run_reproduces_the_untraced_results_exactly() {
    let w = workload("bimodal-ib256", 5, Scale::Short).expect("known workload");
    let untraced = mdworm::run_experiment(&w.cfg, &w.spec, &w.run);
    let traced = traced_experiment(&w.cfg, &w.spec, &w.run);
    assert!(traced.digest.same(&SimDigest::of(&untraced)));
    // The check has teeth: another seed's results differ.
    let other = workload("bimodal-ib256", 6, Scale::Short).expect("known workload");
    let different = mdworm::run_experiment(&other.cfg, &other.spec, &other.run);
    assert!(!traced.digest.same(&SimDigest::of(&different)));
}

#[test]
fn unknown_arguments_are_usage_errors() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "mcast-heavy-cb256", "--trace", "2"],
        &["--bogus", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
