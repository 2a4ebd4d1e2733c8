//! The benchmark's contract with its driver, checked on `--quick` runs:
//! `BENCHMARK.json` is exactly what the tables in `src/spec.rs` render,
//! every workload emits exactly the declared metric names and fails no
//! operation, and a seed fixes the generated inputs and the simulated
//! statistics.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

/// Workload runs spawn processes and time things: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The multi-process workloads start the real `procctl-serverd`, which
/// they look for beside `bench_all`. `cargo test` over the whole workspace
/// has built it; `cargo test -p bench-all` on a clean tree has not, so it
/// is built here, with the profile `bench_all` was built with.
fn ensure_serverd() {
    let dir = std::path::Path::new(env!("CARGO_BIN_EXE_bench_all"))
        .parent()
        .expect("bench_all sits in a directory");
    if dir.join("procctl-serverd").exists() {
        return;
    }
    let mut build = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    build.args([
        "build",
        "--offline",
        "-p",
        "native-rt",
        "--bin",
        "procctl-serverd",
    ]);
    if dir.ends_with("release") {
        build.arg("--release");
    }
    let status = build.status().expect("cargo runs");
    assert!(status.success(), "could not build procctl-serverd");
}

fn bench_all(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(args)
        // Scratch files land in the build directory, not the source tree.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("bench_all runs");
    assert!(
        out.status.success(),
        "bench_all {args:?} exited with {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("bench_all prints UTF-8")
}

// A JSON reader just large enough for the two documents checked here.
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
                .unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "at byte {}", self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                loop {
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(kv);
                    }
                    if !kv.is_empty() {
                        self.eat(b',');
                    }
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    kv.push((k, self.value()));
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                loop {
                    self.ws();
                    if self.s[self.i] == b']' {
                        self.i += 1;
                        return Json::Arr(a);
                    }
                    if !a.is_empty() {
                        self.eat(b',');
                    }
                    a.push(self.value());
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("UTF-8"))
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after the JSON value");
    v
}

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn names(list: &Json) -> Vec<String> {
    list.arr()
        .iter()
        .map(|m| m.get("name").str().to_string())
        .collect()
}

/// The result object: the last line of standard output.
fn result_of(stdout: &str) -> Json {
    parse(stdout.lines().last().expect("bench_all printed a result"))
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    let Json::Obj(kv) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    kv.iter()
        .map(|(k, v)| (k.clone(), v.get("value").num()))
        .collect()
}

#[test]
fn benchmark_json_is_rendered_from_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, bench_all(&["--print-benchmark-json"]));
}

#[test]
fn declared_names_fit_the_contract() {
    let d = declared();
    assert_eq!(
        d.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    };
    let workloads = d.get("workloads").arr();
    assert_eq!(workloads.len(), 6, "the issue fixes six workloads");
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = w.get("why").str();
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
    }
    let e2e = d.get("end_to_end").arr();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        assert!(unit_ok(m.get("unit").str()), "{m:?}");
        assert!(["higher", "lower"].contains(&m.get("better").str()));
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is required");
    assert_eq!(
        (setup.get("unit").str(), setup.get("better").str()),
        ("s", "lower")
    );
    let layer = d.get("per_layer").arr();
    assert!((1..=128).contains(&layer.len()));
    for m in layer {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
        assert!(unit_ok(m.get("unit").str()), "{m:?}");
    }
    let mut all: Vec<String> = [
        names(d.get("workloads")),
        names(d.get("end_to_end")),
        names(d.get("per_layer")),
    ]
    .concat();
    assert!(all.iter().all(|n| name_ok(n)), "{all:?}");
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "a name is used once");
    let run_seconds = d.get("run_seconds").num();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    // 4 + 22 runs per workload, each with set-up, inside 3420 s.
    assert!((4.0 + 22.0 * 6.0) * (run_seconds + 6.0) + 300.0 <= 3420.0);
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    ensure_serverd();
    let d = declared();
    let started = std::time::Instant::now();
    for w in names(d.get("workloads")) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench_all(&["--workload", &w, "--seed", "7", "--quick", "--trace", trace]);
            let r = result_of(&out);
            assert_eq!(r.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                r.get("correct"),
                &Json::Bool(true),
                "{w} --trace {trace}: {out}"
            );
            assert_eq!(r.get("failed").num(), 0.0, "{w} --trace {trace}");
            assert!(r.get("attempted").num() >= 1.0);
            let mut want = names(d.get(list));
            want.sort();
            let got: Vec<String> = metric_values(&r).into_keys().collect();
            assert_eq!(got, want, "{w} --trace {trace}");
            for m in d.get(list).arr() {
                let unit = r.get("metrics").get(m.get("name").str()).get("unit");
                assert_eq!(unit, m.get("unit"), "{w}: unit of {m:?}");
            }
            if trace == "0" {
                for (name, v) in metric_values(&r) {
                    assert!(v > 0.0, "{w}: end-to-end metric {name} is {v}");
                }
            }
        }
    }
    // Generous for a loaded machine; a quiet one needs a third of this.
    assert!(
        started.elapsed().as_secs() < 60,
        "--quick took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_seed_fixes_the_inputs_and_the_simulated_statistics() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = |seed: &str| bench_all(&["--print-plan", "--seed", seed]);
    assert_eq!(plan("5"), plan("5"), "same seed, same generated inputs");
    assert_ne!(plan("5"), plan("6"), "another seed, other inputs");

    let exact = |name: &str| {
        name == "sim.makespan_s"
            || name == "sim.ctl_speedup"
            || name == "procctl.sim_sweeps"
            || name.starts_with("uthreads.")
            || (name.starts_with("simkernel.") && name != "simkernel.ns_per_step")
    };
    let sim = |seed: &str| -> BTreeMap<String, f64> {
        let out = bench_all(&[
            "--workload",
            "sim_fig4",
            "--seed",
            seed,
            "--quick",
            "--trace",
            "1",
        ]);
        metric_values(&result_of(&out))
            .into_iter()
            .filter(|(k, _)| exact(k))
            .collect()
    };
    let (a, b, c) = (sim("5"), sim("5"), sim("6"));
    assert!(
        a.len() >= 15,
        "the simulated statistics are reported: {a:?}"
    );
    assert_eq!(a, b, "same seed, same simulated statistics, bit for bit");
    assert_ne!(
        a["sim.makespan_s"], c["sim.makespan_s"],
        "another seed moves them"
    );
}
