//! End-to-end and per-layer benchmark of learned-sqlgen.
//!
//! ```sh
//! python3 perfbench/run.py --workload range-est --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this package and the `sqlgen` CLI, then runs this
//! binary. Every workload replays a fixed, seeded set of inputs: work
//! counts and quality metrics repeat exactly for a given `--seed` and
//! `--seconds`, so throughput always compares the same work. The last
//! line of stdout is one JSON object; see `perfbench/NOTES.md`.

mod genwork;
mod measure;
mod servemix;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::exit;

/// One named number with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any makes the run incorrect.
    problems: Vec<String>,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    /// Work counts and quality metrics, compared exactly across runs of
    /// the same seed.
    fingerprint: BTreeMap<&'static str, String>,
}

impl Report {
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            eprintln!("perfbench: check failed: {what}");
        }
        self.problems.push(what);
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    pub fn fingerprint(&mut self, key: &'static str, value: impl Display) {
        self.fingerprint.insert(key, value.to_string());
    }
}

/// The fixed work of one run, derived from `--seed` and `--seconds` only.
pub struct Plan {
    pub seed: u64,
    pub traced: bool,
    /// Fresh set-ups timed in total (at least one per generator).
    pub setups: usize,
    /// Independent generators (own data and policy seed) trained per run.
    pub generators: usize,
    /// Episodes trained per generator, in `train` calls of `train_chunk`.
    pub train_episodes: usize,
    pub train_chunk: usize,
    /// Single-query generation requests per generator.
    pub requests: usize,
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    sqlgen: PathBuf,
    state: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <range-est|point-exec|serve-mix> --seed <u64> \
--seconds <1..=60> --trace <0|1> --sqlgen <path to sqlgen binary> --state <dir>";

fn parse_args() -> Args {
    let fail = |m: &str| -> ! {
        eprintln!("perfbench: {m}\n{USAGE}");
        exit(2)
    };
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            fail(&format!("unexpected argument {flag}"));
        };
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        map.insert(key.to_string(), value);
    }
    let mut take = |k: &str| {
        map.remove(k)
            .unwrap_or_else(|| fail(&format!("--{k} is required")))
    };
    let args = Args {
        workload: take("workload"),
        seed: take("seed").parse().unwrap_or_else(|_| fail("--seed")),
        seconds: take("seconds")
            .parse()
            .ok()
            .filter(|s| (1..=60).contains(s))
            .unwrap_or_else(|| fail("--seconds")),
        traced: match take("trace").as_str() {
            "0" => false,
            "1" => true,
            _ => fail("--trace must be 0 or 1"),
        },
        sqlgen: PathBuf::from(take("sqlgen")),
        state: PathBuf::from(take("state")),
    };
    if let Some(k) = map.keys().next() {
        fail(&format!("unknown flag --{k}"));
    }
    args
}

/// Scales a work size given for 25 s (the committed `run_seconds`) to
/// `--seconds`.
fn scaled(per_25s: usize, seconds: u64) -> usize {
    (per_25s * seconds as usize).div_ceil(25).max(1)
}

/// Compares this run's fingerprint with the first run of the same
/// workload, seed and length in this checkout (recorded on first use).
fn determinism_gate(args: &Args, report: &mut Report) {
    let dir = args.state.join("reference");
    let path = dir.join(format!(
        "{}-s{}-t{}.txt",
        args.workload, args.seed, args.seconds
    ));
    let text: String = report
        .fingerprint
        .iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(first) if first == text => {}
        Ok(first) => {
            for (a, b) in first.lines().zip(text.lines()).filter(|(a, b)| a != b) {
                report.problem(format!("differs from the first run: {a} -> {b}"));
            }
            if first.lines().count() != text.lines().count() {
                report.problem("fingerprint keys differ from the first run".to_string());
            }
            report.failed = report.failed.max(1);
        }
        Err(_) => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text));
            if let Err(e) = written {
                eprintln!("perfbench: cannot record {}: {e}", path.display());
            }
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Report {
    let state = args.state.as_path();
    let seconds = args.seconds;
    match args.workload.as_str() {
        "range-est" => {
            let spec = genwork::GenSpec {
                constraint: learned_sqlgen::core::Constraint::cardinality_range(1000.0, 2000.0),
                paged: false,
                batch: 1,
            };
            let plan = Plan {
                seed: args.seed,
                traced: args.traced,
                setups: 41,
                generators: scaled(12, seconds),
                train_episodes: 250,
                train_chunk: 25,
                requests: 80,
            };
            genwork::run(&spec, &plan, state)
        }
        "point-exec" => {
            let spec = genwork::GenSpec {
                constraint: learned_sqlgen::core::Constraint::cardinality_point(1000.0),
                paged: true,
                batch: 16,
            };
            let plan = Plan {
                seed: args.seed,
                traced: args.traced,
                setups: 41,
                generators: scaled(5, seconds),
                train_episodes: 96,
                train_chunk: 16,
                requests: 96,
            };
            genwork::run(&spec, &plan, state)
        }
        "serve-mix" => servemix::run(args.seed, seconds, args.traced, &args.sqlgen, state),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            exit(2)
        }
    }
}

fn main() {
    let args = parse_args();
    sqlgen_obs::set_level(sqlgen_obs::Level::Warn);
    std::fs::create_dir_all(&args.state).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create {}: {e}", args.state.display());
        exit(1)
    });
    let probe_before = measure::host_probe_ms();
    let mut report = run(&args);
    let probe_after = measure::host_probe_ms();
    let probe = measure::median(&[probe_before, probe_after]);
    eprintln!("perfbench: host.probe_ms before={probe_before:.3} after={probe_after:.3}");
    determinism_gate(&args, &mut report);
    if args.traced {
        report.layer("host.probe_ms", probe, "ms");
    }
    let metrics = if args.traced {
        &report.layers
    } else {
        &report.e2e
    };
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics_json(metrics)
    );
}
