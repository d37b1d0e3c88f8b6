//! One benchmark across the open-cube stack's three substrates.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! Workloads: `sim-scale`, `sim-faults`, `rt-saturate`, `net-pair` (see
//! README.md). With `--trace 0` the run reports every end-to-end
//! metric; with `--trace 1` it makes a separate traced run
//! and reports every per-layer metric. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! The binary doubles as the protocol node the `net-pair` deployment
//! spawns: invoked with `--id` first, it runs `oc_transport::run`.

#![forbid(unsafe_code)]

mod layers;
mod measure;
mod net;
mod redrive;
mod rt;
mod sim;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use layers::{LayerReport, END_TO_END, PER_LAYER};
use measure::{environment_stamp, RunResult};
use trace::Tracer;

/// Workload size: the measured one, or the tiny one the self-check uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

const WORKLOADS: [&str; 4] = ["sim-scale", "sim-faults", "rt-saturate", "net-pair"];
/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 42;
/// Scratch files (UDS sockets, node logs, span dumps) live here, under
/// the directory the benchmark runs from.
const WORKDIR: &str = ".bench_tmp";

const USAGE: &str = "usage: perfbench --workload <sim-scale|sim-faults|rt-saturate|net-pair> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       perfbench --self-check";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// Runs one workload in the requested mode.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    workdir: &Path,
) -> RunResult {
    if !trace {
        return match workload {
            "sim-scale" => sim::sim_scale(seed, seconds, size),
            "sim-faults" => sim::sim_faults(seed, seconds, size),
            "rt-saturate" => rt::rt_saturate(seed, seconds, size),
            "net-pair" => net::net_pair(seed, seconds, size, workdir),
            _ => unreachable!("workload names are checked by the parser"),
        };
    }
    let mut tracer = Tracer::new();
    let (mut res, layers): (RunResult, LayerReport) = match workload {
        "sim-scale" => sim::sim_scale_traced(seed, size, &mut tracer),
        "sim-faults" => sim::sim_faults_traced(seed, size, &mut tracer),
        "rt-saturate" => rt::rt_saturate_traced(seed, size, &mut tracer),
        "net-pair" => net::net_pair_traced(seed, size, &mut tracer, workdir),
        _ => unreachable!("workload names are checked by the parser"),
    };
    layers.emit(&mut res);
    let spans = workdir.join(format!("spans-{workload}-{seed}.tsv"));
    if let Err(e) = tracer.write(&spans) {
        res.check(false, || format!("writing {}: {e}", spans.display()));
    }
    res
}

/// Creates the scratch directory and points the process's temporary
/// directory at it, so the deployment orchestrator's files stay inside
/// the directory the benchmark runs from. The relative path keeps Unix
/// socket paths short.
fn prepare_workdir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(WORKDIR);
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

/// Tiny-size run of every workload in both modes: every metric named
/// in the vocabulary is emitted with its unit and a finite value (a
/// positive one for end-to-end metrics), every run is correct, and each
/// result line is valid JSON.
fn self_check(workdir: &Path) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let res = run(workload, DEFAULT_SEED, 0.5, trace, Size::Quick, workdir);
            let expected = if trace { PER_LAYER } else { END_TO_END };
            let mut problems = res.problems.clone();
            let names: Vec<&str> = res.metrics.iter().map(|m| m.name).collect();
            if names != expected.iter().map(|(n, _)| *n).collect::<Vec<_>>() {
                problems.push(format!("metrics {names:?} are not the expected set"));
            }
            for m in &res.metrics {
                let unit = expected.iter().find(|(n, _)| *n == m.name).map(|(_, u)| *u);
                if unit != Some(m.unit) || !m.value.is_finite() || (!trace && m.value <= 0.0) {
                    problems.push(format!("{} = {} {}", m.name, m.value, m.unit));
                }
            }
            if let Err(e) = oc_bench::json::validate(&res.to_json()) {
                problems.push(format!("result line is not JSON: {e}"));
            }
            if res.attempted == 0 || res.failed != 0 || !res.correct {
                problems.push(format!("attempted {} failed {}", res.attempted, res.failed));
            }
            let mode = if trace { "traced" } else { "untraced" };
            if problems.is_empty() {
                println!("self-check {workload} {mode}: ok ({} metrics)", res.metrics.len());
            } else {
                ok = false;
                for p in problems {
                    println!("self-check {workload} {mode}: FAILED {p}");
                }
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--id") {
        return node_main(&args);
    }
    let workdir = match prepare_workdir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: cannot create {WORKDIR}: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", environment_stamp());
    if args.first().map(String::as_str) == Some("--self-check") {
        return if self_check(&workdir) { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let res = run(&args.workload, args.seed, args.seconds, args.trace, Size::Full, &workdir);
    for p in &res.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!("{}", res.to_json());
    ExitCode::SUCCESS
}

/// Runs as one open-cube protocol node (the `oc-node` command line).
fn node_main(args: &[String]) -> ExitCode {
    match oc_transport::parse_args(args.iter().cloned()) {
        Ok(opts) => match oc_transport::run(opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench node: fatal: {e}");
                ExitCode::from(1)
            }
        },
        Err(msg) => {
            eprintln!("perfbench node: {msg}");
            ExitCode::from(2)
        }
    }
}
