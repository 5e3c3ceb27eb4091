//! Socket-to-kernel benchmark for the standoff workspace.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   the contract command (BENCHMARK.json)
//! benchmark run --seed N [--seconds S] [--workload W] [--smoke]
//!               [--with-trace] [--out F]                    the workloads, tracing off
//! benchmark trace --seed N [--smoke]                        stage-by-stage replay + layer ledger
//! benchmark compare A.json B.json                           noise-aware regression gate
//! benchmark contract                                        print BENCHMARK.json from the catalog
//! ```
//!
//! See README.md in this directory for the metric and workload catalog
//! and the measurement rules.

mod annotate;
mod calib;
mod catalog;
mod classes;
mod client;
mod compare;
mod corpus;
mod json;
mod oracle;
mod program;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use classes::Workload;
use json::Json;
use program::Program;
use sys::Env;
use workloads::Params;

use catalog::RUN_SECONDS as DEFAULT_SECONDS;
/// `--smoke`: long enough for every class to run a few times.
const SMOKE_SECONDS: f64 = 0.5;

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
                     \x20      benchmark run --seed N [--seconds S] [--workload NAME] [--smoke] [--with-trace] [--out FILE]\n\
                     \x20      benchmark trace --seed N [--smoke]\n\
                     \x20      benchmark compare A.json B.json\n\
                     \x20      benchmark contract\n\
                     workloads: serve_point serve_scan annotate_rw cold_query call_oneshot";

/// `--flag value` pairs and bare switches, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("bad value for {flag}: {v:?}"))
            })
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        self.parsed("--seed")?
            .ok_or_else(|| format!("--seed is required\n{USAGE}"))
    }
}

/// Build the program under test, record the environment, pin.
fn prepare() -> Result<(PathBuf, Program, Env), String> {
    let root = program::repo_root();
    // Built before pinning: the compiler may use every CPU.
    let bin = program::build_standoff_xq(&root)?;
    let env = Env::capture_and_pin(&root);
    Ok((root, Program { bin }, env))
}

fn write_out(root: &Path, name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = root.join("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Write a traced run's spans and ledger under `benchmark/out/`.
fn write_trace(
    root: &Path,
    ledger: &trace::Ledger,
    env: &Env,
    seed: u64,
) -> Result<(PathBuf, PathBuf), String> {
    Ok((
        write_out(root, "trace.jsonl", &ledger.spans_jsonl())?,
        write_out(root, "layers.json", &ledger.layers_json(env, seed).pretty())?,
    ))
}

/// The contract command: one workload, one JSON line last.
fn cmd_contract_run(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.value("--workload").unwrap_or("");
    let workload =
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let seed = flags.seed()?;
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let traced = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let (root, program, env) = prepare()?;
    let line = if traced {
        // The ledger is one table over all five workloads: every traced
        // run replays the same fixed sample, whichever workload the
        // caller named (README, "Traced run").
        let ledger = trace::run(&program, &root, seed, false)?;
        write_trace(&root, &ledger, &env, seed)?;
        ledger.contract_line()
    } else {
        let outcome = workloads::run(
            &Params {
                program: &program,
                root: &root,
                seed,
                seconds,
            },
            workload,
        )?;
        for note in &outcome.tally.notes {
            eprintln!("benchmark: {}: {note}", workload.name());
        }
        report::contract_end_to_end(&outcome)?
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// `run`: every workload, tracing off, one report.
fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.seed()?;
    let smoke = flags.has("--smoke");
    let seconds = match flags.parsed("--seconds")? {
        Some(s) => s,
        None if smoke => SMOKE_SECONDS,
        None => DEFAULT_SECONDS,
    };
    let (root, program, env) = prepare()?;
    let params = Params {
        program: &program,
        root: &root,
        seed,
        seconds,
    };
    let only = match flags.value("--workload") {
        Some(name) => Some(
            Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
        ),
        None => None,
    };
    let mut outcomes = Vec::new();
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        eprintln!("benchmark: running {} for {seconds} s", workload.name());
        outcomes.push(workloads::run(&params, workload)?);
    }
    let mut pairs = report::header("run", &env, seed, seconds, report::run_digest(&outcomes));
    pairs.push((
        "workloads".to_string(),
        Json::Obj(
            outcomes
                .iter()
                .map(|o| (o.workload.name().to_string(), report::workload_json(o)))
                .collect(),
        ),
    ));
    let mut failed: u64 = outcomes.iter().map(|o| o.tally.failed).sum();
    if smoke || flags.has("--with-trace") {
        // Smoke covers the traced path too, on its reduced sample.
        let ledger = trace::run(&program, &root, seed, smoke)?;
        pairs.push(("layers".to_string(), ledger.layers_json(&env, seed)));
        failed += ledger.tally.failed;
    }
    let text = Json::Obj(pairs).pretty();
    let path = match flags.value("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            PathBuf::from(path)
        }
        None => write_out(&root, "run.json", &text)?,
    };
    println!(
        "seed {seed}  pinned {}  cpus {:?}  nproc {}",
        env.pinned, env.cpus, env.nproc
    );
    report::print_table(&outcomes);
    println!("\nreport: {}", path.display());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `trace`: the stage-by-stage replay and the layer ledger.
fn cmd_trace(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.seed()?;
    let (root, program, env) = prepare()?;
    let ledger = trace::run(&program, &root, seed, flags.has("--smoke"))?;
    let (spans, layers) = write_trace(&root, &ledger, &env, seed)?;
    ledger.print_table();
    println!("\nspans: {}\nledger: {}", spans.display(), layers.display());
    Ok(if ledger.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(argv.clone());
    let result = match argv.first().map(String::as_str) {
        Some("run") => cmd_run(&flags),
        Some("trace") => cmd_trace(&flags),
        Some("compare") => match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => compare::main(a, b),
            _ => Err(format!("compare needs two report files\n{USAGE}")),
        },
        Some("contract") => {
            print!("{}", catalog::contract_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        // Internal: the `annotate_rw` writer process.
        Some("annotate-child") => match &argv[1..] {
            [snap, dir, seed, limit] => match (seed.parse(), annotate::Limit::parse(limit)) {
                (Ok(seed), Some(limit)) => {
                    annotate::child_main(Path::new(snap), Path::new(dir), seed, limit)
                        .map(|()| ExitCode::SUCCESS)
                }
                _ => Err("annotate-child: bad seed or limit".into()),
            },
            _ => Err("annotate-child SNAP DIR SEED s<SECONDS>|b<BATCHES>".into()),
        },
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) if flags.has("--workload") => cmd_contract_run(&flags),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
