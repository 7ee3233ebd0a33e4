//! Command line of the GANA benchmark.
//!
//! ```text
//! gana-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//! gana-benchmark --all --seed N [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints `name value unit` per metric, then one JSON result line. `--all`
//! runs every workload, each in a fresh process. Exits 1 when an output
//! check failed and 2 on bad usage or an invalid measurement.

use gana_benchmark::{metrics, RunConfig, Workload};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: gana-benchmark (--workload NAME | --all) --seed N [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut all = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--all" {
            all = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if all == parsed.workload.is_some() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    Ok(parsed)
}

/// Re-executes this binary once per workload, so each runs in a fresh
/// process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("{} failed: {status:?}", workload.name());
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn run_one(config: RunConfig) -> ExitCode {
    let workload = config.workload.name();
    let (threads, connections) = config.workload.client_load();
    let nproc = metrics::nproc();
    println!("nproc {nproc}: {threads} client threads, {connections} connections");
    if threads > nproc || connections > nproc {
        eprintln!("the load generator would oversubscribe {nproc} processors");
        return ExitCode::from(2);
    }
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    let outcome = match gana_benchmark::run(&config) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("{workload}: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some(tracer) = &outcome.tracer {
        let dir = gana_benchmark::output_dir();
        let path = dir.join(format!("benchmark-trace-{workload}.json"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
            Ok(()) => eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let report = &outcome.report;
    println!(
        "checked {} ops ({} failed), {} device labels: accuracy {}",
        report.attempted,
        report.failed,
        report.devices_checked,
        report.accuracy()
    );
    for (name, value, unit) in report.metrics(config.trace) {
        println!("{name} {value} {unit}");
    }
    println!("{}", report.to_json(config.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        None => run_all(&args),
        Some(workload) => run_one(RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        }),
    }
}
