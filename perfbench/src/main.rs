//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve_hot|serve_churn|vertical_batch> --seed <n>
//!           --seconds <n> --trace <0|1> --dscw <path to dscw>
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a
//! traced run (`--trace 1`) repeats the workload and then times each
//! layer's public functions on the workload's own inputs, printing every
//! per-layer metric. Outputs are checked before any number is printed.
//! The last stdout line is the result object; the line before it holds
//! the host and run block and each metric's sample count. See
//! `README.md` beside this file.

mod daemon;
mod gen;
mod layers;
mod report;
mod serve;
mod stats;
mod steal;
mod vertical;
mod wire;

use report::{Report, RunInfo};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["serve_hot", "serve_churn", "vertical_batch"];

/// A run that has not finished by then is stopped, so a stalled daemon
/// cannot hold the benchmark past its time limit.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    dscw: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dscw = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("bad seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}' (want 0 or 1)")),
                })
            }
            "--dscw" => dscw = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        dscw: dscw.ok_or("--dscw is required")?,
    })
}

fn run(args: &Args, report: &mut Report) -> Result<String, String> {
    match args.workload.as_str() {
        "serve_hot" => {
            let (run, inputs) = serve::serve_hot(&args.dscw, args.seed, args.seconds, report)?;
            let flags = run.daemon.flags();
            if args.trace {
                layers::serve_hot(&run, &inputs, args.seed, report)?;
            } else {
                run.end_to_end(report);
            }
            run.daemon.stop();
            Ok(flags)
        }
        "serve_churn" => {
            let (run, inputs) = serve::serve_churn(&args.dscw, args.seed, args.seconds, report)?;
            let flags = run.daemon.flags();
            if args.trace {
                layers::serve_churn(&run, &inputs, args.seed, report)?;
            } else {
                run.end_to_end(report);
            }
            run.daemon.stop();
            Ok(flags)
        }
        _ => {
            let run = vertical::vertical_batch(args.seed, args.seconds, report)?;
            if args.trace {
                layers::vertical_batch(&args.dscw, &run, report)?;
            } else {
                run.end_to_end(report);
            }
            Ok(String::new())
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> --dscw <path>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !args.dscw.is_file() {
        eprintln!("perfbench: no dscw binary at {}", args.dscw.display());
        return ExitCode::from(2);
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {}s, stopping", WATCHDOG.as_secs());
        daemon::kill_all();
        std::process::exit(3);
    });
    let mut report = Report::default();
    let flags = match run(&args, &mut report) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("perfbench: {e}");
            daemon::kill_all();
            return ExitCode::from(1);
        }
    };
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .errors
                .push(format!("{} has no value ({} samples)", m.name, m.samples));
        }
    }
    let info = RunInfo {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        daemon_flags: flags,
    };
    println!("{}", report.detail_json(&info));
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
