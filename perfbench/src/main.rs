//! `perfbench` — runs one benchmark workload in this (fresh) process.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --wsitool PATH --work-dir DIR
//! perfbench --list-metrics
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every
//! per-layer metric; either way the last line of standard output is
//! the JSON result. The exit code is 0 only when every op passed its
//! output check. `perfbench/run.py` builds this runner and `wsitool`
//! and supplies `--wsitool` and `--work-dir`.

use std::path::PathBuf;
use std::process::ExitCode;

use wsinterop_perfbench::report::RunReport;
use wsinterop_perfbench::{campaign, per_layer_catalog, wire, Layers, Workload, END_TO_END};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    wsitool: PathBuf,
    work_dir: PathBuf,
    probe_setup: bool,
    job: bool,
    latency: bool,
}

const USAGE: &str = "usage: perfbench --workload paper_matrix|chaos_journal|wire_survey \
                     --seed N --seconds S --trace 0|1 --wsitool PATH --work-dir DIR\n       \
                     perfbench --list-metrics";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        wsitool: get("--wsitool")?.into(),
        work_dir: get("--work-dir")?.into(),
        probe_setup: argv.iter().any(|a| a == "--probe-setup"),
        job: argv.iter().any(|a| a == "--job"),
        latency: argv.iter().any(|a| a == "--latency"),
    })
}

/// One wire-workload set-up in this process: server start-up and the
/// in-process references; prints `ready` when done.
fn probe_setup(args: &Args) -> Result<(), String> {
    let mut setup = wire::setup(&args.wsitool).map_err(|e| e.to_string())?;
    println!("ready");
    setup.shutdown().map_err(|e| e.to_string())
}

fn run(argv: &[String], args: &Args) -> Result<RunReport, String> {
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    let mut report = RunReport::default();
    if args.trace {
        let mut layers = Layers::default();
        match args.workload {
            Workload::PaperMatrix | Workload::ChaosJournal => campaign::run_traced(
                args.workload,
                args.seed,
                &args.work_dir,
                &mut layers,
                &mut report,
            ),
            Workload::WireSurvey => wire::run_traced(
                &args.wsitool,
                args.seed,
                args.seconds,
                &args.work_dir,
                &mut layers,
                &mut report,
            )
            .map_err(|e| e.to_string())?,
        }
        report.metrics = layers.into_metrics();
        return Ok(report);
    }
    match args.workload {
        Workload::PaperMatrix | Workload::ChaosJournal => {
            campaign::run(argv, args.seconds, &mut report)?
        }
        Workload::WireSurvey => {
            let mut setup = wire::setup_samples(argv)?;
            let n = setup.len();
            report.add("setup_s", setup.median().expect("set-up samples"), "s", n);
            wire::run(&args.wsitool, args.seed, args.seconds, &mut report)
                .map_err(|e| e.to_string())?
        }
    }
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        END_TO_END.map(|(name, _)| name),
        "end-to-end metrics out of catalog order"
    );
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list-metrics") {
        for (name, unit) in END_TO_END {
            println!("end_to_end {name} {unit}");
        }
        for (name, unit) in per_layer_catalog() {
            println!("per_layer {name} {unit}");
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.job {
        campaign::job_main(args.workload, args.seed, &args.work_dir, args.latency);
        return ExitCode::SUCCESS;
    }
    if args.probe_setup {
        return match probe_setup(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: set-up probe: {e}");
                ExitCode::from(3)
            }
        };
    }
    match run(&argv, &args) {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}
