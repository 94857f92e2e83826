//! The repository's benchmark: four workloads over the dual-side sparse
//! stack, end-to-end metrics from an untraced run and per-layer metrics from
//! a traced one. `README.md` beside this package defines every workload and
//! metric; `BENCHMARK.json` at the repository root is the machine-readable
//! contract.
//!
//! ```text
//! dsstc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! dsstc-benchmark [--seed <n>] [--seconds <s>]                               every workload, both runs
//! dsstc-benchmark --aa <N> [--workload <name>] [--seconds <s>]               A/A noise check
//! dsstc-benchmark --self-test                                                the correctness gate fires
//! ```
//!
//! `--strict` with any of the first three turns the sizing guards from
//! warnings into refusals (exit 2).
//!
//! Everything is measured from outside, by timing calls into public
//! functions of the crates under `../crates`.

mod children;
mod harness;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::RunConfig;

/// `run_seconds` of `BENCHMARK.json`: the measured phase's default length.
const DEFAULT_SECONDS: f64 = 25.0;
const DEFAULT_SEED: u64 = 1;

/// Exit code of a run whose outputs were wrong.
const EXIT_INCORRECT: u8 = 1;
/// Exit code of a run the harness refused to report (mis-sized, bad usage).
const EXIT_REFUSED: u8 = 2;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
    self_test: bool,
    strict: bool,
    doctor_expected: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: None,
        self_test: false,
        strict: false,
        doctor_expected: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--aa" => {
                let runs: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if runs < 2 {
                    return Err("--aa needs at least 2 runs per set".to_string());
                }
                parsed.aa = Some(runs);
            }
            "--self-test" => parsed.self_test = true,
            "--strict" => parsed.strict = true,
            // Not for users: what --self-test passes to its child.
            "--doctor-expected" => parsed.doctor_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// One workload, one run: what the driver invokes.
fn run_one(workload: &str, config: RunConfig, trace: bool) -> ExitCode {
    let failed = if trace {
        match workloads::traced(workload, config) {
            Ok(traced) => {
                report::print_traced(workload, &traced);
                traced.failed
            }
            Err(refusal) => return refuse(&refusal.0),
        }
    } else {
        match workloads::measure(workload, config) {
            Ok(e2e) => {
                report::print_end_to_end(workload, &e2e);
                e2e.failed
            }
            Err(refusal) => return refuse(&refusal.0),
        }
    };
    if failed > 0 {
        eprintln!("{workload}: {failed} operations returned wrong output");
        return ExitCode::from(EXIT_INCORRECT);
    }
    ExitCode::SUCCESS
}

fn refuse(why: &str) -> ExitCode {
    eprintln!("refusing to report: {why}");
    ExitCode::from(EXIT_REFUSED)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => return refuse(&message),
    };
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        doctor_expected: args.doctor_expected,
        strict: args.strict,
    };
    if args.self_test {
        return children::self_test();
    }
    if let Some(runs) = args.aa {
        let only = args.workload.as_deref().filter(|w| *w != "all");
        return children::aa_check(runs, config, only);
    }
    match &args.workload {
        Some(workload) if workload != "all" => run_one(workload, config, args.trace),
        _ => children::run_everything(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let args =
            parse(&["--workload", "gemm_extreme", "--seed", "9", "--seconds", "3", "--trace", "1"])
                .expect("valid");
        assert_eq!(args.workload.as_deref(), Some("gemm_extreme"));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3.0, true));
        let defaults = parse(&[]).expect("valid");
        assert_eq!((defaults.seed, defaults.seconds, defaults.trace), (1, DEFAULT_SECONDS, false));
        assert!(defaults.workload.is_none() && defaults.aa.is_none() && !defaults.strict);
        assert!(parse(&["--strict"]).expect("valid").strict);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--aa", "1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
