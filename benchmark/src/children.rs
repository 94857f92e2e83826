//! The modes that run this same binary as child processes: every workload
//! in turn, the A/A noise check, and the correctness-gate self-test. Each
//! workload run is its own process, so `setup_s`, `cpu_ms_per_op` and
//! `peak_rss_mib` are per workload.

use std::process::{Command, ExitCode, Stdio};

use crate::harness::END_TO_END;
use crate::report::{parse_result_json, ParsedResult};
use crate::stats::{median, quartile_spread};
use crate::workloads::{RunConfig, NAMES};
use crate::{EXIT_INCORRECT, EXIT_REFUSED};

/// One finished child run.
struct Child {
    code: Option<i32>,
    stdout: String,
    result: Option<ParsedResult>,
}

/// Runs one workload once in a child process and waits for it. The child's
/// standard error passes through; its standard output is captured.
fn run_child(workload: &str, config: RunConfig, trace: bool) -> std::io::Result<Child> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if config.doctor_expected {
        command.arg("--doctor-expected");
    }
    if config.strict {
        command.arg("--strict");
    }
    let output = command.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let result = stdout.lines().last().and_then(parse_result_json);
    Ok(Child { code: output.status.code(), stdout, result })
}

/// Every workload, measured then traced: the one command that prints every
/// metric by name with its unit and checks every output.
pub fn run_everything(config: RunConfig) -> ExitCode {
    let mut worst = 0u8;
    for workload in NAMES {
        for trace in [false, true] {
            match run_child(workload, config, trace) {
                Ok(child) => {
                    print!("{}", child.stdout);
                    if child.code != Some(0) {
                        eprintln!(
                            "{workload} (trace {}) exited with {:?}",
                            trace as u8, child.code
                        );
                        worst =
                            worst.max(child.code.map_or(EXIT_REFUSED, |c| c.clamp(1, 255) as u8));
                    }
                }
                Err(e) => {
                    eprintln!("cannot run {workload}: {e}");
                    worst = worst.max(EXIT_REFUSED);
                }
            }
        }
    }
    ExitCode::from(worst)
}

/// Two sets of `runs` measured runs per workload from this one build,
/// alternating between the sets and giving every run its own seed, then per
/// workload and metric: both set medians, each set's quartile spread, how
/// much worse the second median is than the first, and the bound. This is
/// the driver's acceptance test for a benchmark, run locally.
pub fn aa_check(runs: usize, config: RunConfig, only: Option<&str>) -> ExitCode {
    let workloads: Vec<&str> = NAMES.into_iter().filter(|n| only.is_none_or(|o| o == *n)).collect();
    println!(
        "A/A check: 2 sets x {runs} runs x {} workloads, {} s each, seeds from {}; \
         available parallelism {}",
        workloads.len(),
        config.seconds,
        config.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "| workload | metric | median A | spread A | median B | spread B | B worse by | bound | |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    let mut all_within = true;
    for workload in workloads {
        let mut sets: [Vec<ParsedResult>; 2] = [Vec::new(), Vec::new()];
        for run in 0..runs {
            for (set, results) in sets.iter_mut().enumerate() {
                let seed = config.seed + (2 * run + set) as u64;
                match run_child(workload, RunConfig { seed, ..config }, false) {
                    Ok(Child { code: Some(0), result: Some(result), .. }) => results.push(result),
                    Ok(child) => {
                        eprintln!("{workload} seed {seed} exited with {:?}", child.code);
                        return ExitCode::from(EXIT_REFUSED);
                    }
                    Err(e) => {
                        eprintln!("cannot run {workload}: {e}");
                        return ExitCode::from(EXIT_REFUSED);
                    }
                }
            }
        }
        for spec in END_TO_END {
            let values = |set: &[ParsedResult]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.iter().find(|m| m.0 == spec.name).map(|m| m.1))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (median_a, median_b) = (median(&a), median(&b));
            let (spread_a, spread_b) = (quartile_spread(&a), quartile_spread(&b));
            let worse = if spec.higher_is_better {
                (median_a - median_b) / median_a
            } else {
                (median_b - median_a) / median_a
            };
            // `setup_s` is held to its bound between the sets only, like the driver does.
            let spread_ok = spec.name == "setup_s" || spread_a.max(spread_b) <= spec.bound;
            let within = spread_ok && worse <= spec.bound;
            all_within &= within;
            println!(
                "| {workload} | {} | {median_a:.4} | {:.2}% | {median_b:.4} | {:.2}% | {:+.2}% | {:.0}% | {} |",
                spec.name,
                spread_a * 100.0,
                spread_b * 100.0,
                worse * 100.0,
                spec.bound * 100.0,
                if within { "ok" } else { "OUTSIDE" },
            );
        }
    }
    if all_within {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one metric left its bound between two runs of the same code");
        ExitCode::from(EXIT_INCORRECT)
    }
}

/// Length of a self-test run: long enough to cycle every pooled input.
const SELF_TEST_SECONDS: f64 = 3.0;

/// Proves the correctness gate fires: each workload is run with one
/// expected output doctored, and must report failures and exit non-zero.
pub fn self_test() -> ExitCode {
    let config =
        RunConfig { seed: 1, seconds: SELF_TEST_SECONDS, doctor_expected: true, strict: false };
    let mut passed = true;
    for workload in NAMES {
        let fired = match run_child(workload, config, false) {
            Ok(child) => {
                let flagged = child.result.as_ref().is_some_and(|r| !r.correct && r.failed > 0);
                child.code == Some(i32::from(EXIT_INCORRECT)) && flagged
            }
            Err(e) => {
                eprintln!("cannot run {workload}: {e}");
                false
            }
        };
        println!(
            "self-test {workload}: doctored expected output {}",
            if fired { "caught (exit 1, correct=false)" } else { "NOT caught" }
        );
        passed &= fired;
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    }
}
