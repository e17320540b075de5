//! Runs one benchmark workload and prints its result line.
//!
//! ```text
//! netarch-paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A wrong answer, a
//! broken input or a bad argument prints no result and exits with 1 or 2.
//! A traced run also writes its spans to `.paperbench_out/`.

use netarch_paperbench::{run, RunConfig, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: netarch-paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut config = RunConfig {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                config.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required; one of {WORKLOADS:?}"))?;
    Ok((workload, config))
}

fn main() -> ExitCode {
    let (workload, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&workload, &config).and_then(|outcome| {
        let line = outcome.result_line(config.trace)?;
        Ok((outcome, line))
    });
    match outcome {
        Ok((outcome, line)) => {
            if config.trace {
                let path = format!(".paperbench_out/spans-{workload}-seed{}.jsonl", config.seed);
                let written = std::fs::create_dir_all(".paperbench_out")
                    .and_then(|()| std::fs::write(&path, &outcome.spans_jsonl));
                if let Err(e) = written {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::from(1);
                }
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {workload} (seed {}): {e}", config.seed);
            ExitCode::from(1)
        }
    }
}
