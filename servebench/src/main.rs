//! `servebench`: a closed-loop serving benchmark for `iq-server`.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it starts an in-process engine behind
//! `iq_server::start` on an ephemeral port, loads seeded tables over
//! loopback TCP, drives a fixed number of whole rounds of the workload
//! from one connection, checks the answers, and prints the end-to-end
//! metrics. `--seconds` sets the round count through a per-workload rate,
//! so a run lasts about that long on a 2-vCPU host and every run does the
//! same work. With `--trace 1` it replays a fixed stream of the same
//! workload through the engine's public functions with spans around each
//! call, and prints the per-layer metrics. The last line of standard
//! output is the JSON result; a wrong answer exits non-zero.

// Timing is this crate's job: the repository's clippy.toml bans wall-clock
// reads outside the server and the benchmarks, and this is a benchmark.
#![allow(clippy::disallowed_methods)]

mod serve;
mod stats;
mod timed;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::{Spec, WORKLOADS};

struct Args {
    workload: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Metadata recorded with every result.
pub fn run_meta(spec: &Spec, seed: u64) -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", spec.name.to_string()),
        ("seed", seed.to_string()),
        ("cores", cores.to_string()),
        ("engine_threads", "1".to_string()),
        ("workers", serve::WORKERS.to_string()),
        ("connections", "1".to_string()),
        (
            "fsync",
            if spec.durable {
                format!("always, auto-checkpoint at {} B", serve::CHECKPOINT_BYTES)
            } else {
                "none (in memory)".to_string()
            },
        ),
        ("objects", format!("{} IN", workload::OBJECTS)),
        (
            "queries",
            format!(
                "{} {}, k in [1,{}]",
                workload::QUERIES,
                spec.query_dist.label(),
                spec.k_max
            ),
        ),
        ("dim", workload::DIM.to_string()),
        ("round", spec.round.to_string()),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        trace::run(args.workload, args.seed)
    } else {
        timed::run(args.workload, args.seed, args.seconds)
    };
    match result.and_then(|report| report.print().map(|()| report.correct)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
