//! The `iq-server` binary: bind, optionally recover from a data
//! directory and/or preload a seeded workload, serve until a client sends
//! `SHUTDOWN`, then optionally dump metrics.
//!
//! ```text
//! iq-server [--addr 127.0.0.1:4477] [--workers N] [--queue N]
//!           [--deadline-ms MS] [--preload N_OBJECTS,N_QUERIES,DIM,SEED]
//!           [--data-dir PATH] [--fsync always|never|batch:N|batch:Nms]
//!           [--checkpoint-bytes N] [--metrics-json PATH]
//! ```
//!
//! With `--data-dir`, every committed write is appended to a CRC-checked
//! WAL before the client sees its acknowledgement, and startup recovers
//! the previous state (snapshot + WAL tail; see DESIGN.md §12). When
//! recovery finds any state, `--preload` is skipped — the recovered
//! writes already include the seed of the previous run.

use iq_core::ExecPolicy;
use iq_server::{
    engine::{DurabilityConfig, Engine},
    metrics::Metrics,
    server,
    server::ServerConfig,
    FsyncMode,
};
use iq_workload::{seed_statements, standard_instance, Distribution, QueryDistribution};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: iq-server [--addr HOST:PORT] [--workers N] [--queue N] \
         [--deadline-ms MS] [--preload N_OBJECTS,N_QUERIES,DIM,SEED] \
         [--data-dir PATH] [--fsync always|never|batch:N|batch:Nms] \
         [--checkpoint-bytes N] [--metrics-json PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:4477".into(),
        ..ServerConfig::default()
    };
    let mut preload: Option<(usize, usize, usize, u64)> = None;
    let mut metrics_json: Option<String> = None;
    let mut data_dir: Option<PathBuf> = None;
    let mut fsync = FsyncMode::Always;
    let mut checkpoint_bytes: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => {
                config.queue_capacity = value("--queue").parse().unwrap_or_else(|_| usage())
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms").parse().unwrap_or_else(|_| usage());
                config.default_deadline = Some(Duration::from_millis(ms));
            }
            "--preload" => {
                let spec = value("--preload");
                let parts: Vec<u64> = spec
                    .split(',')
                    .map(|p| p.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if parts.len() != 4 {
                    usage();
                }
                preload = Some((
                    parts[0] as usize,
                    parts[1] as usize,
                    parts[2] as usize,
                    parts[3],
                ));
            }
            "--data-dir" => data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--fsync" => {
                fsync = value("--fsync").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--checkpoint-bytes" => {
                checkpoint_bytes = Some(
                    value("--checkpoint-bytes")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--metrics-json" => metrics_json = Some(value("--metrics-json")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    // Per-request parallelism shares the machine with cross-request
    // concurrency: each worker's IMPROVE gets an equal slice of threads.
    let exec = ExecPolicy::share_across(config.workers.max(1));
    let metrics = Arc::new(Metrics::new());
    let mut recovered_writes = 0usize;
    let engine = match data_dir {
        Some(dir) => {
            let durability = DurabilityConfig {
                data_dir: dir.clone(),
                fsync,
                checkpoint_bytes,
            };
            match Engine::with_storage(Arc::clone(&metrics), exec, durability) {
                Ok((engine, recovery)) => {
                    recovered_writes = recovery.statements.len();
                    eprintln!(
                        "recovered {} statement(s) from {} (generation {}: {} snapshot + {} wal{})",
                        recovery.statements.len(),
                        dir.display(),
                        recovery.generation,
                        recovery.snapshot_statements,
                        recovery.wal_statements,
                        match &recovery.damage {
                            Some(d) => format!("; torn tail truncated: {d}"),
                            None => String::new(),
                        }
                    );
                    Arc::new(engine)
                }
                Err(e) => {
                    eprintln!("recovery failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => Arc::new(Engine::new(Arc::clone(&metrics), exec)),
    };

    match preload {
        Some(_) if recovered_writes > 0 => {
            eprintln!("skipping --preload: recovered state already holds the data");
        }
        Some((n_objects, n_queries, dim, seed)) => {
            let instance = standard_instance(
                Distribution::Independent,
                QueryDistribution::Uniform,
                n_objects,
                n_queries,
                dim,
                3,
                seed,
            );
            for sql in seed_statements(&instance, "objects", "queries", 256) {
                if let Err(e) = engine.execute_sql(&sql) {
                    eprintln!("preload failed: {e}");
                    std::process::exit(1);
                }
            }
            eprintln!(
                "preloaded {n_objects} objects, {n_queries} queries (dim {dim}, seed {seed})"
            );
        }
        None => {}
    }

    let handle = match server::start(engine, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("iq-server listening on {}", handle.addr());
    eprintln!("send SHUTDOWN on any connection to drain and stop");

    let engine = Arc::clone(handle.engine());
    handle.join();

    if let Some(path) = metrics_json {
        let json = iq_server::metrics::stats_json(&engine.stats());
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to {path}");
    }
}
