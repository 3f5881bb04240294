//! The timed run: set up over the wire several times, then drive the
//! run's rounds from one closed-loop connection, then check the answers
//! outside the timed phase.

use crate::serve::{self, clip, Client, Server, TempDir};
use crate::stats::{median, peak_rss_mb, percentile, Metric, Report};
use crate::workload::{Kind, Role, Spec, Workload};
use iq_core::ExecPolicy;
use iq_server::protocol::is_ok;
use iq_server::{Engine, Metrics};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest lead and side samples a timed phase may end with.
const MIN_SAMPLES: usize = 100;
/// The timed phase stops early, its rounds unfinished, after this long.
const HARD_CAP: Duration = Duration::from_secs(120);

pub fn run(spec: Spec, seed: u64, seconds: u64) -> Result<Report, String> {
    let tmp = TempDir::new(spec.name)?;
    let mut wl = Workload::new(spec, seed);
    let setup_improve = wl.mincost();

    // Set up from an empty engine to the first answered IMPROVE. This
    // set-up serves the timed phase; the others run after it, so that the
    // memory they leave behind does not count in the timed phase's peak.
    let data_dir = tmp.sub("setup0");
    let (server, mut client, first_setup) = set_up(&spec, &wl, &data_dir, &setup_improve)?;

    // Every acknowledged write, in order, for the replay check of the
    // in-memory workload. The durable one is checked by reopening its data
    // dir instead, and keeps no copy that would inflate its memory peak.
    let keep_acked = !spec.durable;
    let mut acked: Vec<String> = if keep_acked {
        wl.load.clone()
    } else {
        Vec::new()
    };
    for _ in 0..spec.warmup_rounds {
        for stmt in wl.round() {
            client.request_ok(&stmt.sql)?;
            if keep_acked && stmt.kind.is_write() {
                acked.push(stmt.sql);
            }
        }
    }

    let mut lead = Vec::new();
    let mut side = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    let mut last_selects: Vec<(String, String)> = Vec::new();
    let mut rounds = 0usize;
    let planned = spec.timed_rounds(seconds);
    let started = Instant::now();
    'timed: while (rounds < planned || lead.len() < MIN_SAMPLES || side.len() < MIN_SAMPLES)
        && started.elapsed() < HARD_CAP
    {
        last_selects.clear();
        for stmt in wl.round() {
            attempted += 1;
            let sent = Instant::now();
            match client.request(&stmt.sql) {
                Ok(response) if is_ok(&response) => {
                    let ms = sent.elapsed().as_secs_f64() * 1e3;
                    match stmt.role {
                        Role::Lead => lead.push(ms),
                        Role::Side => side.push(ms),
                    }
                    if stmt.kind == Kind::Select {
                        last_selects.push((stmt.sql, response));
                    } else if keep_acked && stmt.kind.is_write() {
                        acked.push(stmt.sql);
                    }
                }
                Ok(response) => {
                    failed += 1;
                    errors.push(format!("`{}` answered {response}", clip(&stmt.sql)));
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("`{}`: {e}", clip(&stmt.sql)));
                    break 'timed;
                }
            }
        }
        rounds += 1;
    }
    let timed = started.elapsed().as_secs_f64();
    let rss_peak_mb = peak_rss_mb()?;

    // Answer checks, outside the timed phase.
    let checked = if errors.is_empty() {
        match spec.name {
            "churn_mixed" => {
                // One more batch of INSERTs, absorbed into the cached
                // index, then IMPROVEs that must match a fresh build.
                let mut after = Vec::new();
                for stmt in wl.inserts(20, Role::Side) {
                    client.request_ok(&stmt.sql)?;
                    acked.push(stmt.sql);
                }
                for _ in 0..3 {
                    let sql = wl.mincost();
                    let response = client.request_ok(&sql)?;
                    after.push((sql, response));
                }
                let live_dump = server.engine().dump_tables();
                drop(client);
                server.stop();
                let fresh = Engine::new(Arc::new(Metrics::new()), ExecPolicy::sequential());
                for sql in &acked {
                    fresh
                        .execute_sql(sql)
                        .map_err(|e| format!("replaying `{}`: {e}", clip(sql)))?;
                }
                if fresh.dump_tables() != live_dump {
                    Err("final tables differ from a replay of the acknowledged writes".into())
                } else {
                    after
                        .iter()
                        .find(|(sql, served)| fresh.execute_line(sql) != *served)
                        .map_or(Ok(()), |(sql, _)| {
                            Err(format!("`{sql}` differs from a fresh index build"))
                        })
                }
            }
            _ => {
                let live_dump = server.engine().dump_tables();
                drop(client);
                server.stop();
                let (reopened, _) = serve::durable_engine(&data_dir)?;
                if reopened.dump_tables() != live_dump {
                    Err("reopened data dir differs from the live engine's tables".into())
                } else {
                    last_selects
                        .iter()
                        .find(|(sql, response)| reopened.execute_line(sql) != *response)
                        .map_or(Ok(()), |(sql, _)| {
                            Err(format!("reopened engine answers `{sql}` differently"))
                        })
                }
            }
        }
    } else {
        drop(client);
        server.stop();
        Ok(())
    };
    let mut setup_s = vec![first_setup];
    for i in 1..SETUPS {
        let dir = tmp.sub(&format!("setup{i}"));
        let (server, client, took) = set_up(&spec, &wl, &dir, &setup_improve)?;
        drop(client);
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
        setup_s.push(took);
    }
    for e in &errors {
        eprintln!("failed: {e}");
    }
    if let Err(e) = &checked {
        eprintln!("wrong answer: {e}");
    }

    let ms = |v: &[f64], p: f64, what: &str| {
        percentile(v, p).ok_or_else(|| format!("no successful {what} samples"))
    };
    let m = |name, value, unit| Metric {
        name,
        value,
        unit,
        note: "",
    };
    let metrics = vec![
        m("setup_s", median(&setup_s).expect("SETUPS > 0"), "s"),
        m("ops_per_s", (lead.len() + side.len()) as f64 / timed, "1/s"),
        m("lead_p90_ms", ms(&lead, 90.0, "lead")?, "ms"),
        m("side_p90_ms", ms(&side, 90.0, "side")?, "ms"),
        m("rss_peak_mb", rss_peak_mb, "MiB"),
    ];
    let mut meta = crate::run_meta(&spec, seed);
    meta.extend([
        ("rounds", format!("{rounds} of {planned}")),
        ("warmup_rounds", spec.warmup_rounds.to_string()),
        ("lead_samples", lead.len().to_string()),
        ("side_samples", side.len().to_string()),
        ("setups", SETUPS.to_string()),
        ("timed_s", format!("{timed:.3}")),
    ]);
    Ok(Report {
        correct: errors.is_empty() && checked.is_ok(),
        attempted,
        failed,
        metrics,
        meta,
    })
}

/// Starts a server on a fresh engine and loads the seed tables over the
/// wire up to the first answered IMPROVE, which builds the prepared index.
/// Returns the server, its connection, and how long that took in seconds.
fn set_up(
    spec: &Spec,
    wl: &Workload,
    data_dir: &Path,
    first_improve: &str,
) -> Result<(Server, Client, f64), String> {
    let started = Instant::now();
    let server = Server::start(serve::engine(spec, data_dir)?)?;
    let mut client = Client::connect(server.addr())?;
    for sql in &wl.load {
        client.request_ok(sql)?;
    }
    client.request_ok(first_improve)?;
    Ok((server, client, started.elapsed().as_secs_f64()))
}
