//! `loadgen`: a load-generating client for `iq-server`.
//!
//! Spawns an in-process server on an ephemeral port, seeds it with a
//! deterministic `iq-workload` instance, then drives it through two
//! phases — a 1-connection baseline and an N-connection run of the same
//! per-connection request count — and reports per-kind throughput,
//! client-observed latency percentiles, and the N-conn/1-conn IMPROVE
//! scaling ratio.
//!
//! The scaling ratio is bounded by physical cores: CPU-bound IMPROVE
//! cannot scale past `min(cores, connections)`, so on a 1-core box the
//! honest ratio is ~1× regardless of architecture. The number is
//! *measured*, never assumed — CI runs this on multi-core machines where
//! the concurrency actually shows (see DESIGN.md §11).
//!
//! With `--durability` the serving phases are replaced by a durability
//! benchmark: an in-process durable engine (no TCP) timed through a
//! write-only workload once per fsync mode (`always`, `batch:64`,
//! `never`), plus a timed recovery replay and an auto-checkpoint
//! exercise. The JSON rows feed CI's `recovery-smoke` job against the
//! committed `BENCH_pr4.json` baseline.
//!
//! ```text
//! loadgen [--objects N] [--queries N] [--dim D] [--seed S] [--tau T]
//!         [--requests N] [--conns N] [--workers N] [--queue N]
//!         [--json PATH] [--check-stats] [--durability] [--writes N]
//! ```

use iq_core::{ExecPolicy, Instance};
use iq_server::{
    protocol, Client, DurabilityConfig, Engine, FsyncMode, Metrics, ServerConfig, ServerHandle,
};
use iq_workload::{
    seed_statements, standard_instance, Distribution, QueryDistribution, SqlStream, StatementMix,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The wall clock.
#[expect(
    clippy::disallowed_methods,
    reason = "this program times what it runs, so it reads the clock, but only here"
)]
fn now() -> Instant {
    Instant::now()
}

struct Config {
    objects: usize,
    queries: usize,
    dim: usize,
    seed: u64,
    tau: usize,
    requests: usize,
    conns: usize,
    workers: usize,
    queue: usize,
    json: Option<String>,
    check_stats: bool,
    durability: bool,
    writes: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            objects: 300,
            queries: 100,
            dim: 2,
            seed: 42,
            tau: 4,
            requests: 40,
            conns: 8,
            workers: 8,
            queue: 256,
            json: None,
            check_stats: false,
            durability: false,
            writes: 400,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--objects N] [--queries N] [--dim D] [--seed S] [--tau T] \
         [--requests PER_CONN] [--conns N] [--workers N] [--queue N] \
         [--json PATH] [--check-stats] [--durability] [--writes N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--objects" => cfg.objects = value().parse().unwrap_or_else(|_| usage()),
            "--queries" => cfg.queries = value().parse().unwrap_or_else(|_| usage()),
            "--dim" => cfg.dim = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--tau" => cfg.tau = value().parse().unwrap_or_else(|_| usage()),
            "--requests" => cfg.requests = value().parse().unwrap_or_else(|_| usage()),
            "--conns" => cfg.conns = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = value().parse().unwrap_or_else(|_| usage()),
            "--queue" => cfg.queue = value().parse().unwrap_or_else(|_| usage()),
            "--json" => cfg.json = Some(value()),
            "--check-stats" => cfg.check_stats = true,
            "--durability" => cfg.durability = true,
            "--writes" => cfg.writes = value().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    cfg
}

/// Client-side accounting for one phase: latencies per statement kind.
#[derive(Default)]
struct PhaseStats {
    select_us: Vec<u64>,
    improve_us: Vec<u64>,
    errors: usize,
    elapsed_s: f64,
}

fn kind_of(sql: &str) -> &'static str {
    if sql.starts_with("SELECT") {
        "select"
    } else {
        "improve"
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Drives `conns` connections, each issuing `requests` statements from a
/// deterministic read-only stream, and merges the client-side timings.
fn run_phase(
    handle: &ServerHandle,
    instance: &Instance,
    conns: usize,
    requests: usize,
    tau: usize,
    seed: u64,
) -> PhaseStats {
    let addr = handle.addr();
    let started = now();
    let threads: Vec<_> = (0..conns)
        .map(|c| {
            let mut stream = SqlStream::new(
                instance,
                "objects",
                "queries",
                StatementMix::read_only(),
                tau,
                seed ^ (0x9e37_79b9_7f4a_7c15 * (c as u64 + 1)),
            );
            let stmts: Vec<String> = (0..requests).map(|_| stream.next_statement()).collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut local = PhaseStats::default();
                for sql in &stmts {
                    let t0 = now();
                    let response = client.request(sql).expect("request");
                    let us = t0.elapsed().as_micros() as u64;
                    if !protocol::is_ok(&response) {
                        local.errors += 1;
                        continue;
                    }
                    match kind_of(sql) {
                        "select" => local.select_us.push(us),
                        _ => local.improve_us.push(us),
                    }
                }
                local
            })
        })
        .collect();

    let mut merged = PhaseStats::default();
    for t in threads {
        let local = t.join().expect("client thread");
        merged.select_us.extend(local.select_us);
        merged.improve_us.extend(local.improve_us);
        merged.errors += local.errors;
    }
    merged.elapsed_s = started.elapsed().as_secs_f64();
    merged.select_us.sort_unstable();
    merged.improve_us.sort_unstable();
    merged
}

/// Writes the CI-facing BENCH JSON shape: `{"benches": [{name, value,
/// unit}, …]}` — what `scripts/bench_diff.py` consumes.
fn write_bench_json(path: &str, rows: &[(String, f64, &str)]) {
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"name\": \"{name}\", \"value\": {value}, \"unit\": \"{unit}\" }}"
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write json");
    eprintln!("wrote {path}");
}

/// Opens a durable engine on `dir` (sequential exec — durability cost is
/// what's under test, not search parallelism).
fn open_durable(
    dir: &std::path::Path,
    fsync: FsyncMode,
    checkpoint_bytes: Option<u64>,
) -> (Engine, iq_server::Recovery) {
    Engine::with_storage(
        Arc::new(Metrics::new()),
        ExecPolicy::sequential(),
        DurabilityConfig {
            data_dir: dir.to_path_buf(),
            fsync,
            checkpoint_bytes,
        },
    )
    .expect("open durable engine")
}

/// One durability phase: `writes` single-row INSERTs through a fresh
/// durable engine under `fsync`, then a timed recovery replay of the same
/// directory. Returns (write rps, recovery-replay rps, recovered dump).
fn durability_phase(dir: &std::path::Path, fsync: FsyncMode, writes: usize) -> (f64, f64, String) {
    let _ = std::fs::remove_dir_all(dir);
    let (engine, _) = open_durable(dir, fsync, None);
    engine
        .execute_sql("CREATE TABLE t (id INT, x FLOAT)")
        .expect("create");
    let started = now();
    for i in 0..writes {
        let v = (i * 37 % 1000) as f64 / 1000.0;
        engine
            .execute_sql(&format!("INSERT INTO t VALUES ({i}, {v})"))
            .expect("insert");
    }
    let write_rps = writes as f64 / started.elapsed().as_secs_f64().max(1e-9);
    drop(engine); // clean close: flushes any unsynced batch tail

    let started = now();
    let (engine, recovery) = open_durable(dir, fsync, None);
    let replay_rps = recovery.statements.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        recovery.statements.len(),
        writes + 1,
        "every acknowledged write recovered"
    );
    (write_rps, replay_rps, engine.dump_tables())
}

/// The `--durability` mode: write throughput per fsync discipline,
/// recovery replay rate, and an auto-checkpoint exercise — all in-process
/// (the WAL sits under the engine, not the TCP layer).
fn run_durability(cfg: &Config) {
    let base = std::env::temp_dir().join(format!("iq_loadgen_dur_{}", std::process::id()));
    let modes: [(&str, FsyncMode); 3] = [
        ("always", FsyncMode::Always),
        ("batch64", "batch:64".parse().expect("batch mode")),
        ("never", FsyncMode::Never),
    ];
    eprintln!("durability: {} writes per fsync mode", cfg.writes);

    let mut rows: Vec<(String, f64, &str)> = Vec::new();
    let mut dumps: Vec<String> = Vec::new();
    let mut replay_always = 0.0;
    for (label, fsync) in modes {
        let (write_rps, replay_rps, dump) = durability_phase(&base.join(label), fsync, cfg.writes);
        eprintln!(
            "  fsync {label}: {write_rps:.0} writes/s, recovery replay {replay_rps:.0} stmts/s"
        );
        rows.push((
            format!("durability/fsync_{label}/write_throughput"),
            write_rps,
            "rps",
        ));
        if label == "always" {
            replay_always = replay_rps;
        }
        dumps.push(dump);
    }
    // Same writes, any fsync mode ⇒ byte-identical recovered state.
    assert!(
        dumps.windows(2).all(|w| w[0] == w[1]),
        "fsync mode changed the recovered state"
    );
    rows.push((
        "durability/recovery_replay_rate".into(),
        replay_always,
        "rps",
    ));

    // Auto-checkpoint: a small threshold must rotate the WAL mid-run and
    // recovery must come back through the snapshot to the same state.
    let ckpt_dir = base.join("autockpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let (engine, _) = open_durable(&ckpt_dir, FsyncMode::Always, Some(4096));
    engine
        .execute_sql("CREATE TABLE t (id INT, x FLOAT)")
        .expect("create");
    for i in 0..cfg.writes {
        let v = (i * 37 % 1000) as f64 / 1000.0;
        engine
            .execute_sql(&format!("INSERT INTO t VALUES ({i}, {v})"))
            .expect("insert");
    }
    let stats = engine.stats();
    let checkpoints = stats
        .rows
        .iter()
        .find(|row| row[0] == iq_dbms::Value::Text("checkpoints".into()))
        .and_then(|row| row[1].as_f64())
        .expect("SHOW STATS reports checkpoints") as u64;
    assert!(checkpoints >= 1, "auto-checkpoint never fired");
    let before = engine.dump_tables();
    drop(engine);
    let (engine, recovery) = open_durable(&ckpt_dir, FsyncMode::Always, Some(4096));
    assert!(
        recovery.snapshot_statements > 0,
        "recovery used the snapshot"
    );
    assert_eq!(engine.dump_tables(), before, "checkpointed state survived");
    assert_eq!(
        engine.dump_tables(),
        dumps[0],
        "checkpoint changed the state"
    );
    eprintln!(
        "  auto-checkpoint: {checkpoints} rotation(s), recovered through generation {}",
        recovery.generation
    );
    rows.push((
        "durability/auto_checkpoint/rotations".into(),
        checkpoints as f64,
        "count",
    ));
    rows.push(("durability/writes".into(), cfg.writes as f64, "count"));

    let _ = std::fs::remove_dir_all(&base);
    if let Some(path) = &cfg.json {
        write_bench_json(path, &rows);
    }
}

fn main() {
    let cfg = parse_args();
    if cfg.durability {
        run_durability(&cfg);
        return;
    }

    let exec = ExecPolicy::share_across(cfg.workers);
    let metrics = Arc::new(Metrics::new());
    let engine = Arc::new(Engine::new(Arc::clone(&metrics), exec));
    let handle = iq_server::start(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: cfg.workers,
            queue_capacity: cfg.queue,
            default_deadline: None,
        },
    )
    .expect("start in-process server");

    // Seed over the wire, like any client would.
    let instance = standard_instance(
        Distribution::Independent,
        QueryDistribution::Uniform,
        cfg.objects,
        cfg.queries,
        cfg.dim,
        3,
        cfg.seed,
    );
    let mut seeder = Client::connect(handle.addr()).expect("connect");
    for sql in seed_statements(&instance, "objects", "queries", 128) {
        let r = seeder.request(&sql).expect("seed request");
        assert!(protocol::is_ok(&r), "seed failed: {r}");
    }
    // Warm the prepared-index cache so both phases measure serving, not
    // the one-time build.
    let warm = format!(
        "IMPROVE objects USING queries WHERE id = 0 MINCOST {}",
        cfg.tau
    );
    assert!(protocol::is_ok(&seeder.request(&warm).expect("warmup")));

    eprintln!(
        "loadgen: {} objects, {} queries, dim {}, tau {}, {} workers",
        cfg.objects, cfg.queries, cfg.dim, cfg.tau, cfg.workers
    );

    let base = run_phase(&handle, &instance, 1, cfg.requests, cfg.tau, cfg.seed);
    let multi = run_phase(
        &handle,
        &instance,
        cfg.conns,
        cfg.requests,
        cfg.tau,
        cfg.seed,
    );

    let base_improve_rps = base.improve_us.len() as f64 / base.elapsed_s.max(1e-9);
    let multi_improve_rps = multi.improve_us.len() as f64 / multi.elapsed_s.max(1e-9);
    let ratio = multi_improve_rps / base_improve_rps.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let report = |label: &str, s: &PhaseStats| {
        eprintln!(
            "{label}: {:.2}s, {} improve + {} select ok, {} errors",
            s.elapsed_s,
            s.improve_us.len(),
            s.select_us.len(),
            s.errors
        );
        eprintln!(
            "  improve p50/p95/p99: {}/{}/{} us; throughput {:.1} rps",
            percentile(&s.improve_us, 50.0),
            percentile(&s.improve_us, 95.0),
            percentile(&s.improve_us, 99.0),
            s.improve_us.len() as f64 / s.elapsed_s.max(1e-9),
        );
    };
    report("1-conn baseline", &base);
    report(&format!("{}-conn", cfg.conns), &multi);
    eprintln!(
        "scaling ratio ({}conn/1conn improve throughput): {:.2}x on {} core(s) \
         [physical bound ~= min(cores, conns) = {}]",
        cfg.conns,
        ratio,
        cores,
        cores.min(cfg.conns),
    );

    if cfg.check_stats {
        let r = seeder.request("SHOW STATS").expect("SHOW STATS");
        let stats = protocol::parse_stats(&r).expect("stats decode");
        let get = |name: &str| stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        // +1 for the warmup improve; the seeder's SHOW STATS itself isn't
        // counted until after it's answered.
        let want_improve = (base.improve_us.len() + multi.improve_us.len() + 1) as i64;
        let want_select = (base.select_us.len() + multi.select_us.len()) as i64;
        assert_eq!(get("improve_ok"), want_improve, "improve_ok mismatch");
        assert_eq!(get("select_ok"), want_select, "select_ok mismatch");
        assert_eq!(get("queue_depth"), 0, "queue drained");
        eprintln!(
            "check-stats: server counters match client-side counts \
             (improve_ok={want_improve}, select_ok={want_select})"
        );
    }

    if let Some(path) = &cfg.json {
        let mut rows: Vec<(String, f64, &str)> = Vec::new();
        let mut phase_rows = |label: &str, s: &PhaseStats| {
            let rps = s.improve_us.len() as f64 / s.elapsed_s.max(1e-9);
            rows.push((format!("serve/{label}/improve_throughput"), rps, "rps"));
            for (p, tag) in [(50.0, "p50"), (95.0, "p95"), (99.0, "p99")] {
                rows.push((
                    format!("serve/{label}/improve_{tag}_us"),
                    percentile(&s.improve_us, p) as f64,
                    "us",
                ));
            }
        };
        phase_rows("1conn", &base);
        phase_rows(&format!("{}conn", cfg.conns), &multi);
        rows.push(("serve/scaling_ratio".into(), ratio, "x"));
        rows.push(("serve/cores".into(), cores as f64, "count"));

        write_bench_json(path, &rows);
    }

    let _ = seeder.request("SHUTDOWN").expect("shutdown");
    handle.join();
}
