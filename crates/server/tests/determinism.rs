//! Concurrency determinism: the serving layer must never change answers.
//!
//! Two contracts, mirroring DESIGN.md §11:
//!
//! 1. **Read determinism** — N client threads issuing the identical
//!    IMPROVE concurrently all receive byte-identical response lines,
//!    equal to what a fresh single-threaded [`iq_dbms::Session`] renders.
//! 2. **Write serializability** — any concurrent interleaving of writes
//!    is equivalent to *some* serial order; the WAL records that order,
//!    and both an engine reopened on the data dir and a fresh session
//!    replaying the recovered statements reproduce the exact final state,
//!    also when auto-checkpoints rotate the WAL mid-history.

use iq_core::ExecPolicy;
use iq_server::{
    protocol, Client, DurabilityConfig, Engine, FsyncMode, Metrics, Recovery, ServerConfig,
    ServerHandle,
};
use iq_workload::{seed_statements, standard_instance, Distribution, QueryDistribution};
use iq_workload::{SqlStream, StatementMix};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch data directory, removed on drop (kept on panic so a
/// failed run leaves its WAL behind).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("iq_determinism_{tag}_{}_{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A durable engine on `dir` without fsyncs: the tests never crash, they
/// only reread the WAL after a clean drain.
fn open_durable(dir: &Path, exec: ExecPolicy, checkpoint_bytes: Option<u64>) -> (Engine, Recovery) {
    Engine::with_storage(
        Arc::new(Metrics::new()),
        exec,
        DurabilityConfig {
            data_dir: dir.to_path_buf(),
            fsync: FsyncMode::Never,
            checkpoint_bytes,
        },
    )
    .expect("open durable engine")
}

/// Starts a server over a durable engine on a fresh `dir`. share_across
/// keeps worker-level concurrency honest even when the per-request
/// ExecPolicy would itself fan out.
fn start_durable_server(dir: &Path, workers: usize, checkpoint_bytes: Option<u64>) -> ServerHandle {
    let (engine, recovery) = open_durable(dir, ExecPolicy::share_across(workers), checkpoint_bytes);
    assert!(recovery.statements.is_empty(), "fresh dir has no history");
    start_on(engine, workers)
}

fn start_on(engine: Engine, workers: usize) -> ServerHandle {
    iq_server::start(
        Arc::new(engine),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_capacity: 128,
            default_deadline: None,
        },
    )
    .expect("bind")
}

/// Drains the server, then replays its committed history: returns the
/// live tables, the tables of an engine reopened on `dir`, the tables of
/// a fresh in-memory engine replaying the recovered statements, and the
/// recovery itself.
fn drain_and_replay(handle: ServerHandle, dir: &Path) -> (String, String, String, Recovery) {
    let engine = Arc::clone(handle.engine());
    handle.shutdown();
    handle.join();
    let live = engine.dump_tables();
    drop(engine); // the last owner: closes the WAL before the reopen
    let (reopened, recovery) = open_durable(dir, ExecPolicy::sequential(), None);
    let replay = Engine::new(Arc::new(Metrics::new()), ExecPolicy::sequential());
    for sql in &recovery.statements {
        replay.execute_sql(sql).unwrap();
    }
    (live, reopened.dump_tables(), replay.dump_tables(), recovery)
}

fn seed_sql() -> Vec<String> {
    let instance = standard_instance(
        Distribution::Independent,
        QueryDistribution::Uniform,
        40,
        20,
        2,
        3,
        17,
    );
    seed_statements(&instance, "objects", "queries", 16)
}

#[test]
fn concurrent_identical_improves_are_byte_identical() {
    let exec = ExecPolicy::share_across(4);
    let handle = start_on(Engine::new(Arc::new(Metrics::new()), exec), 4);
    let mut seeder = Client::connect(handle.addr()).unwrap();
    let seed = seed_sql();
    for sql in &seed {
        assert!(protocol::is_ok(&seeder.request(sql).unwrap()));
    }

    const IMPROVE: &str = "IMPROVE objects USING queries WHERE id = 3 MINCOST 4";
    let addr = handle.addr();
    let lines: Vec<Vec<String>> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                (0..5).map(|_| c.request(IMPROVE).unwrap()).collect()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();

    // Every response from every thread is the same byte string…
    let first = &lines[0][0];
    for per_thread in &lines {
        for line in per_thread {
            assert_eq!(line, first, "concurrent IMPROVE answers diverged");
        }
    }
    // …and equals a fresh sequential session's rendering.
    let mut session = iq_dbms::Session::new();
    for sql in &seed {
        session.execute(sql).unwrap();
    }
    let expected = iq_dbms::outcome_json(&session.execute(IMPROVE).unwrap());
    assert_eq!(*first, expected, "server answer differs from sequential");

    handle.shutdown();
    handle.join();
}

#[test]
fn interleaved_writes_serialize_to_the_wal_order() {
    let tmp = TempDir::new("interleaved");
    let handle = start_durable_server(&tmp.0, 4, None);
    let mut seeder = Client::connect(handle.addr()).unwrap();
    let seed = seed_sql();
    for sql in &seed {
        assert!(protocol::is_ok(&seeder.request(sql).unwrap()));
    }

    // Several writer threads race deterministic per-thread streams of
    // mixed reads and writes.
    let instance = standard_instance(
        Distribution::Independent,
        QueryDistribution::Uniform,
        40,
        20,
        2,
        3,
        17,
    );
    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let mut stream = SqlStream::new(
                &instance,
                "objects",
                "queries",
                StatementMix::default(),
                3,
                100 + t as u64,
            );
            let stmts: Vec<String> = (0..20).map(|_| stream.next_statement()).collect();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for sql in stmts {
                    let r = c.request(&sql).unwrap();
                    assert!(
                        protocol::is_ok(&r) || protocol::error_kind(&r).is_some(),
                        "{r}"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // The WAL is the serial history: without checkpoints it holds every
    // committed write, seed first, and replaying it must reproduce the
    // engine's exact table state.
    let (live, reopened, replayed, recovery) = drain_and_replay(handle, &tmp.0);
    assert_eq!(recovery.snapshot_statements, 0);
    assert_eq!(&recovery.statements[..seed.len()], &seed[..], "seed leads");
    assert_eq!(reopened, live, "reopened engine differs from live state");
    assert_eq!(
        replayed, live,
        "concurrent history is not equivalent to its serialization"
    );
}

/// The cache reconciles writes at the next IMPROVE instead of rebuilding:
/// a caching engine fed a mixed stream (UPDATEs and query INSERTs among
/// the reads) must answer every statement exactly as a fresh session that
/// has no cache at all.
#[test]
fn reconciled_cache_answers_like_a_fresh_session_at_every_step() {
    let instance = standard_instance(
        Distribution::Independent,
        QueryDistribution::Uniform,
        40,
        20,
        2,
        3,
        23,
    );
    let engine = Engine::new(Arc::new(Metrics::new()), ExecPolicy::sequential());
    let mut session = iq_dbms::Session::new();
    for sql in seed_statements(&instance, "objects", "queries", 16) {
        engine.execute_sql(&sql).unwrap();
        session.execute(&sql).unwrap();
    }
    let mut stream = SqlStream::new(
        &instance,
        "objects",
        "queries",
        StatementMix::default(),
        3,
        29,
    );
    let mut improves = 0;
    for step in 0..400 {
        let sql = stream.next_statement();
        let expected = match session.execute(&sql) {
            Ok(outcome) => iq_dbms::outcome_json(&outcome),
            Err(e) => iq_dbms::error_json(&e),
        };
        assert_eq!(engine.execute_line(&sql), expected, "step {step}: `{sql}`");
        improves += sql.starts_with("IMPROVE") as usize;
    }
    let stat = |name: &str| {
        let stats = protocol::parse_stats(&engine.execute_line("SHOW STATS")).unwrap();
        stats.into_iter().find(|(n, _)| n == name).unwrap().1
    };
    assert!(improves > 100, "{improves} IMPROVEs");
    assert_eq!(stat("cache_misses"), 1, "the entry was rebuilt");
    assert!(stat("cache_reconciles") > 10);
}

/// Writers and readers race on one engine. Every IMPROVE must search an
/// entry that is current when it searches (checked inside the engine
/// under `--features debug-invariants`), and after the race the cached
/// answer equals a fresh replay of the committed history.
#[test]
fn racing_writers_never_leave_a_reader_on_a_stale_entry() {
    let tmp = TempDir::new("racing");
    let (engine, _) = open_durable(&tmp.0, ExecPolicy::sequential(), None);
    let engine = Arc::new(engine);
    let instance = standard_instance(
        Distribution::Independent,
        QueryDistribution::Uniform,
        60,
        30,
        2,
        3,
        31,
    );
    for sql in seed_statements(&instance, "objects", "queries", 16) {
        engine.execute_sql(&sql).unwrap();
    }
    const IMPROVE: &str = "IMPROVE objects USING queries WHERE id = 5 MINCOST 4";
    let writes = StatementMix {
        select: 0,
        improve: 0,
        insert_query: 1,
        update_object: 3,
    };
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let mut stream = SqlStream::new(&instance, "objects", "queries", writes, 3, t);
            std::thread::spawn(move || {
                for _ in 0..150 {
                    let sql = if t % 2 == 0 {
                        stream.next_statement()
                    } else {
                        IMPROVE.to_string()
                    };
                    let r = engine.execute_line(&sql);
                    assert!(protocol::is_ok(&r), "`{sql}`: {r}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let cached = engine.execute_line(IMPROVE);
    let live = engine.dump_tables();
    drop(engine);
    let (reopened, recovery) = open_durable(&tmp.0, ExecPolicy::sequential(), None);
    let replay = Engine::new(Arc::new(Metrics::new()), ExecPolicy::sequential());
    for sql in &recovery.statements {
        replay.execute_sql(sql).unwrap();
    }
    assert_eq!(reopened.dump_tables(), live);
    assert_eq!(cached, replay.execute_line(IMPROVE));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small workloads, random thread/worker shapes, with and
    /// without WAL rotation: the WAL replay invariant must hold for all of
    /// them. With 1 KiB auto-checkpoints the history crosses snapshot
    /// rotations; the recovered generation witnesses that.
    #[test]
    fn random_mixed_workloads_serialize(
        workers in 1usize..4,
        clients in 1usize..4,
        per_client in 4usize..12,
        seed in 0u64..1000,
        rotate in any::<bool>(),
    ) {
        let tmp = TempDir::new("random");
        let checkpoint_bytes = rotate.then_some(1024);
        let handle = start_durable_server(&tmp.0, workers, checkpoint_bytes);
        let mut seeder = Client::connect(handle.addr()).unwrap();
        let instance = standard_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            20,
            10,
            2,
            3,
            seed,
        );
        for sql in seed_statements(&instance, "objects", "queries", 8) {
            prop_assert!(protocol::is_ok(&seeder.request(&sql).unwrap()));
        }

        let addr = handle.addr();
        let threads: Vec<_> = (0..clients)
            .map(|t| {
                let mut stream = SqlStream::new(
                    &instance, "objects", "queries",
                    StatementMix::default(), 2, seed ^ (t as u64 + 1),
                );
                let stmts: Vec<String> =
                    (0..per_client).map(|_| stream.next_statement()).collect();
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for sql in stmts {
                        let _ = c.request(&sql).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        let (live, reopened, replayed, recovery) =
            drain_and_replay(handle, &tmp.0);
        prop_assert_eq!(recovery.generation > 0, rotate, "rotation witness");
        prop_assert_eq!(&reopened, &live);
        prop_assert_eq!(&replayed, &live);
    }
}
