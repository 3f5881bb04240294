//! Crash recovery: the durable layer must restore exactly the acknowledged
//! prefix of the write history, whatever the crash looked like.
//!
//! Three attack shapes, mirroring DESIGN.md §12:
//!
//! 1. **Clean restart** — drop the engine, reopen the data dir: state is
//!    byte-identical, with or without intervening checkpoints.
//! 2. **Torn/corrupt WAL** — truncate the log at *any* byte offset (or
//!    flip a bit): startup recovers without error to the longest valid
//!    record prefix, and the recovered tables are byte-identical to
//!    replaying that prefix through a fresh session.
//! 3. **Process kill** — SIGKILL the real `iq-server` binary mid-stream
//!    under `--fsync always`: every acknowledged write survives.

use iq_core::ExecPolicy;
use iq_server::{protocol, DurabilityConfig, Engine, FsyncMode, Metrics};
use iq_storage::wal::{MAGIC, RECORD_HEADER};
use proptest::prelude::*;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch directory, removed on drop (kept on panic so a failed
/// run leaves its evidence behind).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("iq_recovery_{tag}_{}_{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn open_engine(
    dir: &Path,
    fsync: FsyncMode,
    checkpoint_bytes: Option<u64>,
) -> (Engine, iq_storage::Recovery) {
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

/// Replays `statements` through a fresh in-memory engine and fingerprints
/// the result — the independent "ground truth" side of every assertion.
fn state_of(statements: &[String]) -> String {
    let e = Engine::new(Arc::new(Metrics::new()), ExecPolicy::sequential());
    for sql in statements {
        e.execute_sql(sql).expect(sql);
    }
    e.dump_tables()
}

/// One `SHOW STATS` row's value.
fn stat(engine: &Engine, name: &str) -> i64 {
    let Ok(iq_dbms::Outcome::Rows(r)) = engine.execute_sql("SHOW STATS") else {
        panic!("SHOW STATS failed");
    };
    match r
        .rows
        .iter()
        .find(|row| row[0] == iq_dbms::Value::Text(name.into()))
    {
        Some(row) => row[1].as_f64().expect("integer stat") as i64,
        None => panic!("SHOW STATS has no {name}"),
    }
}

fn seed_writes() -> Vec<String> {
    vec![
        "CREATE TABLE objects (id INT, a1 FLOAT, a2 FLOAT)".into(),
        "INSERT INTO objects VALUES (0, 0.9, 0.8), (1, 0.2, 0.3), (2, 0.5, 0.5)".into(),
        "CREATE TABLE queries (w1 FLOAT, w2 FLOAT, k INT)".into(),
        "INSERT INTO queries VALUES (0.9, 0.1, 1), (0.5, 0.5, 2), (0.3, 0.7, 1)".into(),
        "UPDATE objects SET a1 = 0.75 WHERE id = 1".into(),
        "DELETE FROM objects WHERE id = 2".into(),
    ]
}

/// Byte offsets in a generation-0 WAL at which each record *ends*:
/// `boundaries[0]` is end-of-magic (zero records), `boundaries[i]` the end
/// of the i-th record. Computed from the statements alone — independent of
/// the encoder under test.
fn record_boundaries(statements: &[String]) -> Vec<u64> {
    let mut out = vec![MAGIC.len() as u64];
    let mut at = MAGIC.len() as u64;
    for sql in statements {
        at += (RECORD_HEADER + sql.len()) as u64;
        out.push(at);
    }
    out
}

/// Copies every regular file in `src` into a fresh `dst`.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

fn truncate_file(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len).unwrap();
}

#[test]
fn restart_recovers_exact_state() {
    let tmp = TempDir::new("restart");
    let writes = seed_writes();
    let before = {
        let (engine, recovery) = open_engine(tmp.path(), FsyncMode::Always, None);
        assert!(recovery.statements.is_empty(), "fresh dir has no history");
        for sql in &writes {
            engine.execute_sql(sql).unwrap();
        }
        // Reads must not enter the durable history.
        engine
            .execute_sql("SELECT id FROM objects WHERE id = 0")
            .unwrap();
        engine
            .execute_sql("IMPROVE objects USING queries WHERE id = 0 MINCOST 2")
            .unwrap();
        engine.dump_tables()
    };

    let (engine, recovery) = open_engine(tmp.path(), FsyncMode::Always, None);
    assert_eq!(
        recovery.statements, writes,
        "recovered history is the write log"
    );
    assert_eq!(recovery.snapshot_statements, 0);
    assert_eq!(recovery.wal_statements, writes.len());
    assert!(recovery.damage.is_none());
    assert_eq!(engine.dump_tables(), before, "state survives restart");
    assert_eq!(engine.dump_tables(), state_of(&writes));
}

#[test]
fn checkpoint_rotates_and_recovery_uses_the_snapshot() {
    let tmp = TempDir::new("checkpoint");
    let writes = seed_writes();
    let before = {
        let (engine, _) = open_engine(tmp.path(), FsyncMode::Always, None);
        for sql in &writes[..4] {
            engine.execute_sql(sql).unwrap();
        }
        match engine.execute_sql("CHECKPOINT").unwrap() {
            iq_dbms::Outcome::Checkpointed {
                generation,
                wal_truncated,
            } => {
                assert_eq!(generation, 1);
                assert_eq!(wal_truncated, 4, "all four records left the wal");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        for sql in &writes[4..] {
            engine.execute_sql(sql).unwrap();
        }
        engine.dump_tables()
    };

    let (engine, recovery) = open_engine(tmp.path(), FsyncMode::Always, None);
    assert_eq!(recovery.generation, 1);
    assert!(
        recovery.snapshot_statements > 0,
        "snapshot carries the state"
    );
    assert_eq!(
        recovery.wal_statements, 2,
        "only post-checkpoint writes in the wal"
    );
    assert_eq!(engine.dump_tables(), before);
    assert_eq!(engine.dump_tables(), state_of(&writes));
}

#[test]
fn failed_write_is_neither_applied_nor_logged() {
    let tmp = TempDir::new("failedwrite");
    let seed = seed_writes();
    let before = {
        let (engine, _) = open_engine(tmp.path(), FsyncMode::Always, None);
        for sql in &seed {
            engine.execute_sql(sql).unwrap();
        }
        // The first row is valid, the second is not: neither lands.
        let partial = "INSERT INTO objects VALUES (5, 0.05, 0.05), (6, 'x', 0.1)";
        assert!(engine.execute_sql(partial).is_err());
        // SHOW STATS reads the WAL counters from the storage layer.
        assert_eq!(stat(&engine, "wal_appends"), seed.len() as i64);
        assert_eq!(stat(&engine, "wal_fsyncs"), seed.len() as i64);
        assert_eq!(stat(&engine, "checkpoints"), 0);
        engine.dump_tables()
    };
    assert_eq!(before, state_of(&seed));
    let (engine, recovery) = open_engine(tmp.path(), FsyncMode::Always, None);
    assert_eq!(recovery.statements, seed);
    assert_eq!(engine.dump_tables(), before);
}

#[test]
fn auto_checkpoint_triggers_and_recovers() {
    let tmp = TempDir::new("autockpt");
    let before = {
        // Tiny threshold: every write crosses it, so each commit rotates.
        let (engine, _) = open_engine(tmp.path(), FsyncMode::Always, Some(64));
        for sql in &seed_writes() {
            engine.execute_sql(sql).unwrap();
        }
        assert!(stat(&engine, "checkpoints") >= 2, "size trigger fired");
        engine.dump_tables()
    };
    let (engine, recovery) = open_engine(tmp.path(), FsyncMode::Always, Some(64));
    assert!(recovery.generation >= 2, "generations advanced");
    assert_eq!(engine.dump_tables(), before);
    assert_eq!(engine.dump_tables(), state_of(&seed_writes()));
}

/// The acceptance sweep: truncate the WAL at *every* byte offset. Startup
/// must always succeed, recover exactly the longest valid record prefix,
/// and land on the state a fresh session reaches replaying that prefix.
#[test]
fn any_byte_truncation_recovers_the_longest_valid_prefix() {
    let tmp = TempDir::new("sweep");
    let writes = seed_writes();
    {
        let (engine, _) = open_engine(tmp.path(), FsyncMode::Always, None);
        for sql in &writes {
            engine.execute_sql(sql).unwrap();
        }
    }
    let wal = tmp.path().join("wal-0.log");
    let full_len = std::fs::metadata(&wal).unwrap().len();
    let boundaries = record_boundaries(&writes);
    assert_eq!(
        *boundaries.last().unwrap(),
        full_len,
        "layout matches encoder"
    );

    for cut in 0..=full_len {
        let copy = TempDir::new("sweep_cut");
        copy_dir(tmp.path(), copy.path());
        truncate_file(&copy.path().join("wal-0.log"), cut);

        let (engine, recovery) = open_engine(copy.path(), FsyncMode::Always, None);
        // Longest valid prefix: every record that ends at or before the cut.
        let expect = boundaries.iter().filter(|&&b| b > 8 && b <= cut).count();
        assert_eq!(
            recovery.statements,
            &writes[..expect],
            "cut at byte {cut}: recovered history must be the valid prefix"
        );
        // Only an empty file or an exact record boundary is a clean end;
        // everything else (including a torn magic) is reported damage.
        let clean = cut == 0 || boundaries.contains(&cut);
        assert_eq!(
            recovery.damage.is_some(),
            !clean,
            "cut at byte {cut}: torn tail reported iff mid-record"
        );
        assert_eq!(
            engine.dump_tables(),
            state_of(&writes[..expect]),
            "cut at byte {cut}: state must equal a fresh replay of the prefix"
        );
        // The reopened WAL was truncated to the valid prefix and accepts
        // new appends — the torn tail is gone for good.
        engine.execute_sql("CREATE TABLE extra (id INT)").unwrap();
    }
}

#[test]
fn payload_corruption_stops_replay_at_the_damaged_record() {
    let tmp = TempDir::new("corrupt");
    let writes = seed_writes();
    {
        let (engine, _) = open_engine(tmp.path(), FsyncMode::Always, None);
        for sql in &writes {
            engine.execute_sql(sql).unwrap();
        }
    }
    let wal = tmp.path().join("wal-0.log");
    let boundaries = record_boundaries(&writes);
    // Flip one payload bit inside the fourth record.
    let mut bytes = std::fs::read(&wal).unwrap();
    let target = boundaries[3] as usize + RECORD_HEADER + 2;
    bytes[target] ^= 0x10;
    std::fs::write(&wal, &bytes).unwrap();

    let (engine, recovery) = open_engine(tmp.path(), FsyncMode::Always, None);
    assert_eq!(
        recovery.statements,
        &writes[..3],
        "replay stops before the flip"
    );
    let damage = recovery.damage.expect("corruption is reported");
    assert!(
        damage.contains("crc mismatch") && damage.contains(&format!("at byte {}", boundaries[3])),
        "damage names the fault and its byte offset: {damage}"
    );
    assert_eq!(engine.dump_tables(), state_of(&writes[..3]));
}

/// A deterministic random write mix: statement `i` of a given seed is
/// always the same string, without depending on the workload RNG.
fn random_writes(seed: u64, n: usize) -> Vec<String> {
    let mut out = vec!["CREATE TABLE t (id INT, x FLOAT, note TEXT)".to_string()];
    let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
    let mut step = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    for i in 0..n {
        let v = (step() % 1000) as f64 / 1000.0;
        out.push(match step() % 4 {
            0 | 1 => format!("INSERT INTO t VALUES ({i}, {v}, 'row {i}')"),
            2 => format!(
                "UPDATE t SET x = {v} WHERE id = {}",
                step() % (i as u64 + 1)
            ),
            _ => format!("DELETE FROM t WHERE id = {}", step() % (i as u64 + 1)),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random write mixes × random truncation points: the crash-recovery
    /// property must hold for all of them (the ISSUE's acceptance bar).
    #[test]
    fn random_mixes_recover_any_truncation(
        seed in 0u64..10_000,
        n_writes in 1usize..16,
        cut_sel in any::<usize>(),
    ) {
        let tmp = TempDir::new("prop");
        let writes = random_writes(seed, n_writes);
        {
            // fsync never: the Drop-flush path must still leave a
            // fully decodable log behind a clean process exit.
            let (engine, _) = open_engine(tmp.path(), FsyncMode::Never, None);
            for sql in &writes {
                engine.execute_sql(sql).unwrap();
            }
        }
        let wal = tmp.path().join("wal-0.log");
        let full_len = std::fs::metadata(&wal).unwrap().len() as usize;
        let cut = (cut_sel % (full_len + 1)) as u64;
        truncate_file(&wal, cut);

        let boundaries = record_boundaries(&writes);
        let expect = boundaries.iter().filter(|&&b| b > 8 && b <= cut).count();
        let (engine, recovery) = open_engine(tmp.path(), FsyncMode::Never, None);
        prop_assert_eq!(&recovery.statements, &writes[..expect]);
        prop_assert_eq!(engine.dump_tables(), state_of(&writes[..expect]));
    }
}

/// The end-to-end crash: SIGKILL the real binary mid-stream. Under
/// `--fsync always` every acknowledged write must survive into a fresh
/// engine opened on the same directory.
#[test]
fn killed_server_preserves_every_acknowledged_write() {
    let tmp = TempDir::new("kill");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_iq-server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--data-dir",
            tmp.path().to_str().unwrap(),
            "--fsync",
            "always",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn iq-server");

    // The binary announces its ephemeral port on stderr once it's serving.
    let stderr = child.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before listening")
            .unwrap();
        if let Some(rest) = line.strip_prefix("iq-server listening on ") {
            break rest.to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    let drain = std::thread::spawn(move || for _ in lines.by_ref() {});

    let writes = seed_writes();
    let mut client = iq_server::Client::connect(addr.as_str()).expect("connect");
    for sql in &writes {
        let response = client.request(sql).expect(sql);
        assert!(protocol::is_ok(&response), "{sql}: {response}");
    }

    // No SHUTDOWN, no drain: the process dies with whatever it has synced.
    child.kill().unwrap();
    child.wait().unwrap();
    drain.join().unwrap();

    let (engine, recovery) = open_engine(tmp.path(), FsyncMode::Always, None);
    assert_eq!(
        recovery.statements, writes,
        "every acknowledged write survived the kill"
    );
    assert_eq!(engine.dump_tables(), state_of(&writes));
}

/// Belt and braces for the wire format constant the sweep relies on: the
/// independent layout arithmetic matches what the binary actually wrote.
#[test]
fn wal_layout_matches_the_independent_arithmetic() {
    let tmp = TempDir::new("layout");
    let writes = seed_writes();
    {
        let (engine, _) = open_engine(tmp.path(), FsyncMode::Always, None);
        for sql in &writes {
            engine.execute_sql(sql).unwrap();
        }
    }
    let bytes = std::fs::read(tmp.path().join("wal-0.log")).unwrap();
    assert_eq!(&bytes[..8], MAGIC);
    let boundaries = record_boundaries(&writes);
    for (i, sql) in writes.iter().enumerate() {
        let start = boundaries[i] as usize;
        let len = u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap());
        assert_eq!(len as usize, sql.len());
        let stored_crc = u32::from_le_bytes(bytes[start + 4..start + 8].try_into().unwrap());
        assert_eq!(stored_crc, iq_storage::crc32(sql.as_bytes()));
        assert_eq!(
            &bytes[start + RECORD_HEADER..start + RECORD_HEADER + sql.len()],
            sql.as_bytes()
        );
    }
}
