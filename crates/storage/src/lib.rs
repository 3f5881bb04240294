//! `iq-storage`: the durable storage layer under `iq-server`.
//!
//! Std-only (per the offline-dependency policy, DESIGN.md §10). The
//! layer persists the engine's committed write statements, in commit
//! order — its only record of that history — so recovery is the same
//! operation as the replay-determinism invariant: feed the
//! surviving statements through a fresh `Session` and you *are* the
//! pre-crash state.
//!
//! On disk a data directory holds one *generation* of files:
//!
//! ```text
//! data/
//!   snap-<gen>.iqsnap   table state at the start of generation <gen>
//!   wal-<gen>.log       writes committed since that snapshot
//! ```
//!
//! Generation 0 has no snapshot (empty initial state). `CHECKPOINT`
//! advances `gen -> gen+1`: write `snap-(gen+1)` atomically, create an
//! empty `wal-(gen+1)`, then delete the old pair. Recovery picks the
//! highest-generation *valid* snapshot (falling back past damaged ones),
//! replays the matching WAL tolerantly (torn tail truncated at the last
//! valid CRC boundary), and removes any stale files a checkpoint crash
//! left behind. See DESIGN.md §12 for the full protocol and crash-window
//! analysis.

mod crc32;
pub mod snapshot;
pub mod wal;

pub use crc32::crc32;
pub use wal::{Damage, ReplayDamage, WalReplay};

use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An I/O failure, with the operation that hit it.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file carried the wrong magic — it is not ours to touch.
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// A snapshot failed validation (snapshots are all-or-nothing).
    SnapshotInvalid {
        /// The offending file.
        path: PathBuf,
        /// What failed.
        reason: String,
    },
}

impl StorageError {
    pub(crate) fn io(context: String, source: std::io::Error) -> StorageError {
        StorageError::Io { context, source }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { context, source } => write!(f, "{context}: {source}"),
            StorageError::BadMagic { path } => {
                write!(
                    f,
                    "`{}` is not an iq-storage file (bad magic)",
                    path.display()
                )
            }
            StorageError::SnapshotInvalid { path, reason } => {
                write!(f, "invalid snapshot `{}`: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// When appended WAL records are made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncMode {
    /// Fsync on every append: no acknowledged write is ever lost.
    Always,
    /// Group commit: fsync when `every` records are pending or `interval`
    /// has elapsed since the last sync, whichever comes first (checked on
    /// append — there is no background timer thread).
    Batch {
        /// Pending-record threshold.
        every: u64,
        /// Elapsed-time threshold.
        interval: Duration,
    },
    /// Never fsync explicitly: durability is left to the OS page cache.
    /// A crash may lose the unsynced tail, but what survives is still a
    /// valid prefix of commit order.
    Never,
}

impl FsyncMode {
    /// Short name, as accepted by [`FromStr`] and shown in `SHOW WAL`.
    pub fn name(&self) -> String {
        match self {
            FsyncMode::Always => "always".to_string(),
            FsyncMode::Never => "never".to_string(),
            FsyncMode::Batch { every, interval } => {
                if *every == u64::MAX {
                    format!("batch:{}ms", interval.as_millis())
                } else {
                    format!("batch:{every}")
                }
            }
        }
    }
}

impl FromStr for FsyncMode {
    type Err = String;

    /// Accepts `always`, `never`, `batch:N` (every N records), or
    /// `batch:Nms` (every N milliseconds).
    fn from_str(s: &str) -> Result<FsyncMode, String> {
        match s {
            "always" => return Ok(FsyncMode::Always),
            "never" => return Ok(FsyncMode::Never),
            _ => {}
        }
        let spec = s.strip_prefix("batch:").ok_or_else(|| {
            format!("unknown fsync mode `{s}` (want always|never|batch:N|batch:Nms)")
        })?;
        if let Some(ms) = spec.strip_suffix("ms") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad batch interval `{spec}`"))?;
            if ms == 0 {
                return Ok(FsyncMode::Always);
            }
            Ok(FsyncMode::Batch {
                every: u64::MAX,
                interval: Duration::from_millis(ms),
            })
        } else {
            let n: u64 = spec
                .parse()
                .map_err(|_| format!("bad batch size `{spec}`"))?;
            if n <= 1 {
                return Ok(FsyncMode::Always);
            }
            Ok(FsyncMode::Batch {
                every: n,
                interval: Duration::from_secs(3600),
            })
        }
    }
}

/// Configuration for [`Storage::open`].
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Fsync discipline for WAL appends.
    pub fsync: FsyncMode,
    /// Auto-checkpoint when the WAL exceeds this many payload bytes
    /// (`None` disables size-triggered checkpoints; explicit `CHECKPOINT`
    /// still works).
    pub checkpoint_bytes: Option<u64>,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            fsync: FsyncMode::Always,
            checkpoint_bytes: None,
        }
    }
}

/// What recovery found and reconstructed at open.
#[derive(Debug)]
pub struct Recovery {
    /// All statements to replay, snapshot first then WAL, in commit order.
    pub statements: Vec<String>,
    /// How many of `statements` came from the snapshot.
    pub snapshot_statements: usize,
    /// How many came from the WAL tail.
    pub wal_statements: usize,
    /// Bytes cut from a torn WAL tail (0 for a clean log).
    pub truncated_bytes: u64,
    /// Human-readable description of the tail damage, if any.
    pub damage: Option<String>,
    /// The generation recovered into (appends continue in this gen).
    pub generation: u64,
}

/// The result of a checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointInfo {
    /// The new generation number.
    pub generation: u64,
    /// WAL records made redundant (truncated) by the snapshot.
    pub wal_records_truncated: u64,
    /// Statements written into the snapshot.
    pub snapshot_statements: usize,
}

/// A point-in-time view of the storage layer's counters, for `SHOW WAL`
/// and metrics.
#[derive(Debug, Clone, Copy)]
pub struct StorageStats {
    /// Current generation.
    pub generation: u64,
    /// Records in the current WAL.
    pub wal_entries: u64,
    /// Current WAL file length in bytes (magic included).
    pub wal_bytes: u64,
    /// Appends since open, across checkpoints.
    pub wal_appends: u64,
    /// Fsyncs those appends issued (group commit makes this ≤ appends).
    pub wal_fsyncs: u64,
    /// Checkpoints taken since open.
    pub checkpoints: u64,
}

/// The storage orchestrator: one open data directory, one current
/// generation, one appendable WAL.
#[derive(Debug)]
pub struct Storage {
    dir: PathBuf,
    config: StorageConfig,
    generation: u64,
    wal: wal::Wal,
    appends: u64,
    fsyncs: u64,
    checkpoints: u64,
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

fn snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation}.iqsnap"))
}

/// Parses `<stem>-<gen>.<ext>` file names back to generation numbers.
fn parse_generation(name: &str, stem: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(stem)?
        .strip_prefix('-')?
        .strip_suffix(ext)?
        .strip_suffix('.')?
        .parse()
        .ok()
}

impl Storage {
    /// Opens (or initializes) the data directory and performs recovery.
    ///
    /// Recovery protocol: load the highest-generation snapshot that
    /// validates (skipping damaged ones), replay the WAL of the same
    /// generation tolerantly, and delete every file belonging to another
    /// generation — leftovers of an interrupted checkpoint. With no
    /// valid snapshot, recovery starts from the lowest surviving WAL
    /// (normally `wal-0.log`).
    pub fn open(dir: &Path, config: StorageConfig) -> Result<(Storage, Recovery), StorageError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::io(format!("create data dir `{}`", dir.display()), e))?;
        let mut snap_gens: Vec<u64> = Vec::new();
        let mut wal_gens: Vec<u64> = Vec::new();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| StorageError::io(format!("scan data dir `{}`", dir.display()), e))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| StorageError::io(format!("scan `{}`", dir.display()), e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(g) = parse_generation(name, "snap", "iqsnap") {
                snap_gens.push(g);
            } else if let Some(g) = parse_generation(name, "wal", "log") {
                wal_gens.push(g);
            }
        }
        snap_gens.sort_unstable_by(|a, b| b.cmp(a));
        wal_gens.sort_unstable();

        // Pick the newest snapshot that validates; fall back past damage.
        let mut chosen: Option<(u64, Vec<String>)> = None;
        for &g in &snap_gens {
            match snapshot::load_snapshot(&snap_path(dir, g)) {
                Ok(stmts) => {
                    chosen = Some((g, stmts));
                    break;
                }
                Err(_) => continue,
            }
        }
        let (generation, snapshot_statements) = match chosen {
            Some((g, stmts)) => (g, stmts),
            // No usable snapshot: resume the oldest WAL (it holds the
            // longest history), which is gen 0 unless 0 was checkpointed
            // away — then the snapshot that replaced it must have been
            // valid, so this branch means "fresh directory" in practice.
            None => (wal_gens.first().copied().unwrap_or(0), Vec::new()),
        };

        let (wal, replay) = wal::Wal::open(&wal_path(dir, generation), config.fsync)?;

        // Remove files from other generations (interrupted-checkpoint
        // leftovers) and stray snapshot tmps. Best-effort.
        for &g in &snap_gens {
            if g != generation {
                let _ = std::fs::remove_file(snap_path(dir, g));
            }
        }
        for &g in &wal_gens {
            if g != generation {
                let _ = std::fs::remove_file(wal_path(dir, g));
            }
        }
        for g in [generation, generation + 1] {
            let _ = std::fs::remove_file(snap_path(dir, g).with_extension("tmp"));
        }

        let wal_len_on_disk = std::fs::metadata(wal.path())
            .map(|m| m.len())
            .unwrap_or(replay.valid_len);
        let truncated_bytes = wal_len_on_disk.saturating_sub(replay.valid_len);
        let mut statements = snapshot_statements;
        let snapshot_count = statements.len();
        let wal_count = replay.entries.len();
        statements.extend(replay.entries);

        let storage = Storage {
            dir: dir.to_path_buf(),
            config,
            generation,
            wal,
            appends: 0,
            fsyncs: 0,
            checkpoints: 0,
        };
        let recovery = Recovery {
            statements,
            snapshot_statements: snapshot_count,
            wal_statements: wal_count,
            // `Wal::open` already truncated the file; report what it cut.
            truncated_bytes,
            damage: replay.damage.map(|d| d.to_string()),
            generation,
        };
        Ok((storage, recovery))
    }

    /// Appends one committed statement to the WAL (group-commit fsync per
    /// the configured mode). Returns whether this append fsynced.
    pub fn append(&mut self, statement: &str) -> Result<bool, StorageError> {
        let synced = self.wal.append(statement)?;
        self.appends += 1;
        self.fsyncs += u64::from(synced);
        Ok(synced)
    }

    /// Whether the WAL has outgrown the auto-checkpoint threshold.
    pub fn should_checkpoint(&self) -> bool {
        match self.config.checkpoint_bytes {
            Some(limit) => self.wal.bytes.saturating_sub(wal::MAGIC.len() as u64) >= limit,
            None => false,
        }
    }

    /// Takes a checkpoint: writes `statements` (the full current table
    /// state, as SQL) to the next generation's snapshot, rotates to a
    /// fresh WAL, and deletes the previous generation.
    ///
    /// Crash windows: before the snapshot rename lands, recovery still
    /// sees the old pair (the `.tmp` is ignored and cleaned). After the
    /// rename but before old files are deleted, recovery prefers the new
    /// snapshot (highest valid generation) and deletes the stragglers —
    /// the old WAL is never replayed on top of the new snapshot, which
    /// would double-apply writes.
    pub fn checkpoint(&mut self, statements: &[String]) -> Result<CheckpointInfo, StorageError> {
        let next = self.generation + 1;
        snapshot::write_snapshot(&snap_path(&self.dir, next), statements)?;
        let new_wal = wal::Wal::create(&wal_path(&self.dir, next), self.config.fsync)?;
        snapshot::sync_dir(&self.dir)?;
        let truncated = self.wal.entries;
        let old_gen = self.generation;
        self.wal = new_wal; // drops (and flushes) the old handle
        self.generation = next;
        self.checkpoints += 1;
        let _ = std::fs::remove_file(wal_path(&self.dir, old_gen));
        let _ = std::fs::remove_file(snap_path(&self.dir, old_gen));
        let _ = snapshot::sync_dir(&self.dir);
        Ok(CheckpointInfo {
            generation: next,
            wal_records_truncated: truncated,
            snapshot_statements: statements.len(),
        })
    }

    /// Forces an fsync of the WAL regardless of mode.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.wal.sync()
    }

    /// Current counters.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            generation: self.generation,
            wal_entries: self.wal.entries,
            wal_bytes: self.wal.bytes,
            wal_appends: self.appends,
            wal_fsyncs: self.fsyncs,
            checkpoints: self.checkpoints,
        }
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured fsync mode.
    pub fn fsync_mode(&self) -> FsyncMode {
        self.config.fsync
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iq_storage_unit_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fsync_mode_parses() {
        assert_eq!("always".parse::<FsyncMode>().unwrap(), FsyncMode::Always);
        assert_eq!("never".parse::<FsyncMode>().unwrap(), FsyncMode::Never);
        assert_eq!(
            "batch:64".parse::<FsyncMode>().unwrap(),
            FsyncMode::Batch {
                every: 64,
                interval: Duration::from_secs(3600)
            }
        );
        assert_eq!(
            "batch:10ms".parse::<FsyncMode>().unwrap(),
            FsyncMode::Batch {
                every: u64::MAX,
                interval: Duration::from_millis(10)
            }
        );
        // Degenerate batches collapse to `always`.
        assert_eq!("batch:1".parse::<FsyncMode>().unwrap(), FsyncMode::Always);
        assert_eq!("batch:0ms".parse::<FsyncMode>().unwrap(), FsyncMode::Always);
        assert!("sometimes".parse::<FsyncMode>().is_err());
        assert!("batch:x".parse::<FsyncMode>().is_err());
        assert_eq!("batch:64".parse::<FsyncMode>().unwrap().name(), "batch:64");
        assert_eq!(
            "batch:10ms".parse::<FsyncMode>().unwrap().name(),
            "batch:10ms"
        );
    }

    #[test]
    fn open_append_reopen() {
        let dir = tmp_dir("reopen");
        let cfg = StorageConfig::default();
        {
            let (mut st, rec) = Storage::open(&dir, cfg.clone()).unwrap();
            assert!(rec.statements.is_empty());
            assert_eq!(rec.generation, 0);
            st.append("CREATE TABLE t (a INT)").unwrap();
            st.append("INSERT INTO t VALUES (1)").unwrap();
        }
        let (st, rec) = Storage::open(&dir, cfg).unwrap();
        assert_eq!(
            rec.statements,
            vec!["CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)"]
        );
        assert_eq!(rec.wal_statements, 2);
        assert_eq!(rec.snapshot_statements, 0);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(st.stats().wal_entries, 2);
    }

    #[test]
    fn checkpoint_rotates_and_recovers() {
        let dir = tmp_dir("ckpt");
        let cfg = StorageConfig::default();
        {
            let (mut st, _) = Storage::open(&dir, cfg.clone()).unwrap();
            st.append("CREATE TABLE t (a INT)").unwrap();
            st.append("INSERT INTO t VALUES (1)").unwrap();
            let info = st
                .checkpoint(&[
                    "CREATE TABLE t (a INT)".to_string(),
                    "INSERT INTO t VALUES (1)".to_string(),
                ])
                .unwrap();
            assert_eq!(info.generation, 1);
            assert_eq!(info.wal_records_truncated, 2);
            // Post-checkpoint writes land in the new WAL.
            st.append("INSERT INTO t VALUES (2)").unwrap();
            assert!(!wal_path(&dir, 0).exists());
            assert!(snap_path(&dir, 1).exists());
        }
        let (st, rec) = Storage::open(&dir, cfg).unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.snapshot_statements, 2);
        assert_eq!(rec.wal_statements, 1);
        assert_eq!(
            rec.statements,
            vec![
                "CREATE TABLE t (a INT)",
                "INSERT INTO t VALUES (1)",
                "INSERT INTO t VALUES (2)"
            ]
        );
        assert_eq!(st.stats().generation, 1);
    }

    #[test]
    fn damaged_snapshot_falls_back() {
        let dir = tmp_dir("fallback");
        let cfg = StorageConfig::default();
        {
            let (mut st, _) = Storage::open(&dir, cfg.clone()).unwrap();
            st.append("CREATE TABLE t (a INT)").unwrap();
            st.checkpoint(&["CREATE TABLE t (a INT)".to_string()])
                .unwrap();
        }
        // Corrupt the generation-1 snapshot.
        let snap = snap_path(&dir, 1);
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        // Gen-0 files are gone (deleted at checkpoint), so recovery has
        // nothing older: it starts a fresh gen-1 WAL with no snapshot...
        // but the damaged snapshot must not be *trusted*.
        let (_st, rec) = Storage::open(&dir, cfg).unwrap();
        assert_eq!(rec.snapshot_statements, 0, "damaged snapshot not loaded");
    }

    #[test]
    fn interrupted_checkpoint_leftovers_are_cleaned() {
        let dir = tmp_dir("leftovers");
        let cfg = StorageConfig::default();
        {
            let (mut st, _) = Storage::open(&dir, cfg.clone()).unwrap();
            st.append("CREATE TABLE t (a INT)").unwrap();
            st.checkpoint(&["CREATE TABLE t (a INT)".to_string()])
                .unwrap();
            st.append("INSERT INTO t VALUES (9)").unwrap();
        }
        // Simulate a crash mid-checkpoint: a stale tmp and a stray old wal.
        std::fs::write(snap_path(&dir, 2).with_extension("tmp"), b"junk").unwrap();
        std::fs::write(wal_path(&dir, 0), wal::MAGIC).unwrap();
        let (_st, rec) = Storage::open(&dir, cfg).unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(
            rec.statements,
            vec!["CREATE TABLE t (a INT)", "INSERT INTO t VALUES (9)"]
        );
        assert!(!wal_path(&dir, 0).exists(), "stray old wal removed");
        assert!(
            !snap_path(&dir, 2).with_extension("tmp").exists(),
            "stale tmp removed"
        );
    }

    #[test]
    fn should_checkpoint_tracks_threshold() {
        let dir = tmp_dir("threshold");
        let cfg = StorageConfig {
            fsync: FsyncMode::Never,
            checkpoint_bytes: Some(64),
        };
        let (mut st, _) = Storage::open(&dir, cfg).unwrap();
        assert!(!st.should_checkpoint());
        st.append("INSERT INTO t VALUES (1234567890)").unwrap();
        assert!(!st.should_checkpoint());
        st.append("INSERT INTO t VALUES (1234567890)").unwrap();
        assert!(st.should_checkpoint());
        st.checkpoint(&[]).unwrap();
        assert!(!st.should_checkpoint(), "rotation resets the meter");
    }
}
