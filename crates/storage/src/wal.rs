//! The append-only write-ahead log: length-prefixed, CRC-checksummed
//! records, one per committed write statement, in commit order.
//!
//! File layout:
//!
//! ```text
//! [8-byte magic "IQWAL01\n"] [record]*
//! record := [payload_len: u32 LE] [crc32(payload): u32 LE] [payload bytes]
//! ```
//!
//! The payload is the committed SQL statement, UTF-8. Appends are
//! buffered only by the OS — every record is `write_all`'d whole — and
//! made durable per the configured [`FsyncMode`]: `always` syncs each
//! append (group-commit durability per statement), `batch` syncs when
//! either a record count or an elapsed-time threshold is crossed, `never`
//! leaves durability to the OS (crash may lose the unsynced tail; what
//! survives is still a valid prefix).
//!
//! **Torn-write policy.** A crash can leave a partial record at the tail:
//! a truncated length prefix, a truncated CRC/payload, or a payload whose
//! CRC does not match (torn sector). Replay stops at the first invalid
//! boundary and reports its byte offset; recovery truncates the file
//! there and appends after it. Everything before that boundary is intact
//! by CRC, so the surviving log is always a *prefix* of commit order —
//! never a subsequence with holes.

// panic-in-hot-path (DESIGN.md §13): a request must not panic the
// serving or WAL code; each remaining site carries an `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::crc32::crc32;
use crate::{FsyncMode, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The 8-byte file magic.
pub const MAGIC: &[u8; 8] = b"IQWAL01\n";

/// Per-record framing overhead: 4-byte length + 4-byte CRC.
pub const RECORD_HEADER: usize = 8;

/// Records larger than this are treated as corruption, not allocated —
/// a torn length prefix can otherwise read as a multi-gigabyte "record".
pub const MAX_RECORD: usize = 1 << 28;

/// Appends one framed record to `out`.
pub fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why decoding stopped before the end of the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Damage {
    /// Fewer than 8 header bytes remain — a torn length/CRC prefix.
    TruncatedHeader {
        /// Header bytes actually present.
        have: usize,
    },
    /// The length prefix promises more payload bytes than the file holds.
    TruncatedPayload {
        /// Bytes the length prefix promised.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The payload is fully present but its CRC does not match.
    ChecksumMismatch {
        /// CRC stored in the record header.
        stored: u32,
        /// CRC computed over the payload bytes.
        computed: u32,
    },
    /// The length prefix exceeds [`MAX_RECORD`] — treated as corruption.
    OversizedLength {
        /// The claimed payload length.
        len: usize,
    },
    /// The payload is not valid UTF-8 (statements are always UTF-8).
    InvalidUtf8,
}

impl std::fmt::Display for Damage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Damage::TruncatedHeader { have } => {
                write!(
                    f,
                    "truncated record header ({have} of {RECORD_HEADER} bytes)"
                )
            }
            Damage::TruncatedPayload { need, have } => {
                write!(f, "truncated payload ({have} of {need} bytes)")
            }
            Damage::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            Damage::OversizedLength { len } => {
                write!(f, "implausible record length {len} (cap {MAX_RECORD})")
            }
            Damage::InvalidUtf8 => write!(f, "payload is not valid UTF-8"),
        }
    }
}

/// The outcome of decoding one record at `offset`.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A valid record; `next` is the offset just past it.
    Record {
        /// The record payload.
        payload: &'a [u8],
        /// Offset of the next record.
        next: usize,
    },
    /// `offset` is exactly the end of the buffer — a clean end of log.
    End,
    /// The bytes at `offset` are not a valid record.
    Damaged(Damage),
}

/// Decodes the record starting at `offset` in `buf`.
pub fn decode_record(buf: &[u8], offset: usize) -> Decoded<'_> {
    let rest = &buf[offset.min(buf.len())..];
    if rest.is_empty() {
        return Decoded::End;
    }
    if rest.len() < RECORD_HEADER {
        return Decoded::Damaged(Damage::TruncatedHeader { have: rest.len() });
    }
    #[expect(
        clippy::unwrap_used,
        reason = "a slice of the checked `RECORD_HEADER` bytes is 4 bytes long"
    )]
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    if len > MAX_RECORD {
        return Decoded::Damaged(Damage::OversizedLength { len });
    }
    #[expect(
        clippy::unwrap_used,
        reason = "a slice of the checked `RECORD_HEADER` bytes is 4 bytes long"
    )]
    let stored = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let body = &rest[RECORD_HEADER..];
    if body.len() < len {
        return Decoded::Damaged(Damage::TruncatedPayload {
            need: len,
            have: body.len(),
        });
    }
    let payload = &body[..len];
    let computed = crc32(payload);
    if computed != stored {
        return Decoded::Damaged(Damage::ChecksumMismatch { stored, computed });
    }
    Decoded::Record {
        payload,
        next: offset + RECORD_HEADER + len,
    }
}

/// Damage found during replay, pinned to the byte offset where the first
/// invalid record starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayDamage {
    /// Byte offset (from the start of the file) of the invalid record.
    pub offset: u64,
    /// What is wrong there.
    pub damage: Damage,
}

impl std::fmt::Display for ReplayDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.damage, self.offset)
    }
}

/// The result of replaying a WAL file tolerantly.
#[derive(Debug)]
pub struct WalReplay {
    /// Decoded statements, in commit order — the longest valid prefix.
    pub entries: Vec<String>,
    /// Byte length of that prefix (including the magic); the recovery
    /// truncation point.
    pub valid_len: u64,
    /// The damage that ended replay, if the file did not end cleanly.
    pub damage: Option<ReplayDamage>,
}

/// Replays `path` tolerantly: decodes records until the first invalid
/// boundary, reporting (not failing on) a torn tail. A file shorter than
/// the magic is treated as a torn creation (empty log, `valid_len` 0); a
/// full-length magic that does not match is a hard error — the file is
/// not ours to truncate.
pub fn replay_file(path: &Path) -> Result<WalReplay, StorageError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| StorageError::io(format!("read wal `{}`", path.display()), e))?;
    if bytes.len() < MAGIC.len() {
        return Ok(WalReplay {
            entries: Vec::new(),
            valid_len: 0,
            damage: (!bytes.is_empty()).then_some(ReplayDamage {
                offset: 0,
                damage: Damage::TruncatedHeader { have: bytes.len() },
            }),
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(StorageError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let mut entries = Vec::new();
    let mut offset = MAGIC.len();
    loop {
        match decode_record(&bytes, offset) {
            Decoded::End => {
                return Ok(WalReplay {
                    entries,
                    valid_len: offset as u64,
                    damage: None,
                })
            }
            Decoded::Record { payload, next } => match std::str::from_utf8(payload) {
                Ok(s) => {
                    entries.push(s.to_string());
                    offset = next;
                }
                Err(_) => {
                    return Ok(WalReplay {
                        entries,
                        valid_len: offset as u64,
                        damage: Some(ReplayDamage {
                            offset: offset as u64,
                            damage: Damage::InvalidUtf8,
                        }),
                    })
                }
            },
            Decoded::Damaged(damage) => {
                return Ok(WalReplay {
                    entries,
                    valid_len: offset as u64,
                    damage: Some(ReplayDamage {
                        offset: offset as u64,
                        damage,
                    }),
                })
            }
        }
    }
}

/// An open, appendable WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    mode: FsyncMode,
    /// Current file length in bytes (magic included).
    pub bytes: u64,
    /// Records currently in the file.
    pub entries: u64,
    /// `fsync` calls issued.
    pub syncs: u64,
    pending: u64,
    last_sync: Instant,
}

impl Wal {
    /// Creates a fresh, empty WAL at `path` (truncating any existing
    /// file), writes and syncs the magic.
    #[expect(
        clippy::disallowed_methods,
        reason = "fsync batch deadline is I/O pacing, never data"
    )]
    pub fn create(path: &Path, mode: FsyncMode) -> Result<Wal, StorageError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("create wal `{}`", path.display()), e))?;
        file.write_all(MAGIC)
            .and_then(|()| file.sync_data())
            .map_err(|e| StorageError::io(format!("init wal `{}`", path.display()), e))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            mode,
            bytes: MAGIC.len() as u64,
            entries: 0,
            syncs: 1,
            pending: 0,
            last_sync: Instant::now(),
        })
    }

    /// Opens `path` for appending, replaying it tolerantly first. A torn
    /// tail is truncated at the last valid record boundary (per the
    /// torn-write policy); a missing or torn-before-magic file is
    /// (re)initialized empty. Returns the open log and the replay.
    #[expect(
        clippy::disallowed_methods,
        reason = "fsync batch deadline is I/O pacing, never data"
    )]
    pub fn open(path: &Path, mode: FsyncMode) -> Result<(Wal, WalReplay), StorageError> {
        if !path.exists() {
            let wal = Wal::create(path, mode)?;
            return Ok((
                wal,
                WalReplay {
                    entries: Vec::new(),
                    valid_len: MAGIC.len() as u64,
                    damage: None,
                },
            ));
        }
        let replay = replay_file(path)?;
        if replay.valid_len < MAGIC.len() as u64 {
            // Torn during creation: nothing valid, start over.
            let wal = Wal::create(path, mode)?;
            return Ok((wal, replay));
        }
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("open wal `{}`", path.display()), e))?;
        file.set_len(replay.valid_len)
            .and_then(|()| file.seek(SeekFrom::End(0)))
            .and_then(|_| file.sync_data())
            .map_err(|e| StorageError::io(format!("truncate wal `{}`", path.display()), e))?;
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            mode,
            bytes: replay.valid_len,
            entries: replay.entries.len() as u64,
            syncs: 1,
            pending: 0,
            last_sync: Instant::now(),
        };
        Ok((wal, replay))
    }

    /// Appends one statement, then applies the fsync discipline. Returns
    /// whether this append issued an fsync (group-commit accounting).
    pub fn append(&mut self, statement: &str) -> Result<bool, StorageError> {
        let mut buf = Vec::with_capacity(RECORD_HEADER + statement.len());
        encode_record(statement.as_bytes(), &mut buf);
        // Record-boundary witness: the bytes about to hit disk must decode
        // back to exactly this payload with the cursor landing on the
        // buffer end, or recovery would misparse every later record.
        #[cfg(feature = "debug-invariants")]
        match decode_record(&buf, 0) {
            Decoded::Record { payload, next }
                if payload == statement.as_bytes() && next == buf.len() => {}
            #[expect(
                clippy::panic,
                reason = "the debug-invariants sanitizer is opt-in and must abort on corruption"
            )]
            other => {
                panic!("debug-invariants: encoded WAL record fails round-trip decode: {other:?}")
            }
        }
        self.file
            .write_all(&buf)
            .map_err(|e| StorageError::io(format!("append wal `{}`", self.path.display()), e))?;
        self.bytes += buf.len() as u64;
        self.entries += 1;
        self.pending += 1;
        let should_sync = match self.mode {
            FsyncMode::Always => true,
            FsyncMode::Never => false,
            FsyncMode::Batch { every, interval } => {
                self.pending >= every || self.last_sync.elapsed() >= interval
            }
        };
        if should_sync {
            self.sync()?;
        }
        Ok(should_sync)
    }

    /// Forces an fsync of everything appended so far.
    #[expect(
        clippy::disallowed_methods,
        reason = "fsync batch deadline is I/O pacing, never data"
    )]
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::io(format!("sync wal `{}`", self.path.display()), e))?;
        self.pending = 0;
        self.syncs += 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Wal {
    /// Best-effort flush of a batched tail on clean shutdown; crash
    /// durability is the fsync discipline's business, not Drop's.
    fn drop(&mut self) {
        if self.pending > 0 {
            let _ = self.file.sync_data();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iq_wal_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("round_trip.log");
        let stmts = [
            "CREATE TABLE t (a INT)",
            "INSERT INTO t VALUES (1)",
            "DELETE FROM t",
        ];
        {
            let mut wal = Wal::create(&path, FsyncMode::Always).unwrap();
            for s in &stmts {
                wal.append(s).unwrap();
            }
            assert_eq!(wal.entries, 3);
            assert_eq!(wal.syncs, 4, "magic + one per append");
        }
        let replay = replay_file(&path).unwrap();
        assert_eq!(replay.entries, stmts);
        assert!(replay.damage.is_none());
        assert_eq!(replay.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn.log");
        {
            let mut wal = Wal::create(&path, FsyncMode::Never).unwrap();
            wal.append("INSERT INTO t VALUES (1)").unwrap();
            wal.append("INSERT INTO t VALUES (2)").unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        // Chop 3 bytes off the final record's payload.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);

        let (wal, replay) = Wal::open(&path, FsyncMode::Always).unwrap();
        assert_eq!(replay.entries, vec!["INSERT INTO t VALUES (1)"]);
        let damage = replay.damage.expect("torn tail reported");
        assert!(matches!(damage.damage, Damage::TruncatedPayload { .. }));
        assert_eq!(damage.offset, replay.valid_len, "damage starts at the cut");
        assert_eq!(wal.bytes, replay.valid_len);
        drop(wal);
        // After the truncating open, the file replays cleanly.
        let again = replay_file(&path).unwrap();
        assert!(again.damage.is_none());
        assert_eq!(again.entries.len(), 1);
    }

    #[test]
    fn batch_mode_groups_syncs() {
        let path = tmp("batch.log");
        let mut wal = Wal::create(
            &path,
            FsyncMode::Batch {
                every: 4,
                interval: std::time::Duration::from_secs(3600),
            },
        )
        .unwrap();
        let mut synced = 0;
        for i in 0..8 {
            if wal.append(&format!("INSERT INTO t VALUES ({i})")).unwrap() {
                synced += 1;
            }
        }
        assert_eq!(synced, 2, "4-record groups");
        assert_eq!(wal.syncs, 3, "magic + two groups");
    }

    #[test]
    fn wrong_magic_is_a_hard_error() {
        let path = tmp("not_a_wal.log");
        std::fs::write(&path, b"PLAINTXT-and-then-some").unwrap();
        assert!(matches!(
            replay_file(&path),
            Err(StorageError::BadMagic { .. })
        ));
    }

    #[test]
    fn short_file_is_a_torn_creation() {
        let path = tmp("short.log");
        std::fs::write(&path, &MAGIC[..3]).unwrap();
        let (wal, replay) = Wal::open(&path, FsyncMode::Always).unwrap();
        assert!(replay.entries.is_empty());
        assert!(replay.damage.is_some());
        assert_eq!(wal.entries, 0);
        drop(wal);
        assert_eq!(
            std::fs::read(&path).unwrap()[..8],
            MAGIC[..],
            "reinitialized"
        );
    }
}
