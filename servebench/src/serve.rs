//! The server under test and the benchmark's own wire client.

use crate::workload::Spec;
use iq_core::ExecPolicy;
use iq_server::{DurabilityConfig, Engine, FsyncMode, Metrics, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Auto-checkpoint threshold of the durable workload, in WAL payload
/// bytes: small enough to fire several times per run.
pub const CHECKPOINT_BYTES: u64 = 256 << 10;
/// Server worker threads.
pub const WORKERS: usize = 1;
/// How long the client waits for one response before counting it failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// An engine configured the way `spec` asks: in memory, or durable with
/// `FsyncMode::Always` under `data_dir`.
pub fn engine(spec: &Spec, data_dir: &Path) -> Result<Engine, String> {
    let metrics = Arc::new(Metrics::new());
    if !spec.durable {
        return Ok(Engine::new(metrics, ExecPolicy::sequential()));
    }
    durable_engine(data_dir).map(|(e, _)| e)
}

/// A durable engine on `data_dir` (created, or recovered if it exists),
/// and how long opening took, recovery included.
pub fn durable_engine(data_dir: &Path) -> Result<(Engine, Duration), String> {
    let started = std::time::Instant::now();
    let (engine, _) = Engine::with_storage(
        Arc::new(Metrics::new()),
        ExecPolicy::sequential(),
        DurabilityConfig {
            data_dir: data_dir.to_path_buf(),
            fsync: FsyncMode::Always,
            checkpoint_bytes: Some(CHECKPOINT_BYTES),
        },
    )
    .map_err(|e| format!("opening data dir {}: {e}", data_dir.display()))?;
    Ok((engine, started.elapsed()))
}

/// A running `iq-server` on an ephemeral loopback port.
pub struct Server {
    handle: ServerHandle,
}

impl Server {
    pub fn start(engine: Engine) -> Result<Server, String> {
        let handle = iq_server::start(
            Arc::new(engine),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: WORKERS,
                queue_capacity: 64,
                default_deadline: None,
            },
        )
        .map_err(|e| format!("starting server: {e}"))?;
        Ok(Server { handle })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn engine(&self) -> &Engine {
        self.handle.engine()
    }

    /// Drains and joins every server thread.
    pub fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// One blocking connection with a per-request read timeout, so a hung
/// server becomes a counted failure instead of a stuck run.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Client {
            writer: stream,
            reader: BufReader::new(reader),
            line: Vec::new(),
        })
    }

    /// Sends one statement and waits for its response line. An `Err` is
    /// an I/O failure or a timeout; the connection is unusable after it.
    pub fn request(&mut self, sql: &str) -> std::io::Result<String> {
        self.line.clear();
        self.line.extend_from_slice(sql.as_bytes());
        self.line.push(b'\n');
        self.writer.write_all(&self.line)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// [`Client::request`] where anything but an `ok` answer is an error.
    pub fn request_ok(&mut self, sql: &str) -> Result<String, String> {
        let response = self
            .request(sql)
            .map_err(|e| format!("`{}`: {e}", clip(sql)))?;
        if !iq_server::protocol::is_ok(&response) {
            return Err(format!("`{}` failed: {response}", clip(sql)));
        }
        Ok(response)
    }
}

/// A statement shortened for error messages.
pub fn clip(sql: &str) -> &str {
    &sql[..sql.len().min(80)]
}

/// A fresh directory under `.bench_tmp/` in the working directory,
/// removed (with `.bench_tmp/` itself, once empty) on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(label: &str) -> Result<TempDir, String> {
        let path = Path::new(".bench_tmp").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    /// A fresh, not yet existing subdirectory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
