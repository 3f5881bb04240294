//! The connection/worker machinery: accept loop, per-connection readers,
//! bounded admission queue, worker pool, and graceful drain.
//!
//! Threading layout (all `std::thread`, no runtime):
//!
//! ```text
//! accept thread ──spawns──▶ one reader thread per connection
//!                               │ admission (bounded, rejects when full)
//!                               ▼
//!                        AdmissionQueue (Mutex<VecDeque> + Condvar)
//!                               │
//!                     worker 0 … worker N-1  ──▶ Engine (RwLock snapshots)
//! ```
//!
//! A connection is strictly request/response: its reader enqueues one
//! request, waits for the worker's response line, writes it, then reads
//! the next line — so responses can never reorder within a connection,
//! while the worker pool bounds *global* concurrency. Backpressure is
//! immediate: a full queue rejects at admission with a `rejected` line
//! rather than buffering unboundedly.
//!
//! Shutdown (`SHUTDOWN` statement, or [`ServerHandle::shutdown`]) drains:
//! the acceptor stops, queued requests finish, readers close after their
//! in-flight response, workers exit when the queue runs dry. `std` cannot
//! catch SIGTERM without extra dependencies, so the statement and the
//! programmatic handle are the two shutdown paths (see DESIGN.md §11).

use crate::engine::Engine;
use crate::metrics::{Metrics, StatementKind};
use crate::protocol;
use iq_dbms::{DbError, Statement};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The wall clock.
#[expect(
    clippy::disallowed_methods,
    reason = "this crate times requests, so it reads the clock, but only here"
)]
fn now() -> Instant {
    Instant::now()
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing statements.
    pub workers: usize,
    /// Admission-queue capacity; a full queue rejects new requests.
    pub queue_capacity: usize,
    /// Deadline applied to requests without an `@<ms>` prefix.
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            default_deadline: None,
        }
    }
}

/// One admitted request, parsed once by its connection. A parse error
/// still goes through the queue, so a worker answers it under the same
/// deadline, backpressure and metrics as any other request.
struct Request {
    stmt: Result<Statement, DbError>,
    /// The text `stmt` was parsed from; a committed write appends it to
    /// the WAL.
    sql: String,
    deadline: Option<Instant>,
    reply: mpsc::Sender<String>,
}

/// The bounded admission queue. `try_push` never blocks — backpressure is
/// an immediate rejection, keeping slow clients from wedging readers.
struct AdmissionQueue {
    inner: Mutex<(VecDeque<Request>, bool)>, // (queue, closed)
    cv: Condvar,
    capacity: usize,
    metrics: Arc<Metrics>,
}

impl AdmissionQueue {
    fn new(capacity: usize, metrics: Arc<Metrics>) -> Self {
        AdmissionQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            metrics,
        }
    }

    /// Admits a request; false (dropping it) when the queue is full or
    /// closed.
    fn try_push(&self, req: Request) -> bool {
        let mut guard = self.inner.lock().unwrap();
        let (queue, closed) = &mut *guard;
        if *closed || queue.len() >= self.capacity {
            return false;
        }
        queue.push_back(req);
        self.metrics.set_queue_depth(queue.len() as u64);
        self.cv.notify_one();
        true
    }

    /// Blocks for the next request; `None` once closed *and* drained —
    /// the worker-exit condition, which is what makes shutdown a drain.
    fn pop(&self) -> Option<Request> {
        let mut guard = self.inner.lock().unwrap();
        loop {
            let (queue, closed) = &mut *guard;
            if let Some(req) = queue.pop_front() {
                self.metrics.set_queue_depth(queue.len() as u64);
                return Some(req);
            }
            if *closed {
                return None;
            }
            guard = self.cv.wait(guard).unwrap();
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or send `SHUTDOWN` over a connection) and
/// then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<AdmissionQueue>,
    threads: Vec<JoinHandle<()>>,
    engine: Arc<Engine>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine (metrics access, post-shutdown inspection).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Requests a drain-and-stop. Idempotent; returns immediately.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the acceptor, all connections, and all workers to finish.
    /// Call [`ServerHandle::shutdown`] first (or have a client send
    /// `SHUTDOWN`), otherwise this blocks for the server's lifetime.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Binds and starts the server.
pub fn start(engine: Arc<Engine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::clone(engine.metrics());
    let queue = Arc::new(AdmissionQueue::new(
        config.queue_capacity,
        Arc::clone(&metrics),
    ));
    let mut threads = Vec::new();

    // Workers: drain the queue until it is closed and empty.
    for _ in 0..config.workers.max(1) {
        let queue = Arc::clone(&queue);
        let engine = Arc::clone(&engine);
        let metrics = Arc::clone(&metrics);
        threads.push(std::thread::spawn(move || {
            while let Some(req) = queue.pop() {
                if req.deadline.is_some_and(|d| now() > d) {
                    metrics.timed_out.fetch_add(1, Ordering::Relaxed);
                    let _ = req.reply.send(protocol::timed_out_response());
                    continue;
                }
                let kind = req
                    .stmt
                    .as_ref()
                    .map_or(StatementKind::Invalid, StatementKind::of);
                let started = now();
                let result = req.stmt.and_then(|stmt| engine.execute(stmt, &req.sql));
                let response = protocol::response_line(result);
                let micros = started.elapsed().as_micros() as u64;
                metrics.record(kind, protocol::is_ok(&response), micros);
                let _ = req.reply.send(response);
            }
        }));
    }

    // Acceptor: nonblocking poll so it can observe the shutdown flag; each
    // connection gets its own reader thread, tracked for the final join.
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let shutdown = Arc::clone(&shutdown);
        let queue = Arc::clone(&queue);
        let metrics = Arc::clone(&metrics);
        let conn_threads = Arc::clone(&conn_threads);
        let default_deadline = config.default_deadline;
        threads.push(std::thread::spawn(move || {
            loop {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        metrics.connections.fetch_add(1, Ordering::Relaxed);
                        let shutdown = Arc::clone(&shutdown);
                        let queue = Arc::clone(&queue);
                        let handle = std::thread::spawn(move || {
                            serve_connection(stream, &queue, &shutdown, default_deadline);
                        });
                        conn_threads.lock().unwrap().push(handle);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            // Drain: wait for every connection to finish its in-flight
            // work, then close the queue so workers exit.
            let handles = std::mem::take(&mut *conn_threads.lock().unwrap());
            for h in handles {
                let _ = h.join();
            }
            queue.close();
        }));
    }

    Ok(ServerHandle {
        addr,
        shutdown,
        queue,
        threads,
        engine,
    })
}

/// One connection's request/response loop.
fn serve_connection(
    stream: TcpStream,
    queue: &AdmissionQueue,
    shutdown: &AtomicBool,
    default_deadline: Option<Duration>,
) {
    // One-line responses must not sit in Nagle's buffer waiting for a
    // delayed ACK (a silent ~40ms tax per request); short read timeouts
    // keep the reader responsive to shutdown even on an idle client.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream);

    loop {
        let line = match reader.read_line(shutdown) {
            Some(l) => l,
            None => return, // EOF, error, or shutdown while idle
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (deadline_ms, sql) = protocol::parse_request(line);
        let stmt = iq_dbms::parse(sql);

        // SHUTDOWN is the connection layer's statement: acknowledge, then
        // trip the flag. The acceptor notices, drains, and closing the
        // queue lets every worker exit.
        if matches!(stmt, Ok(Statement::Shutdown)) {
            // Flag first, ack second: a client that has the ack in hand
            // must observe the server as already shutting down.
            shutdown.store(true, Ordering::SeqCst);
            let _ = writeln!(writer, "{}", protocol::shutdown_response());
            return;
        }

        let deadline = deadline_ms.or(default_deadline).map(|d| now() + d);
        let (tx, rx) = mpsc::channel();
        let req = Request {
            stmt,
            sql: sql.to_string(),
            deadline,
            reply: tx,
        };
        let response = if queue.try_push(req) {
            match rx.recv() {
                Ok(r) => r,
                Err(_) => return, // workers gone (shutdown raced us)
            }
        } else {
            queue.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            protocol::rejected_response()
        };
        if writeln!(writer, "{response}").is_err() {
            return;
        }
        if shutdown.load(Ordering::SeqCst) {
            return; // in-flight request answered; now drain this reader
        }
    }
}

/// A byte-accumulating line reader that tolerates read timeouts:
/// `BufReader::read_line` can hand back partial lines on timeout, so this
/// keeps its own buffer and only yields complete `\n`-terminated lines.
struct LineReader<R> {
    stream: R,
    buf: Vec<u8>,
    /// How many leading bytes of `buf` are known to hold no `\n`, so each
    /// read searches only the bytes it appended.
    scanned: usize,
}

impl<R: Read> LineReader<R> {
    fn new(stream: R) -> Self {
        LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    /// The next complete line, or `None` on EOF/error — or on shutdown,
    /// but only while idle *between* lines (a half-read line still gets
    /// finished, so an in-flight request is never truncated).
    fn read_line(&mut self, shutdown: &AtomicBool) -> Option<String> {
        loop {
            if let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(self.scanned + at + 1);
                let line = std::mem::replace(&mut self.buf, rest);
                self.scanned = 0;
                return Some(
                    String::from_utf8(line)
                        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
                );
            }
            self.scanned = self.buf.len();
            if shutdown.load(Ordering::SeqCst) && self.buf.is_empty() {
                return None;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None, // EOF
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue; // timeout tick: re-check shutdown
                }
                Err(_) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_queue(cap: usize) -> AdmissionQueue {
        AdmissionQueue::new(cap, Arc::new(Metrics::new()))
    }

    fn mk_request() -> (Request, mpsc::Receiver<String>) {
        let (tx, rx) = mpsc::channel();
        (
            Request {
                stmt: iq_dbms::parse("SELECT 1"),
                sql: "SELECT 1".into(),
                deadline: None,
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn queue_bounds_and_rejects_when_full() {
        let q = mk_queue(2);
        let (r1, _rx1) = mk_request();
        let (r2, _rx2) = mk_request();
        let (r3, _rx3) = mk_request();
        assert!(q.try_push(r1));
        assert!(q.try_push(r2));
        assert!(!q.try_push(r3), "third must bounce");
        assert_eq!(q.metrics.queue_high_water.load(Ordering::Relaxed), 2);
        // Popping frees a slot.
        assert!(q.pop().is_some());
        let (r4, _rx4) = mk_request();
        assert!(q.try_push(r4));
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains_pops() {
        let q = mk_queue(4);
        let (r1, _rx1) = mk_request();
        assert!(q.try_push(r1));
        q.close();
        let (r2, _rx2) = mk_request();
        assert!(!q.try_push(r2), "closed rejects new work");
        assert!(q.pop().is_some(), "but queued work still drains");
        assert!(q.pop().is_none(), "then signals exhaustion");
    }

    #[test]
    fn pop_wakes_on_close_from_another_thread() {
        let q = Arc::new(mk_queue(1));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.pop().is_none());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(waiter.join().unwrap(), "blocked pop must observe close");
    }

    /// Hands out fixed chunks, one per `read`, then EOF; an empty chunk
    /// reads as a timeout tick.
    struct Chunks(VecDeque<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(c) if c.is_empty() => Err(ErrorKind::WouldBlock.into()),
                Some(c) => {
                    out[..c.len()].copy_from_slice(&c);
                    Ok(c.len())
                }
            }
        }
    }

    #[test]
    fn line_reader_joins_split_lines_and_splits_joined_ones() {
        let long = format!("INSERT INTO q VALUES {}", "(0.5, 1), ".repeat(300));
        let mut chunks: VecDeque<Vec<u8>> = long.as_bytes().chunks(7).map(<[u8]>::to_vec).collect();
        chunks.insert(3, Vec::new());
        chunks.push_back(b"\nSELECT 1\nSHOW ".to_vec());
        chunks.push_back(b"STATS\npartial".to_vec());
        let mut reader = LineReader::new(Chunks(chunks));
        let idle = AtomicBool::new(false);
        assert_eq!(reader.read_line(&idle), Some(format!("{long}\n")));
        assert_eq!(reader.read_line(&idle).as_deref(), Some("SELECT 1\n"));
        assert_eq!(reader.read_line(&idle).as_deref(), Some("SHOW STATS\n"));
        // EOF mid-line yields nothing.
        assert_eq!(reader.read_line(&idle), None);
    }
}
