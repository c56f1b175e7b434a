//! The TCP daemon: accept loop, per-connection threads, and the client
//! helper.
//!
//! Threading model (all `std`, no async runtime):
//!
//! * one **accept thread** owns the listener;
//! * each connection gets a **reader thread** (parses request lines,
//!   drives the scheduler) and a **writer thread** (drains an `mpsc`
//!   channel of [`Event`]s onto the socket) — the channel is the *only*
//!   path to the socket, so scheduler workers and the reader can both
//!   reply without interleaving bytes;
//! * both ends set `TCP_NODELAY` and hand the kernel whole lines: the
//!   writer renders every event already queued into one frame and issues
//!   one `write` for it, the client one `write` per request. A line split
//!   across two writes leaves its tail behind Nagle until the peer's
//!   delayed ACK (40 ms) — framing changes where writes end, never which
//!   bytes are sent or in what order;
//! * simulation work happens on the shared [`Scheduler`] pool, never on
//!   connection threads.
//!
//! Failure containment: a malformed request gets a structured `error`
//! event and the connection stays usable; a request line over 1 MiB gets
//! the same event and is then treated as a disconnect, so no peer can grow
//! the line buffer without bound; a client that disconnects
//! mid-stream has its jobs canceled ([`Scheduler::disconnect`]) so its
//! reservations free immediately; a write error just ends the writer (the
//! scheduler's sends then fail silently into a dropped channel); a
//! connection whose threads cannot be spawned (a peer opening connections
//! until thread creation fails) is logged and dropped. Nothing a client
//! does reaches a `panic!` in daemon code.
//!
//! Shutdown: the `shutdown` command (or [`Daemon::shutdown`]) flips a
//! flag, stops admission, pokes the accept loop awake via a loopback
//! connect, and lets everything drain — readers poll the flag on a short
//! read timeout, but keep their connection open until their own jobs have
//! delivered terminal events, so a drain never cuts a response stream.

use crate::serve::cache::ResultCache;
use crate::serve::protocol::{ErrorCode, Event, Request};
use crate::serve::scheduler::{JobId, Scheduler, SchedulerConfig};
use crate::sweep::{SweepGrid, SweepReport};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked readers poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// Longest request line a connection may send, newline included. A
/// default-grid submit is a few KB; a peer that streams bytes without a
/// newline is cut off here instead of growing the line buffer until the
/// process dies.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Daemon configuration for [`Daemon::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the bound address is
    /// reported by [`Daemon::addr`]).
    pub addr: String,
    /// Worker-pool and admission bounds.
    pub scheduler: SchedulerConfig,
    /// On-disk cache directory (`None` = in-memory only).
    pub cache_dir: Option<PathBuf>,
    /// Log lifecycle events to stderr.
    pub verbose: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig::default(),
            cache_dir: None,
            verbose: false,
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    scheduler: Arc<Scheduler>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    verbose: bool,
}

impl Shared {
    fn log(&self, msg: &str) {
        if self.verbose {
            eprintln!("[serve] {msg}");
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Idempotent: stop admission and poke the accept loop awake.
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.log("shutdown requested");
            self.scheduler.begin_shutdown();
            // Unblock the accept loop; it checks the flag per connection.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running daemon. Dropping it does *not* stop it — call
/// [`Daemon::shutdown`] and/or [`Daemon::wait`].
pub struct Daemon {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.addr())
            .finish()
    }
}

impl Daemon {
    /// Bind, open the cache, start the scheduler pool, and begin accepting.
    ///
    /// # Errors
    /// Returns the bind error, the cache-directory error (an unwritable
    /// cache dir refuses to start — satellite 2's contract — rather than
    /// failing jobs later), or the accept thread's spawn error.
    pub fn start(config: ServeConfig) -> std::io::Result<Daemon> {
        let cache = match &config.cache_dir {
            Some(dir) => Arc::new(ResultCache::open(dir)?),
            None => Arc::new(ResultCache::in_memory()),
        };
        let scheduler = Scheduler::start(config.scheduler.clone(), cache);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            scheduler,
            shutdown: AtomicBool::new(false),
            addr,
            verbose: config.verbose,
        });
        shared.log(&format!(
            "listening on {addr} ({} workers, cache: {})",
            shared.scheduler.threads(),
            config
                .cache_dir
                .as_ref()
                .map_or("memory".to_string(), |d| d.display().to_string()),
        ));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_connections = Arc::clone(&connections);
        let accept_handle = std::thread::Builder::new()
            .name("noc-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_connections))
            .inspect_err(|_| {
                // Nothing will ever reach the pool; don't leak its workers.
                shared.scheduler.begin_shutdown();
                shared.scheduler.join();
            })?;
        Ok(Daemon {
            shared,
            accept_handle: Some(accept_handle),
            connections,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The scheduler handle (stats, cache access).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.shared.scheduler
    }

    /// Begin a graceful shutdown: stop admission, drain, wake the accept
    /// loop. Idempotent; [`Daemon::wait`] joins everything.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Block until the daemon has fully stopped: accept loop done, every
    /// connection drained, worker pool joined. (Blocks until something —
    /// a `shutdown` command or [`Daemon::shutdown`] — triggers the stop.)
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut connections = self.connections.lock().expect("connection list poisoned");
            connections.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.scheduler.join();
        self.shared.log("stopped");
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.shutting_down() {
                    break; // the shutdown poke (or a late client) landed
                }
                shared.log(&format!("connection from {peer}"));
                let conn_shared = Arc::clone(shared);
                match std::thread::Builder::new()
                    .name("noc-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &conn_shared))
                {
                    Ok(handle) => connections
                        .lock()
                        .expect("connection list poisoned")
                        .push(handle),
                    // The closure (and the stream in it) is dropped: the
                    // peer sees a close, the daemon keeps accepting.
                    Err(e) => shared.log(&format!("dropping {peer}: spawn failed: {e}")),
                }
            }
            Err(e) => {
                if shared.shutting_down() {
                    break;
                }
                shared.log(&format!("accept error: {e}"));
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Reader side of one connection; owns the conn-scoped job-id map and
/// spawns/joins the paired writer thread.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let peer = stream
        .peer_addr()
        .map_or("<unknown>".to_string(), |a| a.to_string());
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<Event>();
    let writer = match std::thread::Builder::new()
        .name("noc-serve-writer".to_string())
        .spawn(move || write_frames(write_half, &rx))
    {
        Ok(writer) => writer,
        Err(e) => {
            shared.log(&format!("dropping {peer}: spawn failed: {e}"));
            return;
        }
    };

    // conn-scoped id (what the client sees) -> scheduler id.
    let mut jobs: HashMap<u64, JobId> = HashMap::new();
    let mut next_job: u64 = 0;
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    let mut disconnected = true;
    loop {
        // The cap is on the whole line: `buf` may already hold the part of
        // it that arrived before a read timeout, and never holds more than
        // the cap because every read is bounded by what is left of it.
        let budget = MAX_REQUEST_LINE - buf.len();
        match reader.by_ref().take(budget as u64).read_line(&mut buf) {
            Ok(0) => break, // EOF: client closed its side
            Ok(_) if buf.len() == MAX_REQUEST_LINE && !buf.ends_with('\n') => {
                let _ = tx.send(Event::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                });
                break; // as a disconnect: reservations freed, socket closed
            }
            Ok(_) => {
                let line = std::mem::take(&mut buf);
                let line = line.trim();
                if !line.is_empty() {
                    dispatch_line(line, shared, &tx, &mut jobs, &mut next_job);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Poll the shutdown flag, but keep serving until this
                // connection's own jobs have delivered terminal events —
                // a drain must not cut a response stream. Partial line
                // bytes stay in `buf` and the next read appends.
                if shared.shutting_down()
                    && !jobs
                        .values()
                        .any(|&id| shared.scheduler.status(id).is_some())
                {
                    disconnected = false;
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // connection reset etc.
        }
    }
    if disconnected {
        // Free the client's reservations; nobody is reading the stream.
        let active: Vec<JobId> = jobs.values().copied().collect();
        shared.scheduler.disconnect(&active);
    }
    shared.log(&format!("connection from {peer} closed"));
    drop(tx); // writer drains queued events, then exits
    let _ = writer.join();
}

/// Writer side of one connection: block for an event, render it and
/// everything else already queued (in channel order) into one reused frame
/// buffer, and hand the kernel the frame in a single `write_all`. A cold
/// job's results trickle, so each is its own frame; a warm job's whole
/// burst leaves in a handful of writes, and no line is ever split.
fn write_frames(mut out: TcpStream, rx: &Receiver<Event>) {
    let mut frame = String::new();
    while let Ok(event) = rx.recv() {
        frame.clear();
        let mut next = Some(event);
        while let Some(event) = next {
            serde_json::to_string_into(&mut frame, &event).expect("events serialize");
            frame.push('\n');
            next = rx.try_recv().ok();
        }
        if out.write_all(frame.as_bytes()).is_err() {
            break; // client gone; remaining sends fail silently
        }
    }
}

/// Parse and execute one request line; every outcome (including parse
/// failures) is an event on `tx`.
fn dispatch_line(
    line: &str,
    shared: &Arc<Shared>,
    tx: &Sender<Event>,
    jobs: &mut HashMap<u64, JobId>,
    next_job: &mut u64,
) {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(message) => {
            let _ = tx.send(Event::Error {
                code: ErrorCode::BadRequest,
                message,
            });
            return;
        }
    };
    match request {
        Request::Submit { client, grid } => {
            // Ids are connection-scoped and only consumed by accepted
            // submits, so a rejected submit does not shift later ids.
            let conn_job = *next_job + 1;
            match shared.scheduler.submit(&client, conn_job, *grid, tx) {
                Ok(id) => {
                    *next_job = conn_job;
                    jobs.insert(conn_job, id);
                    shared.log(&format!("client {client}: job {conn_job} accepted"));
                }
                Err((code, message)) => {
                    shared.log(&format!(
                        "client {client}: submit rejected ({})",
                        code.name()
                    ));
                    let _ = tx.send(Event::Error { code, message });
                }
            }
        }
        Request::Status { job } => {
            let status = jobs.get(&job).and_then(|&id| shared.scheduler.status(id));
            let event = match status {
                Some((state, completed, total)) => Event::Status {
                    job,
                    state,
                    completed,
                    total,
                },
                None => Event::Error {
                    code: ErrorCode::UnknownJob,
                    message: format!("job {job} is unknown or already finished"),
                },
            };
            let _ = tx.send(event);
        }
        Request::Cancel { job } => {
            let canceled = jobs
                .get(&job)
                .is_some_and(|&id| shared.scheduler.cancel(id));
            if !canceled {
                let _ = tx.send(Event::Error {
                    code: ErrorCode::UnknownJob,
                    message: format!("job {job} is unknown or already finished"),
                });
            }
            // On success the terminal `canceled` event arrives via the
            // scheduler once in-flight scenarios land.
        }
        Request::Stats => {
            let _ = tx.send(Event::Stats {
                cache: shared.scheduler.cache().stats(),
                scheduler: shared.scheduler.stats(),
            });
        }
        Request::Ping => {
            let _ = tx.send(Event::Pong);
        }
        Request::Shutdown => {
            let _ = tx.send(Event::ShuttingDown);
            shared.trigger_shutdown();
        }
    }
}

/// Blocking line-oriented client for the daemon protocol — what `noc-cli
/// submit` / `serve-ctl` and the tests use.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient").finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Connect to a daemon.
    ///
    /// # Errors
    /// Propagates the connect/clone error.
    pub fn connect(addr: &str) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ServeClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line.
    ///
    /// # Errors
    /// Propagates the socket write error.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.write_line(&request.render())
    }

    /// Send one raw line verbatim (a newline is appended) — the error-path
    /// probe tests use this to exercise the daemon's malformed-request
    /// handling through the real socket path.
    ///
    /// # Errors
    /// Propagates the socket write error.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.write_line(line)
    }

    /// The one client write path: `line` and its newline leave in a single
    /// `write_all`, so the newline never sits behind the request body.
    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())
    }

    /// Read one raw event line (without the trailing newline) — the byte
    /// stream the CI smoke test compares across clients.
    ///
    /// # Errors
    /// Returns `UnexpectedEof` when the daemon closes the connection.
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Read and parse one event.
    ///
    /// # Errors
    /// Socket errors, or `InvalidData` when the line does not parse.
    pub fn recv(&mut self) -> std::io::Result<Event> {
        let line = self.recv_line()?;
        Event::parse(&line).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
    }

    /// Send a request and read a single reply event (for ping / stats /
    /// status / shutdown — not for submit, whose reply is a stream).
    ///
    /// # Errors
    /// Propagates [`ServeClient::send`] / [`ServeClient::recv`] errors.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Event> {
        self.send(request)?;
        self.recv()
    }

    /// Submit a grid and block until the terminal event, returning the
    /// assembled report.
    ///
    /// # Errors
    /// Socket errors, or `Other` when the daemon rejects the submit,
    /// cancels, or fails the job.
    pub fn run_grid(&mut self, client: &str, grid: &SweepGrid) -> std::io::Result<SweepReport> {
        self.send(&Request::Submit {
            client: client.to_string(),
            grid: Box::new(grid.clone()),
        })?;
        loop {
            match self.recv()? {
                Event::Accepted { .. } | Event::Result { .. } => {}
                Event::Done { report, .. } => return Ok(*report),
                Event::Canceled { .. } => {
                    return Err(std::io::Error::other("job was canceled"));
                }
                Event::Failed { message, .. } => {
                    return Err(std::io::Error::other(format!("job failed: {message}")));
                }
                Event::Error { code, message } => {
                    return Err(std::io::Error::other(format!(
                        "daemon rejected submit ({}): {message}",
                        code.name()
                    )));
                }
                _ => {} // stray status/pong replies are ignorable here
            }
        }
    }
}
