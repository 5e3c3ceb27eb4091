//! `standoff-xq serve` — a long-lived TCP query service over governed
//! [`Executor`](crate::xquery::Executor)s.
//!
//! The protocol is deliberately dependency-free: length-prefixed UTF-8
//! frames over one TCP connection, many requests per connection.
//!
//! ```text
//! request:   <len>\n<payload>            payload = verb line [+ body]
//! response:  ok <len>\n<payload>
//!            err <len>\n<payload>        payload = category\nmessage
//! ```
//!
//! Verbs (the first line of the request payload):
//!
//! | verb             | body        | reply payload                      |
//! |------------------|-------------|------------------------------------|
//! | `ping`           | —           | `pong`                             |
//! | `query`          | query text  | result serialized as XML           |
//! | `stats`          | —           | metrics snapshot as JSON           |
//! | `mount PATH`     | —           | `mounted URI`                      |
//! | `unmount URI`    | —           | `unmounted URI`                    |
//! | `mounts`         | —           | one `URI\tPATH` line per mount     |
//! | `shutdown`       | —           | `draining` (server then drains)    |
//!
//! Error categories (first line of an `err` payload): `timeout`,
//! `result-limit`, `cancelled`, `overloaded`, `parse`, `static`,
//! `dynamic`, `internal`, `proto`.
//!
//! Governance: every `query` runs through
//! [`Executor::run_governed_with`](crate::xquery::Executor::run_governed_with) — admission control sheds on a full
//! queue, and a per-request [`Budget`](crate::core::Budget) enforces the deadline and
//! result/scratch caps. The server keeps a clone of each in-flight
//! budget so a drain (SIGTERM or the `shutdown` verb) can cancel
//! running queries cooperatively instead of abandoning their threads.
//!
//! Hot `mount`/`unmount` swap in a freshly built engine (snapshot
//! layers are `Arc`-shared, so a remount is pointer plumbing, not an
//! index rebuild) behind an `RwLock<Arc<Executor>>`; requests already
//! holding the old executor finish against the corpus they started
//! with. The compiled-plan cache is shared across swaps — its epoch
//! keys (store generation + options fingerprint) make stale hits
//! impossible — and the metrics of retired executors fold into a
//! baseline snapshot so `stats` stays cumulative across remounts.

use std::fmt;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::core::obs::MetricsSnapshot;
use crate::core::Budget;
use crate::store::Snapshot;
use crate::xquery::{Engine, EngineOptions, Executor, Governance, QueryCache, QueryError};

/// Upper bound on one frame's payload — a query, not a bulk upload.
const MAX_PAYLOAD: usize = 4 << 20;
/// Upper bound on the `<len>\n` header line.
const MAX_HEADER: usize = 32;
/// Socket poll granularity: reads time out this often so connection
/// threads notice a drain promptly, and the accept loop re-checks its
/// stop flags this often while idle; it is *not* the client patience.
const POLL: Duration = Duration::from_millis(100);
/// How long the accept loop waits for connections to finish draining.
const DRAIN_WAIT: Duration = Duration::from_secs(5);

/// Server configuration: engine options, per-request governance, and
/// how much patience slow clients get. Every request evaluates
/// sequentially on its connection thread and the protocol has no batch
/// verb, so the executor has no fan-out width to configure.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Compile-time engine options (strategy, pushdown) every mounted
    /// corpus is served under.
    pub engine: EngineOptions,
    /// Per-request resource policy (admission cap, deadline, result and
    /// scratch limits).
    pub governance: Governance,
    /// A client that stalls mid-frame longer than this is disconnected
    /// — one slow writer must not pin a connection thread forever.
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            engine: EngineOptions::default(),
            governance: Governance::default(),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// One mounted snapshot: the path it came from (display only) and the
/// open snapshot itself — a shared handle, so every executor rebuilt
/// over it shares the layers already materialized.
pub struct ServeMount {
    pub path: String,
    pub snapshot: Snapshot,
}

impl ServeMount {
    /// Open a snapshot file for serving.
    pub fn open(path: &str) -> Result<ServeMount, ServeError> {
        let snapshot =
            Snapshot::open(path).map_err(|e| ServeError::Mount(format!("{path}: {e}")))?;
        Ok(ServeMount {
            path: path.to_string(),
            snapshot,
        })
    }

    /// The store URI this mount registers under.
    pub fn uri(&self) -> &str {
        self.snapshot.uri()
    }
}

/// Anything that can stop a server from starting or keep a corpus from
/// mounting.
#[derive(Debug)]
pub enum ServeError {
    Io(io::Error),
    Mount(String),
    Query(QueryError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::Mount(m) => write!(f, "{m}"),
            ServeError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

/// State shared between the accept loop and every connection thread.
struct Shared {
    /// The currently serving executor; `mount`/`unmount` swap the `Arc`
    /// so in-flight requests keep the corpus they started with.
    exec: RwLock<Arc<Executor>>,
    /// The mounted snapshots an executor rebuild works from. The lock
    /// is held across rebuild-and-swap, serializing mounts.
    mounts: Mutex<Vec<ServeMount>>,
    /// Compiled-plan cache shared across executor swaps.
    cache: Arc<QueryCache>,
    /// Metrics of retired executors, folded in on every swap so `stats`
    /// is cumulative across remounts.
    retired: Mutex<MetricsSnapshot>,
    /// Budgets of in-flight queries, cancelled on drain.
    inflight: Mutex<Vec<(u64, Budget)>>,
    next_request: AtomicU64,
    opts: ServeOptions,
    /// Set by the `shutdown` verb; the accept loop polls it.
    shutdown: AtomicBool,
    /// Live connection threads; drain waits for this to reach zero.
    active_conns: AtomicUsize,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn current_exec(&self) -> Arc<Executor> {
        Arc::clone(&self.exec.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Cancel every in-flight query's budget (idempotent).
    fn cancel_inflight(&self) {
        let inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        for (_, budget) in inflight.iter() {
            budget.cancel();
        }
    }
}

/// Build a fresh engine over `mounts` and wrap it in a governed
/// executor sharing `cache`.
fn build_executor(
    mounts: &[ServeMount],
    opts: &ServeOptions,
    cache: Arc<QueryCache>,
) -> Result<Arc<Executor>, QueryError> {
    let mut engine = Engine::with_options(opts.engine.clone());
    for mount in mounts {
        engine.mount_snapshot(&mount.snapshot)?;
    }
    Ok(Arc::new(Executor::governed_with_cache(
        engine.into_shared(),
        1,
        opts.governance,
        cache,
    )))
}

/// A bound, not-yet-running query server. [`Server::run_until`] blocks
/// the calling thread; [`Server::spawn`] runs it on its own thread and
/// returns a [`ServerHandle`] (the shape tests want).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` and build the initial executor over `mounts`.
    /// Nothing is accepted until [`Server::run_until`] runs.
    pub fn bind(
        addr: impl ToSocketAddrs,
        mounts: Vec<ServeMount>,
        opts: ServeOptions,
    ) -> Result<Server, ServeError> {
        let cache = Arc::new(QueryCache::new(crate::xquery::exec::DEFAULT_CACHE_CAPACITY));
        let exec = build_executor(&mounts, &opts, Arc::clone(&cache))?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                exec: RwLock::new(exec),
                mounts: Mutex::new(mounts),
                cache,
                retired: Mutex::new(MetricsSnapshot::default()),
                inflight: Mutex::new(Vec::new()),
                next_request: AtomicU64::new(0),
                opts,
                shutdown: AtomicBool::new(false),
                active_conns: AtomicUsize::new(0),
            }),
        })
    }

    /// The address the listener actually bound (port 0 resolves here).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve connections until `stop` is set (the host's
    /// signal handler) or a client sends `shutdown`, then drain:
    /// cancel in-flight queries cooperatively and wait for connection
    /// threads to finish before returning.
    pub fn run_until(&self, stop: &AtomicBool) -> io::Result<()> {
        loop {
            if stop.load(Ordering::Relaxed) || self.shared.draining() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    shared.active_conns.fetch_add(1, Ordering::AcqRel);
                    let spawned = thread::Builder::new()
                        .name("standoff-serve".to_string())
                        .spawn(move || {
                            // The guard decrements even if the handler
                            // panics (a tripped fault point) — a dead
                            // connection must not wedge the drain.
                            let _guard = ConnGuard(&shared);
                            serve_connection(&shared, stream);
                        });
                    if spawned.is_err() {
                        // Thread exhaustion: shed the connection.
                        self.shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_acceptable(&self.listener, POLL)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Drain: cancel in-flight budgets (re-sweeping each tick — a
        // request may register between sweeps) and wait for connection
        // threads, bounded so a wedged client cannot hold shutdown
        // hostage past DRAIN_WAIT.
        let deadline = Instant::now() + DRAIN_WAIT;
        while self.shared.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            self.shared.cancel_inflight();
            thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }

    /// Run the server on its own thread; the returned handle stops it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("standoff-serve-accept".to_string())
            .spawn(move || self.run_until(&stop_flag))?;
        Ok(ServerHandle { addr, stop, thread })
    }
}

/// Block until the listener has a connection to accept or `timeout`
/// passes, whichever is first — `poll(2)` on the listener fd, declared
/// by hand so the workspace stays dependency-free. A connecting client
/// is accepted at once instead of after the rest of a sleep; the caller
/// re-checks its stop flags after every return, so a signal (which
/// interrupts the wait) or a `shutdown` verb is still noticed within
/// `timeout`. Any error is just an early return.
#[cfg(unix)]
fn wait_acceptable(listener: &TcpListener, timeout: Duration) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x001;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fd` is one live, correctly laid out `struct pollfd`, the
    // count passed is 1, and `poll` writes nothing but its `revents`.
    unsafe { poll(&mut fd, 1, timeout_ms) };
}

#[cfg(not(unix))]
fn wait_acceptable(_listener: &TcpListener, timeout: Duration) {
    thread::sleep(timeout);
}

struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running server (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a drain and wait for the accept loop to finish.
    pub fn stop(self) -> io::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server accept thread panicked")),
        }
    }
}

// ---- framing ----

enum FrameError {
    /// The connection is unusable (I/O error, EOF mid-frame).
    Drop,
    /// The client spoke garbage; send this message, then drop.
    Proto(String),
}

/// Read one `<len>\n<payload>` frame. `Ok(None)` means the connection
/// closed cleanly (EOF between frames) or the server is draining.
fn read_frame(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header: Vec<u8> = Vec::new();
    let mut frame_started: Option<Instant> = None;
    // Header: bytes up to '\n'. Socket reads wake every POLL so an idle
    // connection notices a drain; a client stalled *mid-frame* past
    // `read_timeout` is disconnected.
    loop {
        if let Some(started) = frame_started {
            if started.elapsed() > shared.opts.read_timeout {
                return Err(FrameError::Proto("slow client: frame stalled".to_string()));
            }
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.draining() {
                    return Ok(None);
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(FrameError::Drop),
        };
        if buf.is_empty() {
            // EOF: clean between frames, torn inside one.
            return if header.is_empty() {
                Ok(None)
            } else {
                Err(FrameError::Drop)
            };
        }
        frame_started.get_or_insert_with(Instant::now);
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            header.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            break;
        }
        let n = buf.len();
        header.extend_from_slice(buf);
        reader.consume(n);
        if header.len() > MAX_HEADER {
            return Err(FrameError::Proto("oversized frame header".to_string()));
        }
    }
    let text = std::str::from_utf8(&header)
        .map_err(|_| FrameError::Proto("non-UTF-8 frame header".to_string()))?;
    let len: usize = text
        .trim()
        .parse()
        .map_err(|_| FrameError::Proto(format!("bad frame header '{}'", text.trim())))?;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Proto(format!(
            "frame of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"
        )));
    }
    // Payload: exactly `len` bytes under the same patience rules.
    let started = frame_started.unwrap_or_else(Instant::now);
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        if started.elapsed() > shared.opts.read_timeout {
            return Err(FrameError::Proto("slow client: frame stalled".to_string()));
        }
        match reader.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Drop),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if shared.draining() {
                    return Ok(None);
                }
            }
            Err(_) => return Err(FrameError::Drop),
        }
    }
    Ok(Some(payload))
}

/// Write one `ok|err <len>\n<payload>` response: header and payload in
/// one vectored write, without copying the payload into a frame, and
/// continued from where a short write stopped.
fn write_frame(stream: &mut TcpStream, ok: bool, payload: &str) -> io::Result<()> {
    let status = if ok { "ok" } else { "err" };
    let header = format!("{status} {}\n", payload.len());
    let mut parts = [
        IoSlice::new(header.as_bytes()),
        IoSlice::new(payload.as_bytes()),
    ];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The error-category token clients dispatch on (first line of an
/// `err` payload).
fn category(e: &QueryError) -> &'static str {
    match e {
        QueryError::Parse { .. } => "parse",
        QueryError::Static(_) => "static",
        QueryError::Dynamic(_) => "dynamic",
        QueryError::Internal(_) => "internal",
        QueryError::Timeout => "timeout",
        QueryError::ResultLimit(_) => "result-limit",
        QueryError::Cancelled => "cancelled",
        QueryError::Overloaded(_) => "overloaded",
    }
}

fn error_payload(e: &QueryError) -> String {
    format!("{}\n{e}", category(e))
}

// ---- connection handling ----

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut reader, shared) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(FrameError::Proto(msg)) => {
                let _ = write_frame(&mut writer, false, &format!("proto\n{msg}"));
                return;
            }
            Err(FrameError::Drop) => return,
        };
        let payload = match String::from_utf8(payload) {
            Ok(s) => s,
            Err(_) => {
                let _ = write_frame(&mut writer, false, "proto\nnon-UTF-8 payload");
                return;
            }
        };
        // A tripped fault point (or any other defect) panics here, not
        // in main: the response degrades to `err internal` and the
        // connection survives.
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_request(shared, &payload)));
        let (ok, body) = outcome
            .unwrap_or_else(|_| (false, "internal\npanic while handling request".to_string()));
        if write_frame(&mut writer, ok, &body).is_err() {
            return;
        }
        if shared.draining() {
            return;
        }
    }
}

fn handle_request(shared: &Arc<Shared>, payload: &str) -> (bool, String) {
    crate::core::fault::point("serve.request");
    let (head, body) = payload.split_once('\n').unwrap_or((payload, ""));
    let head = head.trim();
    let (verb, arg) = match head.split_once(' ') {
        Some((verb, arg)) => (verb, arg.trim()),
        None => (head, ""),
    };
    let exec = shared.current_exec();
    exec.engine().metrics().counter("serve.requests").inc();
    match verb {
        "ping" => (true, "pong".to_string()),
        "query" => {
            // One-line form `query <text>` and body form both work.
            let text = if body.trim().is_empty() { arg } else { body };
            handle_query(shared, &exec, text)
        }
        "stats" => (true, stats_json(shared, &exec)),
        "mount" => handle_mount(shared, arg),
        "unmount" => handle_unmount(shared, arg),
        "mounts" => {
            let mounts = shared.mounts.lock().unwrap_or_else(|e| e.into_inner());
            let lines: Vec<String> = mounts
                .iter()
                .map(|m| format!("{}\t{}", m.uri(), m.path))
                .collect();
            (true, lines.join("\n"))
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::Relaxed);
            (true, "draining".to_string())
        }
        other => (false, format!("proto\nunknown verb '{other}'")),
    }
}

fn handle_query(shared: &Arc<Shared>, exec: &Executor, text: &str) -> (bool, String) {
    let text = text.trim();
    if text.is_empty() {
        return (false, "proto\nempty query".to_string());
    }
    if shared.draining() {
        return (
            false,
            "overloaded\nserver is draining; retry elsewhere".to_string(),
        );
    }
    // Always run with a budget — ungoverned servers still need the
    // cancel handle so a drain can stop a long query cooperatively.
    let budget = exec
        .governance()
        .fresh_budget()
        .unwrap_or_else(Budget::cancel_token);
    let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
    shared
        .inflight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((id, budget.clone()));
    let result = exec.run_governed_with(text, Some(budget));
    shared
        .inflight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|(k, _)| *k != id);
    match result {
        Ok(result) => (true, result.into_xml()),
        Err(e) => (false, error_payload(&e)),
    }
}

/// The cumulative metrics snapshot: retired executors' registries plus
/// the current one (with plan-cache counters), the process-global
/// registry (store durability counters — `store.wal.*`,
/// `store.verify.*`, compaction timings), plus serve gauges.
fn stats_json(shared: &Shared, exec: &Executor) -> String {
    let mut snapshot = shared
        .retired
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    snapshot.merge(&exec.metrics_snapshot());
    snapshot.merge(&crate::core::MetricsRegistry::global().snapshot());
    snapshot.counters.insert(
        "serve.active_connections".to_string(),
        shared.active_conns.load(Ordering::Acquire) as u64,
    );
    let mounts = shared.mounts.lock().unwrap_or_else(|e| e.into_inner());
    snapshot
        .counters
        .insert("serve.mounts".to_string(), mounts.len() as u64);
    snapshot.to_json()
}

/// Rebuild the executor over `mounts` and swap it in, folding the
/// retired executor's registry into the stats baseline. The caller
/// holds the mounts lock, serializing swaps.
fn swap_executor(shared: &Shared, mounts: &[ServeMount]) -> Result<(), QueryError> {
    let fresh = build_executor(mounts, &shared.opts, Arc::clone(&shared.cache))?;
    let old = {
        let mut exec = shared.exec.write().unwrap_or_else(|e| e.into_inner());
        std::mem::replace(&mut *exec, fresh)
    };
    // Only the engine registry is folded in: the plan-cache counters
    // come from the *shared* cache and are re-injected per snapshot by
    // `metrics_snapshot`, so merging them here would double-count.
    shared
        .retired
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .merge(&old.engine().metrics().snapshot());
    Ok(())
}

fn handle_mount(shared: &Shared, path: &str) -> (bool, String) {
    if path.is_empty() {
        return (false, "proto\nmount needs a snapshot path".to_string());
    }
    let mount = match ServeMount::open(path) {
        Ok(mount) => mount,
        Err(e) => return (false, format!("dynamic\n{e}")),
    };
    let uri = mount.uri().to_string();
    let mut mounts = shared.mounts.lock().unwrap_or_else(|e| e.into_inner());
    if mounts.iter().any(|m| m.uri() == uri) {
        return (false, format!("dynamic\nstore '{uri}' is already mounted"));
    }
    mounts.push(mount);
    match swap_executor(shared, &mounts) {
        Ok(()) => (true, format!("mounted {uri}")),
        Err(e) => {
            mounts.pop();
            (false, error_payload(&e))
        }
    }
}

fn handle_unmount(shared: &Shared, uri: &str) -> (bool, String) {
    if uri.is_empty() {
        return (false, "proto\nunmount needs a store URI".to_string());
    }
    let mut mounts = shared.mounts.lock().unwrap_or_else(|e| e.into_inner());
    let Some(pos) = mounts.iter().position(|m| m.uri() == uri) else {
        return (false, format!("dynamic\nno store mounted at '{uri}'"));
    };
    let removed = mounts.remove(pos);
    match swap_executor(shared, &mounts) {
        Ok(()) => (true, format!("unmounted {uri}")),
        Err(e) => {
            mounts.insert(pos, removed);
            (false, error_payload(&e))
        }
    }
}

// ---- client ----

/// A server's reply to one [`call`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// `true` for `ok` frames, `false` for `err` frames.
    pub ok: bool,
    /// The response payload. For `err` frames the first line is the
    /// category token ([`Reply::error_category`]).
    pub body: String,
}

impl Reply {
    /// The category token of an `err` reply (`timeout`, `overloaded`,
    /// …); `None` on `ok` replies.
    pub fn error_category(&self) -> Option<&str> {
        if self.ok {
            None
        } else {
            Some(self.body.lines().next().unwrap_or(""))
        }
    }

    /// The human-readable part of the payload (everything after the
    /// category line on errors, the whole body on success).
    pub fn message(&self) -> &str {
        if self.ok {
            &self.body
        } else {
            self.body.split_once('\n').map(|(_, m)| m).unwrap_or("")
        }
    }
}

/// Send one request payload to a server and read the reply — the
/// whole client side of the protocol.
pub fn call(addr: impl ToSocketAddrs, payload: &str) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut frame = Vec::with_capacity(payload.len() + 16);
    frame.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
    frame.extend_from_slice(payload.as_bytes());
    stream.write_all(&frame)?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status)?;
    let (ok, len) = parse_response_head(&status)
        .ok_or_else(|| io::Error::other(format!("malformed response head {status:?}")))?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let body =
        String::from_utf8(body).map_err(|_| io::Error::other("non-UTF-8 response payload"))?;
    Ok(Reply { ok, body })
}

/// Parse an `ok <len>` / `err <len>` response head.
fn parse_response_head(line: &str) -> Option<(bool, usize)> {
    let (status, len) = line.trim().split_once(' ')?;
    let ok = match status {
        "ok" => true,
        "err" => false,
        _ => return None,
    };
    let len: usize = len.parse().ok()?;
    if len > MAX_PAYLOAD {
        return None;
    }
    Some((ok, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_head_round_trip() {
        assert_eq!(parse_response_head("ok 12\n"), Some((true, 12)));
        assert_eq!(parse_response_head("err 0\n"), Some((false, 0)));
        assert_eq!(parse_response_head("nope 3\n"), None);
        assert_eq!(parse_response_head("ok twelve\n"), None);
        assert_eq!(parse_response_head("ok\n"), None);
    }

    #[test]
    fn reply_error_accessors() {
        let reply = Reply {
            ok: false,
            body: "timeout\nquery deadline exceeded".to_string(),
        };
        assert_eq!(reply.error_category(), Some("timeout"));
        assert_eq!(reply.message(), "query deadline exceeded");
        let reply = Reply {
            ok: true,
            body: "pong".to_string(),
        };
        assert_eq!(reply.error_category(), None);
        assert_eq!(reply.message(), "pong");
    }

    #[test]
    fn query_error_categories_are_stable() {
        assert_eq!(category(&QueryError::Timeout), "timeout");
        assert_eq!(category(&QueryError::Cancelled), "cancelled");
        assert_eq!(
            category(&QueryError::ResultLimit("x".into())),
            "result-limit"
        );
        assert_eq!(category(&QueryError::Overloaded("x".into())), "overloaded");
        assert_eq!(category(&QueryError::internal("x")), "internal");
    }
}
