//! Chaos suite: armed fault points prove the service **degrades
//! gracefully instead of wedging** — a panicking worker becomes a
//! clean error and the pool survives, a slow client is disconnected
//! without pinning a thread, a mid-request unmount never tears the
//! corpus out from under an in-flight query, a full queue sheds, and
//! a drain cancels in-flight work cooperatively.
//!
//! Fault points are process-global, so every test takes [`chaos_lock`]
//! and clears the registry on entry — tests stay independent even
//! though the test harness runs them on concurrent threads.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use standoff::core::fault::{self, FaultAction};
use standoff::core::StandoffConfig;
use standoff::serve::{call, Reply, ServeMount, ServeOptions, Server, ServerHandle};
use standoff::store::{write_snapshot, LayerSet, Snapshot};
use standoff::xquery::{Engine, Executor, Governance, QueryError};

fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    fault::clear_all();
    guard
}

/// A small two-layer corpus, assembled in memory.
fn corpus_set(uri: &str) -> LayerSet {
    let base = standoff::xml::parse_document("<text>hello stand-off world</text>").unwrap();
    let tokens = standoff::xml::parse_document(
        r#"<tokens><w start="0" end="4"/><w start="6" end="14"/><w start="16" end="20"/></tokens>"#,
    )
    .unwrap();
    let mut set = LayerSet::build(uri, base, StandoffConfig::default()).unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    set
}

fn corpus_mount(uri: &str) -> ServeMount {
    let mut bytes = Vec::new();
    write_snapshot(&corpus_set(uri), &mut bytes).unwrap();
    ServeMount {
        path: "<mem>".to_string(),
        snapshot: Snapshot::mount_bytes(bytes).unwrap(),
    }
}

fn spawn_server(opts: ServeOptions) -> ServerHandle {
    Server::bind("127.0.0.1:0", vec![corpus_mount("corpus")], opts)
        .unwrap()
        .spawn()
        .unwrap()
}

fn query(addr: SocketAddr, text: &str) -> Reply {
    call(addr, &format!("query\n{text}")).expect("server reachable")
}

const COUNT_TOKENS: &str = r#"count(doc("corpus#tokens")//w)"#;

// ---- pool worker panics ----

#[test]
fn injected_pool_worker_panic_fails_batch_cleanly_and_pool_recovers() {
    let _guard = chaos_lock();
    let mut engine = Engine::new();
    engine
        .load_document(
            "d.xml",
            r#"<a><w start="0" end="4"/><w start="6" end="9"/></a>"#,
        )
        .unwrap();
    let exec = Executor::governed(engine.into_shared(), 2, Governance::default());
    let queries = vec!["1 + 1"; 6];

    fault::inject_times("par.worker", FaultAction::Panic, 1);
    let results = exec.run_batch(&queries);
    assert_eq!(results.len(), queries.len(), "batch must stay complete");
    // A panicked pool worker means the batch cannot vouch for any slot:
    // every query reports the internal error, none is silently lost.
    for result in &results {
        match result {
            Err(QueryError::Internal(msg)) => {
                assert!(msg.contains("injected fault"), "unexpected payload: {msg}")
            }
            other => panic!("expected Internal from a panicked pool, got {other:?}"),
        }
    }

    // The pool recovers: the same executor serves the retry.
    fault::clear_all();
    let results = exec.run_batch(&queries);
    for result in results {
        assert_eq!(result.unwrap().as_strings(), ["2"]);
    }
}

// ---- server chaos ----

#[test]
fn injected_request_panic_degrades_to_internal_and_connection_survives() {
    let _guard = chaos_lock();
    let server = spawn_server(ServeOptions::default());
    let addr = server.addr();

    fault::inject_times("serve.request", FaultAction::Panic, 1);
    let reply = query(addr, COUNT_TOKENS);
    assert!(!reply.ok);
    assert_eq!(reply.error_category(), Some("internal"));

    // Same server, next request: fully responsive.
    let reply = query(addr, COUNT_TOKENS);
    assert!(reply.ok, "server wedged after panic: {reply:?}");
    assert_eq!(reply.body, "3");
    server.stop().unwrap();
}

#[test]
fn slow_client_is_disconnected_without_pinning_the_server() {
    let _guard = chaos_lock();
    let server = spawn_server(ServeOptions {
        read_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    let addr = server.addr();

    // A client that promises 100 bytes and stalls after 3.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(b"100\nabc").unwrap();

    // While it stalls, other clients are served normally.
    let reply = query(addr, COUNT_TOKENS);
    assert!(reply.ok && reply.body == "3");

    // The stalled connection is cut with a proto error, not held open.
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut response = String::new();
    slow.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("err ") && response.contains("slow client"),
        "expected a slow-client disconnect, got {response:?}"
    );
    server.stop().unwrap();
}

#[test]
fn full_queue_sheds_and_recovers_after_the_spike() {
    let _guard = chaos_lock();
    let server = spawn_server(ServeOptions {
        governance: Governance {
            queue_cap: Some(1),
            ..Governance::default()
        },
        ..ServeOptions::default()
    });
    let addr = server.addr();

    // Hold the only admission slot open for 800ms (the delay fires
    // post-admission, inside the executor).
    fault::inject_times(
        "executor.query",
        FaultAction::Delay(Duration::from_millis(800)),
        1,
    );
    let slow = std::thread::spawn(move || query(addr, COUNT_TOKENS));
    std::thread::sleep(Duration::from_millis(200));

    let shed = query(addr, COUNT_TOKENS);
    assert!(!shed.ok, "second request must be shed: {shed:?}");
    assert_eq!(shed.error_category(), Some("overloaded"));

    // The delayed request itself completes fine...
    let slow = slow.join().unwrap();
    assert!(slow.ok && slow.body == "3", "delayed request: {slow:?}");
    // ...the queue empties, and the next request is admitted again.
    let after = query(addr, COUNT_TOKENS);
    assert!(after.ok && after.body == "3");
    // The shed is visible in stats.
    let stats = call(addr, "stats").unwrap();
    assert!(stats.ok);
    assert!(
        stats.body.contains("\"executor.sheds\": 1"),
        "shed missing from stats: {}",
        stats.body
    );
    server.stop().unwrap();
}

#[test]
fn mid_request_unmount_never_tears_the_corpus_from_an_inflight_query() {
    let _guard = chaos_lock();
    let server = spawn_server(ServeOptions::default());
    let addr = server.addr();

    // Park a query inside the executor, then swap the corpus out from
    // under it.
    fault::inject_times(
        "executor.query",
        FaultAction::Delay(Duration::from_millis(800)),
        1,
    );
    let inflight = std::thread::spawn(move || query(addr, COUNT_TOKENS));
    std::thread::sleep(Duration::from_millis(200));

    let unmount = call(addr, "unmount corpus").unwrap();
    assert!(unmount.ok, "unmount failed: {unmount:?}");

    // The in-flight query still answers from the corpus it started
    // with — executor swaps are snapshots, not rug-pulls.
    let inflight = inflight.join().unwrap();
    assert!(
        inflight.ok && inflight.body == "3",
        "inflight: {inflight:?}"
    );

    // New queries see the unmounted state...
    let after = query(addr, COUNT_TOKENS);
    assert!(!after.ok);
    assert_eq!(after.error_category(), Some("dynamic"));
    // ...and the server is otherwise fully responsive.
    let ping = call(addr, "ping").unwrap();
    assert!(ping.ok && ping.body == "pong");
    server.stop().unwrap();
}

#[test]
fn hot_mount_serves_new_corpus_without_restart() {
    let _guard = chaos_lock();
    let server = spawn_server(ServeOptions::default());
    let addr = server.addr();

    // A second corpus written to disk (the mount verb takes a path).
    let dir = std::env::temp_dir().join(format!("standoff-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("second.snap");
    standoff::store::save_snapshot(&corpus_set("second"), &path).unwrap();

    let mounted = call(addr, &format!("mount {}", path.display())).unwrap();
    assert!(mounted.ok, "mount failed: {mounted:?}");
    assert_eq!(mounted.body, "mounted second");

    let reply = query(addr, r#"count(doc("second#tokens")//w)"#);
    assert!(reply.ok && reply.body == "3", "new corpus: {reply:?}");
    // The original corpus still answers too.
    let reply = query(addr, COUNT_TOKENS);
    assert!(reply.ok && reply.body == "3");

    // Double-mounting the same URI is refused, not corrupting.
    let again = call(addr, &format!("mount {}", path.display())).unwrap();
    assert!(!again.ok);
    assert_eq!(again.error_category(), Some("dynamic"));

    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_cancels_inflight_queries_cooperatively() {
    let _guard = chaos_lock();
    let server = spawn_server(ServeOptions::default());
    let addr = server.addr();

    // Park a request post-admission so it is reliably mid-flight when
    // the drain starts; its budget is cancelled during the park, and
    // the first evaluation check observes the trip.
    fault::inject_times(
        "executor.query",
        FaultAction::Delay(Duration::from_millis(800)),
        1,
    );
    let inflight = std::thread::spawn(move || query(addr, COUNT_TOKENS));
    std::thread::sleep(Duration::from_millis(200));

    let started = Instant::now();
    server.stop().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain must not wait out the whole query"
    );

    let reply = inflight.join().unwrap();
    assert!(!reply.ok, "in-flight query must be cancelled: {reply:?}");
    assert_eq!(reply.error_category(), Some("cancelled"));

    // The listener is gone afterwards.
    assert!(call(addr, "ping").is_err());
}
