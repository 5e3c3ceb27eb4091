//! Snapshot-format integration: a mounted snapshot must be *observably
//! identical* to the parsed corpus it was written from, and a file that
//! declares any version but the current one is refused by name at every
//! entry point — the version field cannot be used to open a file with
//! its checksums off, and a pre-v4 file is never decoded.

use std::process::Command;

use standoff::core::StandoffConfig;
use standoff::serve::{call, ServeMount, ServeOptions, Server};
use standoff::store::{save_snapshot, write_snapshot, LayerSet, Snapshot, StoreError};
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::Engine;

const SO_URI: &str = "xmark-standoff.xml";

/// An XMark StandOff corpus as a two-layer set: the standoffified
/// document as base plus a re-parsed shadow copy as a sibling layer
/// (exercises the multi-layer sections of the format).
fn xmark_set(scale: f64) -> LayerSet {
    let so = standoffify(&generate(&XmarkConfig::with_scale(scale)), 7);
    let shadow_xml = standoff::xml::serialize_document(&so.doc, Default::default());
    let shadow = standoff::xml::parse_document(&shadow_xml).unwrap();
    let mut set = LayerSet::build(SO_URI, so.doc, StandoffConfig::default()).unwrap();
    set.add_layer("shadow", shadow, StandoffConfig::default())
        .unwrap();
    set
}

fn queries() -> Vec<String> {
    let mut qs: Vec<String> = [
        XmarkQuery::Q1,
        XmarkQuery::Q2,
        XmarkQuery::Q6,
        XmarkQuery::Q7,
    ]
    .iter()
    .map(|q| q.standoff(SO_URI))
    .collect();
    qs.push(format!(
        r#"count(doc("{SO_URI}")//open_auction/select-narrow::reserve)"#
    ));
    qs.push(format!(
        r#"count(doc("{SO_URI}")//open_auction/select-wide::node())"#
    ));
    // Cross-layer: narrow base annotations by the shadow layer.
    qs.push(format!(
        r#"count(doc("{SO_URI}#shadow")//item/select-narrow::name)"#
    ));
    qs
}

fn answers(engine: &mut Engine) -> Vec<String> {
    queries()
        .iter()
        .map(|q| engine.run(q).unwrap().as_xml())
        .collect()
}

/// The acceptance gate: byte-identical XMark query results across a
/// direct in-memory mount and a snapshot round trip.
#[test]
fn parsed_and_v4_round_trip_answer_queries_byte_identically() {
    let set = xmark_set(0.002);
    let mut bytes = Vec::new();
    write_snapshot(&set, &mut bytes).unwrap();

    let mut direct = Engine::new();
    direct.mount_store(set).unwrap();
    let expected = answers(&mut direct);
    assert!(expected.iter().any(|a| !a.is_empty()));

    let snapshot = Snapshot::from_bytes(bytes).unwrap();
    let mut engine = Engine::new();
    engine.mount_snapshot(&snapshot).unwrap();
    assert_eq!(answers(&mut engine), expected, "snapshot mount diverges");
}

// ---- refusal by version ----

const TOKENS: &str = r#"<tokens><w word="Alice" start="0" end="4"/><w word="met" start="6" end="8"/><w word="Bob" start="10" end="12"/></tokens>"#;
const WORDS: &str = r#"doc("corpus#tokens")//w/@word"#;

fn corpus() -> LayerSet {
    let base = standoff::xml::parse_document("<text>Alice met Bob</text>").unwrap();
    let mut set = LayerSet::build("corpus", base, StandoffConfig::default()).unwrap();
    let tokens = standoff::xml::parse_document(TOKENS).unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    set
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("standoff-formats-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn refusal(version: u32) -> String {
    format!(
        "unsupported format version {version} (this build reads version 4 only); \
         rebuild it from the layer XML with standoff-xq index"
    )
}

/// Run the CLI; `(exit code, stdout, stderr)`.
fn cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_standoff-xq"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().expect("exited, not signalled"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every way into a snapshot file — `Snapshot::mount_bytes`,
/// `Snapshot::open`, `standoff-xq verify`, `query --store` and the
/// server's `mount PATH` verb (against `addr`) — must refuse `path`
/// with the same message naming `version`.
fn assert_refused_everywhere(path: &std::path::Path, version: u32, addr: std::net::SocketAddr) {
    let want = refusal(version);
    let shown = path.to_str().unwrap();
    let refused = |opened: Result<Snapshot, StoreError>, how: &str| match opened {
        Err(e @ StoreError::Io(_)) => assert!(e.to_string().contains(&want), "{how}: {e}"),
        Err(other) => panic!("{how}: wrong category for version {version}: {other}"),
        Ok(_) => panic!("{how}: a version-{version} file mounted"),
    };
    refused(
        Snapshot::mount_bytes(std::fs::read(path).unwrap()),
        "mount_bytes",
    );
    refused(Snapshot::open(path), "open");

    let (code, stdout, _) = cli(&["verify", shown]);
    assert!(
        code == 1 && stdout.contains(&want) && !stdout.contains(": ok"),
        "verify, version {version}: exit {code}: {stdout}"
    );
    let (code, stdout, stderr) = cli(&["query", "--store", shown, "--query", WORDS]);
    assert!(
        code == 2 && stdout.is_empty() && stderr.contains(&want),
        "query --store, version {version}: exit {code}: {stdout}{stderr}"
    );

    let reply = call(addr, &format!("mount {shown}")).unwrap();
    assert!(
        !reply.ok && reply.body.contains(&want),
        "serve mount, version {version}: {reply:?}"
    );
    // The server keeps serving what it already had.
    let reply = call(addr, &format!("query\n{WORDS}")).unwrap();
    assert!(reply.ok && reply.body.contains("Alice"), "{reply:?}");
}

/// A server over the intact corpus, for the `mount PATH` leg.
fn serve_corpus() -> standoff::serve::ServerHandle {
    let mut bytes = Vec::new();
    write_snapshot(&corpus(), &mut bytes).unwrap();
    let mount = ServeMount {
        path: "<mem>".to_string(),
        snapshot: std::sync::Arc::new(Snapshot::from_bytes(bytes).unwrap()),
    };
    Server::bind("127.0.0.1:0", vec![mount], ServeOptions::default())
        .unwrap()
        .spawn()
        .unwrap()
}

/// Regression (checksum bypass by downgrade): a damaged v4 file whose
/// header is rewritten to say 3 used to mount *unverified* — `verify`
/// said `ok` and queries served the damaged bytes. Any version but 4 is
/// now refused before anything else is parsed; the intact original
/// still verifies and answers.
#[test]
fn downgraded_header_cannot_switch_the_checksums_off() {
    let dir = temp_dir("downgrade");
    let good = dir.join("good.snap");
    save_snapshot(&corpus(), &good).unwrap();
    let bytes = std::fs::read(&good).unwrap();
    let server = serve_corpus();

    // One flipped byte inside the attribute-value arena…
    let mut damaged = bytes.clone();
    let at = damaged
        .windows(7)
        .position(|w| w == b"Alice04")
        .expect("attribute arena holds word, start, end back to back");
    damaged[at] = b'M';
    let flipped = dir.join("flipped.snap");
    std::fs::write(&flipped, &damaged).unwrap();
    // …is a checksum mismatch while the header still says 4…
    let (code, stdout, _) = cli(&["verify", flipped.to_str().unwrap()]);
    assert!(
        code == 1 && stdout.contains("checksum mismatch"),
        "{stdout}"
    );
    // …and stays refused under every other version value.
    for version in [3u32, 1, 2, 5, 0, u32::MAX] {
        damaged[4..8].copy_from_slice(&version.to_le_bytes());
        let path = dir.join(format!("says-{version}.snap"));
        std::fs::write(&path, &damaged).unwrap();
        assert_refused_everywhere(&path, version, server.addr());
    }

    // The untouched original verifies and answers.
    let shown = good.to_str().unwrap();
    let (code, stdout, _) = cli(&["verify", shown]);
    assert!(code == 0 && stdout.contains(": ok"), "{stdout}");
    let (code, stdout, _) = cli(&["query", "--store", shown, "--query", WORDS]);
    assert_eq!(
        (code, stdout.trim()),
        (0, r#"word="Alice" word="met" word="Bob""#)
    );
    assert!(Snapshot::mount_bytes(bytes).unwrap().verify().is_ok());

    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---- committed version-1 fixture ----

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus_v1.snap")
}

/// The committed version-1 file (written by a pre-v4 build) is the
/// refusal test's input: every entry point names version 1 and the
/// remedy, and nothing in it is decoded.
#[test]
fn committed_v1_fixture_is_refused_by_name() {
    let server = serve_corpus();
    assert_refused_everywhere(&fixture_path(), 1, server.addr());
    server.stop().unwrap();
}

/// Truncating the committed v1 fixture at *every* byte offset must
/// produce a clean error — never a panic, never a mount.
#[test]
fn committed_v1_fixture_truncation_at_every_byte_errors_cleanly() {
    let full = std::fs::read(fixture_path()).unwrap();
    for cut in 0..=full.len() {
        let result = std::panic::catch_unwind(|| Snapshot::from_bytes(full[..cut].to_vec()));
        let mounted = result.unwrap_or_else(|_| panic!("truncation at {cut} panicked the reader"));
        assert!(mounted.is_err(), "truncation at {cut} mounted");
    }
}
