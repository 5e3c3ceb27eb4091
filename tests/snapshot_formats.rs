//! Snapshot-format integration: a mounted snapshot must be *observably
//! identical* to the parsed corpus it was written from, and a file that
//! declares any version but the current one is refused by name at every
//! entry point — the version field cannot be used to open a file with
//! its checksums off, and a pre-v4 file is never decoded. A mounted
//! snapshot materializes only the layers a query reaches, and damage in
//! a layer fails exactly the queries that reach it.

use std::process::Command;
use std::sync::{Arc, Barrier};

use standoff::core::{crc32, MetricsRegistry, StandoffConfig};
use standoff::serve::{call, ServeMount, ServeOptions, Server};
use standoff::store::{save_snapshot, write_snapshot, LayerSet, Snapshot, StoreError};
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::{Engine, QueryError};

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

    let snapshot = Snapshot::mount_bytes(bytes).unwrap();
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
        "unsupported format version {version} (this build reads version 6 only); \
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
        snapshot: Snapshot::mount_bytes(bytes).unwrap(),
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
        .windows(8)
        .position(|w| w == b"Alicemet")
        .expect("the attribute arena holds the words back to back");
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
    for version in [3u32, 1, 2, 4, 5, 0, u32::MAX] {
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
        let result = std::panic::catch_unwind(|| Snapshot::mount_bytes(full[..cut].to_vec()));
        let mounted = result.unwrap_or_else(|_| panic!("truncation at {cut} panicked the reader"));
        assert!(mounted.is_err(), "truncation at {cut} mounted");
    }
}

// ---- lazy layers ----

const COLD_URI: &str = "cold";

/// Three layers in the shape of the cold-query benchmark: the XMark
/// StandOff document as base, one `w` per BLOB word as `tokens`, and an
/// `entity` over every twentieth word as `entities`.
fn cold_bytes() -> Vec<u8> {
    let so = standoffify(&generate(&XmarkConfig::with_scale(0.002)), 7);
    let (mut tokens, mut entities) = (String::from("<tokens>"), String::from("<entities>"));
    let (mut start, mut k) = (None, 0);
    for (i, b) in so.blob.bytes().chain([b' ']).enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                let end = i - 1;
                tokens.push_str(&format!(r#"<w n="{}" start="{s}" end="{end}"/>"#, k % 97));
                if k % 20 == 0 {
                    entities.push_str(&format!(r#"<entity start="{s}" end="{end}"/>"#));
                }
                k += 1;
                start = None;
            }
            _ => {}
        }
    }
    tokens.push_str("</tokens>");
    entities.push_str("</entities>");
    let mut set = LayerSet::build(COLD_URI, so.doc, StandoffConfig::default()).unwrap();
    for (name, xml) in [("tokens", tokens), ("entities", entities)] {
        let doc = standoff::xml::parse_document(&xml).unwrap();
        set.add_layer(name, doc, StandoffConfig::default()).unwrap();
    }
    let mut bytes = Vec::new();
    write_snapshot(&set, &mut bytes).unwrap();
    bytes
}

/// Mount `bytes` lazily, run `q`, and name the layers it materialized.
fn reached(bytes: &[u8], q: &str) -> Vec<String> {
    let snapshot = Snapshot::mount_bytes(bytes.to_vec()).unwrap();
    let mut engine = Engine::new();
    engine.mount_snapshot(&snapshot).unwrap();
    assert!(
        (0..snapshot.len()).all(|k| !snapshot.is_materialized(k)),
        "mounting materialized a layer"
    );
    engine.run(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    let names = snapshot.layer_names().map(str::to_string);
    (names.enumerate())
        .filter(|(k, _)| snapshot.is_materialized(*k))
        .map(|(_, name)| name)
        .collect()
}

#[test]
fn a_cold_query_materializes_only_the_layers_it_reaches() {
    let bytes = cold_bytes();
    let q = |text: &str| text.replace("URI", COLD_URI);
    assert_eq!(
        reached(&bytes, &XmarkQuery::Q1.standoff(COLD_URI)),
        ["base"]
    );
    assert_eq!(
        reached(&bytes, &q(r#"count(doc("URI")//person/select-narrow::w)"#)),
        ["base", "tokens"]
    );
    assert_eq!(
        reached(
            &bytes,
            &q(r#"count(doc("URI")//person/select-wide::node())"#)
        ),
        ["base", "tokens", "entities"]
    );
    assert_eq!(
        reached(&bytes, &q(r#"count(doc(concat("URI#", "tokens"))//w)"#)),
        ["tokens"]
    );
    assert_eq!(
        reached(&bytes, &q(r#"count(layer("URI", "entities")//entity)"#)),
        ["entities"]
    );
}

/// `shadow` re-parses the base document, so its catalog holds every
/// name base does: a join on one of them reaches both layers.
#[test]
fn a_layer_whose_catalog_holds_the_name_is_materialized() {
    let mut bytes = Vec::new();
    write_snapshot(&xmark_set(0.002), &mut bytes).unwrap();
    let q1 = XmarkQuery::Q1.standoff(SO_URI);
    assert_eq!(reached(&bytes, &q1), ["base", "shadow"]);
    assert_eq!(
        reached(&bytes, &format!(r#"count(doc("{SO_URI}#shadow")//item)"#)),
        ["shadow"]
    );
}

/// Every query answers byte-identically through a lazy mount and an
/// eager `mount_store(to_layer_set())` of the same bytes.
#[test]
fn lazy_and_eager_mounts_answer_byte_identically() {
    let mut bytes = Vec::new();
    write_snapshot(&xmark_set(0.002), &mut bytes).unwrap();
    let mut eager = Engine::new();
    let set = Snapshot::mount_bytes(bytes.clone()).unwrap().to_layer_set();
    eager.mount_store(set.unwrap()).unwrap();
    for q in queries() {
        let mut lazy = Engine::new();
        lazy.mount_snapshot(&Snapshot::mount_bytes(bytes.clone()).unwrap())
            .unwrap();
        assert_eq!(
            lazy.run(&q).unwrap().as_xml(),
            eager.run(&q).unwrap().as_xml(),
            "{q}"
        );
    }
}

// ---- damage behind a lazy mount ----

/// The payload range of section `tag` of layer `layer`, from the
/// section table (16-byte header, then 24-byte entries `tag | layer |
/// offset | length`).
fn section(bytes: &[u8], tag: u32, layer: u32) -> std::ops::Range<usize> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let long = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (0..word(8) as usize)
        .map(|k| 16 + 24 * k)
        .find(|&e| word(e) == tag && word(e + 4) == layer)
        .map(|e| long(e + 8)..long(e + 8) + long(e + 16))
        .expect("section present")
}

/// Rewrite the checksum-table entry of section `tag` of `layer` to
/// match its (edited) payload: the damage then passes every checksum
/// and only validation can catch it.
fn reseal(bytes: &mut [u8], tag: u32, layer: u32) {
    let crc = crc32(&bytes[section(bytes, tag, layer)]);
    let table = section(bytes, 40, 0);
    let entry = (table.clone().step_by(12))
        .find(|&e| {
            bytes[e..e + 4] == tag.to_le_bytes() && bytes[e + 4..e + 8] == layer.to_le_bytes()
        })
        .expect("checksum entry present");
    bytes[entry + 8..entry + 12].copy_from_slice(&crc.to_le_bytes());
}

/// Mount `bytes` through the mapped open and the in-memory one.
fn both_mounts(dir: &std::path::Path, bytes: &[u8]) -> [Snapshot; 2] {
    let path = dir.join("damaged.snap");
    std::fs::write(&path, bytes).unwrap();
    [
        Snapshot::open(&path).unwrap(),
        Snapshot::mount_bytes(bytes.to_vec()).unwrap(),
    ]
}

/// The answer (or error text) of `q` over a lazy mount of `snapshot`.
fn answer(snapshot: &Snapshot, q: &str) -> Result<String, QueryError> {
    let mut engine = Engine::new();
    engine.mount_snapshot(snapshot).unwrap();
    engine.run(q).map(|r| r.as_xml())
}

/// A `size` column whose last entry is `u32::MAX` (the subtree end
/// overflows u32), resealed so its checksum matches: the layer mounts —
/// its tree columns are checked on their first read — and that read is
/// a categorized refusal naming the column through both opens, never a
/// panic and never a navigable tree.
#[test]
fn a_resealed_hostile_size_column_is_refused() {
    let dir = temp_dir("hostile-size");
    let mut bytes = Vec::new();
    write_snapshot(&corpus(), &mut bytes).unwrap();
    let size = section(&bytes, 12, 0);
    bytes[size.end - 4..size.end].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bytes, 12, 0);
    for snapshot in both_mounts(&dir, &bytes) {
        let layer = snapshot
            .layer_at(0)
            .expect("the columns read directly are sound");
        match layer.doc().tree().map(drop).map_err(StoreError::from) {
            Err(e @ StoreError::Corrupt { .. }) => {
                let e = e.to_string();
                assert!(
                    e.starts_with("corrupt section doc.size (layer base): "),
                    "{e}"
                );
                assert!(e.contains("leaks out of parent"), "{e}")
            }
            Err(other) => panic!("wrong category: {other}"),
            Ok(()) => panic!("a hostile size column was navigable"),
        }
        assert!(snapshot.verify().is_err());
        let err = answer(&snapshot, r#"string(doc("corpus"))"#).unwrap_err();
        assert!(err.to_string().contains("leaks out of parent"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One mutation per structural check of a layer's columns, each
/// resealed so every checksum passes: through both mounts the layer is
/// refused, as invalid data, with the message that check has always
/// given, and `verify` fails. Where two columns are damaged, the check
/// that has always run first names the layer. The tokens carry a
/// non-ASCII value so the string arena has a character to split.
#[test]
fn resealed_hostile_structures_are_refused_by_their_checks() {
    let dir = temp_dir("hostile-table");
    let base = standoff::xml::parse_document("<text>Ålice met Bob</text>").unwrap();
    let mut set = LayerSet::build("corpus", base, StandoffConfig::default()).unwrap();
    let tokens = r#"<tokens><w word="Ålice" start="0" end="5"/><w word="met" start="7" end="9"/><w word="Bob" start="11" end="13"/></tokens>"#;
    set.add_layer(
        "tokens",
        standoff::xml::parse_document(tokens).unwrap(),
        StandoffConfig::default(),
    )
    .unwrap();
    let mut clean = Vec::new();
    write_snapshot(&set, &mut clean).unwrap();
    // Column words and 24-byte region entries, little-endian.
    let put =
        |col: &mut [u8], k: usize, v: u32| col[4 * k..4 * k + 4].copy_from_slice(&v.to_le_bytes());
    type Edit<'a> = &'a dyn Fn(&mut [u8]);
    let swap: Edit = &|col| {
        let (first, rest) = col.split_at_mut(24);
        first.swap_with_slice(&mut rest[..24]);
    };
    let max_lie: Edit = &|col| put(col, 0, 2);
    let kind_5: Edit = &|col| col[2] = 5;
    let owner: Edit = &|col| put(col, 1, 4);
    let split: Edit = &|col| put(col, 1, 1);
    // What is damaged, the damaged columns, the refusal — and, for the
    // tree columns and the attribute table, which are verified on their
    // first read, the section the refusal names.
    type Case<'a> = (&'a str, &'a [(u32, Edit<'a>)], &'a str, Option<&'a str>);
    let cases: [Case; 12] = [
        (
            "two swapped entries",
            &[(31, swap)],
            "region index: entries not clustered on (start, end, id)",
            None,
        ),
        (
            "an entry id moved to another node",
            &[(31, &|col| col.copy_within(24 + 16..24 + 20, 16))],
            "region index: stored max-regions is inconsistent",
            None,
        ),
        (
            "a duplicate entry",
            &[(31, &|col| col.copy_within(0..24, 24))],
            "region index: entries not clustered on (start, end, id)",
            None,
        ),
        (
            "a max-regions lie",
            &[(30, max_lie)],
            "region index: stored max-regions is inconsistent",
            None,
        ),
        (
            "an entry id past the document",
            &[(31, &|col| put(col, (2 * 24 + 16) / 4, 99))],
            "region index: references nodes beyond the document",
            None,
        ),
        (
            "a kind byte of 5",
            &[(11, kind_5)],
            "invalid node kind in kind column",
            None,
        ),
        (
            "a level off its parent's",
            &[(13, &|col| col[4..6].copy_from_slice(&5u16.to_le_bytes()))],
            "node 2 level inconsistent with parent",
            Some("doc.level"),
        ),
        (
            "an attribute owner mismatch",
            &[(19, owner)],
            "attribute 1 owner CSR mismatch",
            Some("doc.attr-owner"),
        ),
        (
            "a non-ASCII arena slot split mid-character",
            &[(22, split)],
            "string arena slot splits a UTF-8 character",
            Some("doc.attr-value-offsets"),
        ),
        (
            "a kind byte of 5 and a split arena slot",
            &[(11, kind_5), (22, split)],
            "invalid node kind in kind column",
            None,
        ),
        (
            "a kind byte of 5 and an attribute owner mismatch",
            &[(11, kind_5), (19, owner)],
            "invalid node kind in kind column",
            None,
        ),
        (
            "two swapped entries and a max-regions lie",
            &[(31, swap), (30, max_lie)],
            "region index: entries not clustered on (start, end, id)",
            None,
        ),
    ];
    for (what, edits, message, deferred) in cases {
        let mut bytes = clean.clone();
        for &(tag, edit) in edits {
            let column = section(&bytes, tag, 1);
            edit(&mut bytes[column]);
            reseal(&mut bytes, tag, 1);
        }
        for snapshot in both_mounts(&dir, &bytes) {
            snapshot.layer("base").expect("the base layer is untouched");
            match (snapshot.layer("tokens"), deferred) {
                (Err(e @ StoreError::Io(_)), None) => {
                    assert_eq!(
                        e.to_string(),
                        format!("snapshot: layer \"tokens\": {message}"),
                        "{what}"
                    )
                }
                (Ok(layer), Some(column)) => {
                    let refused = layer.doc().verify().expect_err(what);
                    assert_eq!(
                        StoreError::from(refused).to_string(),
                        format!("corrupt section {column} (layer tokens): {message}"),
                        "{what}"
                    )
                }
                (Err(other), _) => panic!("{what}: wrong category: {other}"),
                (Ok(_), None) => panic!("{what}: a hostile layer mounted"),
            }
            assert!(snapshot.verify().is_err(), "{what}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One flipped byte in the `tokens` layer's attribute table: queries
/// that never reach the layer answer, and so do those that reach it —
/// by `doc()` or by a join from base — without reading its attributes;
/// `verify` still fails, and every query that reads them — by a step,
/// by a filter, in a server — fails with the same categorized checksum
/// error through both opens.
#[test]
fn damage_in_an_unreached_layer_fails_only_the_queries_that_reach_it() {
    let dir = temp_dir("unreached");
    let mut bytes = Vec::new();
    write_snapshot(&corpus(), &mut bytes).unwrap();
    let at = bytes
        .windows(8)
        .position(|w| w == b"Alicemet")
        .expect("the tokens attribute arena holds the words back to back");
    bytes[at] = b'M';
    let mut texts = Vec::new();
    for snapshot in both_mounts(&dir, &bytes) {
        assert_eq!(
            answer(&snapshot, r#"string(doc("corpus"))"#).unwrap(),
            "Alice met Bob"
        );
        assert!(!snapshot.is_materialized(1));
        assert!(matches!(snapshot.verify(), Err(StoreError::Corrupt { .. })));
        for (q, n) in [
            (r#"count(doc("corpus#tokens")//w)"#, "3"),
            (r#"count(doc("corpus")/text/select-narrow::w)"#, "0"),
        ] {
            assert_eq!(answer(&snapshot, q).unwrap(), n, "{q}");
        }
        assert!(snapshot.is_materialized(1));
        for q in [WORDS, r#"doc("corpus#tokens")//w[@word = "met"]"#] {
            match answer(&snapshot, q) {
                Err(QueryError::Dynamic(text)) => texts.push(text),
                other => panic!("{q}: {other:?}"),
            }
        }
    }
    assert!(
        texts[0].contains("corrupt section doc.attr-value-heap (layer tokens): checksum mismatch"),
        "{}",
        texts[0]
    );
    assert!(texts.iter().all(|t| *t == texts[0]), "{texts:?}");

    let mount = ServeMount {
        path: "<mem>".to_string(),
        snapshot: Snapshot::mount_bytes(bytes).unwrap(),
    };
    let server = Server::bind("127.0.0.1:0", vec![mount], ServeOptions::default())
        .unwrap()
        .spawn()
        .unwrap();
    for _ in 0..2 {
        let reply = call(server.addr(), &format!("query\n{WORDS}")).unwrap();
        assert!(!reply.ok && reply.body.contains(&texts[0]), "{reply:?}");
        let reply = call(server.addr(), "query\nstring(doc(\"corpus\"))").unwrap();
        assert!(
            reply.ok && reply.body.contains("Alice met Bob"),
            "{reply:?}"
        );
    }
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Sessions of one shared engine that reach a layer at the same moment
/// materialize it once: the snapshot's cache is the only cache.
#[test]
fn concurrent_sessions_materialize_a_layer_once() {
    // A layer name no other test uses, so the global per-layer counter
    // counts this test's materializations alone.
    let base = standoff::xml::parse_document("<text>Alice met Bob</text>").unwrap();
    let mut set = LayerSet::build("once", base, StandoffConfig::default()).unwrap();
    let tokens = standoff::xml::parse_document(TOKENS).unwrap();
    set.add_layer("once-only", tokens, StandoffConfig::default())
        .unwrap();
    let mut bytes = Vec::new();
    write_snapshot(&set, &mut bytes).unwrap();
    let snapshot = Snapshot::mount_bytes(bytes).unwrap();
    let mut engine = Engine::new();
    engine.mount_snapshot(&snapshot).unwrap();
    let shared = engine.into_shared();
    let threads = 8;
    let gate = Arc::new(Barrier::new(threads));
    let answers: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (shared, gate) = (shared.clone(), Arc::clone(&gate));
                scope.spawn(move || {
                    let mut session = shared.session();
                    gate.wait();
                    let q = r#"count(doc("once#once-only")//w)"#;
                    session.run(q).unwrap().as_xml()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(answers.iter().all(|a| a == "3"), "{answers:?}");
    assert!(snapshot.is_materialized(1) && !snapshot.is_materialized(0));
    let global = MetricsRegistry::global().snapshot();
    assert_eq!(
        global.counters.get("store.layers_materialized.once-only"),
        Some(&1)
    );
    let local = shared.metrics().snapshot();
    assert_eq!(local.histograms["engine.snapshot_materialize_ns"].count, 1);
}
