//! End-to-end multi-layer store integration: several annotation layers
//! mounted over one base document — URI resolution, snapshot round
//! trip, mount conflicts. What the StandOff axes answer *across* layers
//! is `tests/layer_differential.rs`'s subject (this corpus is one of its
//! regression seeds).

use standoff_core::StandoffConfig;
use standoff_store::{write_snapshot, LayerSet, Snapshot};
use standoff_xml::parse_document;
use standoff_xquery::Engine;

/// BLOB: "Alice met Bob in Paris yesterday" (coordinates are character
/// offsets into an external text the layers never materialize).
fn corpus() -> LayerSet {
    let base =
        parse_document(r#"<text lang="en">Alice met Bob in Paris yesterday</text>"#).unwrap();
    let tokens = parse_document(
        r#"<tokens>
             <w word="Alice" start="0" end="4"/>
             <w word="met" start="6" end="8"/>
             <w word="Bob" start="10" end="12"/>
             <w word="in" start="14" end="15"/>
             <w word="Paris" start="17" end="21"/>
             <w word="yesterday" start="23" end="31"/>
           </tokens>"#,
    )
    .unwrap();
    let entities = parse_document(
        r#"<entities>
             <person id="alice" start="0" end="4"/>
             <person id="bob" start="10" end="12"/>
             <place id="paris" start="17" end="21"/>
           </entities>"#,
    )
    .unwrap();
    let syntax = parse_document(
        r#"<syntax>
             <np start="0" end="4"/>
             <vp start="6" end="12"/>
             <pp start="14" end="21"/>
             <s start="0" end="31"/>
           </syntax>"#,
    )
    .unwrap();

    let mut set = LayerSet::build("corpus", base, StandoffConfig::default()).unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    set.add_layer("entities", entities, StandoffConfig::default())
        .unwrap();
    set.add_layer("syntax", syntax, StandoffConfig::default())
        .unwrap();
    set
}

fn mounted_engine() -> Engine {
    let mut engine = Engine::new();
    engine.mount_store(corpus()).unwrap();
    engine
}

#[test]
fn doc_resolves_base_and_layers() {
    let mut engine = mounted_engine();
    assert_eq!(
        engine
            .run(r#"doc("corpus")/text/@lang"#)
            .unwrap()
            .as_strings(),
        ["en"]
    );
    assert_eq!(
        engine
            .run(r#"count(doc("corpus#tokens")//w)"#)
            .unwrap()
            .as_strings(),
        ["6"]
    );
    assert_eq!(
        engine
            .run(r#"count(layer("corpus", "entities")//person)"#)
            .unwrap()
            .as_strings(),
        ["2"]
    );
    // layer("corpus", "base") is the same node as doc("corpus").
    assert_eq!(
        engine
            .run(r#"count(layer("corpus", "base")/text)"#)
            .unwrap()
            .as_strings(),
        ["1"]
    );
}

/// Mount → snapshot → remount: the reloaded store answers identically
/// (and its indices were never rebuilt — they come off the snapshot).
#[test]
fn snapshot_round_trip_preserves_query_results() {
    let mut direct = mounted_engine();
    let mut buf = Vec::new();
    write_snapshot(&corpus(), &mut buf).unwrap();
    let reloaded = Snapshot::mount_bytes(buf).unwrap().to_layer_set().unwrap();
    let mut engine = Engine::new();
    engine.mount_store(reloaded).unwrap();

    for q in [
        r#"doc("corpus#entities")//person/select-narrow::w/@word"#,
        r#"doc("corpus#syntax")//pp/select-wide::w/@word"#,
        r#"count(doc("corpus#tokens")//w)"#,
    ] {
        assert_eq!(
            engine.run(q).unwrap().as_strings(),
            direct.run(q).unwrap().as_strings(),
            "{q}"
        );
    }
}

/// A writer with nothing pending mounts exactly what `mount_store`
/// mounts: the same documents under the same URIs and ids, the same
/// `layer()` lookups, and the same answers, a cross-layer step included.
#[test]
fn a_writer_with_nothing_pending_mounts_the_store() {
    let mut store = mounted_engine();
    let writer = standoff_xquery::WritableEngine::mount(corpus(), Default::default()).unwrap();
    let mut session = writer.session();
    assert_eq!(store.store().len(), 4);
    assert_eq!(writer.shared().store().len(), 4);
    for layer in ["base", "tokens", "entities", "syntax"] {
        let uri = match layer {
            "base" => "corpus".to_string(),
            name => format!("corpus#{name}"),
        };
        let id = store.store().by_uri(&uri);
        assert!(id.is_some(), "{uri}");
        assert_eq!(writer.shared().store().by_uri(&uri), id, "{uri}");
        // `layer()` and `doc()` name one node: the union has one member.
        let same = format!(r#"count(layer("corpus", "{layer}") | doc("{uri}"))"#);
        assert_eq!(store.run(&same).unwrap().as_xml(), "1", "{layer}");
        assert_eq!(session.run(&same).unwrap().as_xml(), "1", "{layer}");
    }
    for q in [
        r#"doc("corpus#entities")//person/select-narrow::w/@word"#,
        r#"layer("corpus", "syntax")//pp/select-wide::*"#,
    ] {
        assert_eq!(
            session.run(q).unwrap().as_xml(),
            store.run(q).unwrap().as_xml(),
            "{q}"
        );
    }
}

#[test]
fn mount_conflicts_and_unknown_layers_error() {
    let mut engine = mounted_engine();
    assert!(engine.mount_store(corpus()).is_err(), "duplicate mount");
    assert!(engine.run(r#"layer("corpus", "nope")"#).is_err());
    assert!(engine.run(r#"layer("nope", "tokens")"#).is_err());
}

#[test]
fn load_document_refuses_to_shadow_mounted_layers() {
    let mut engine = mounted_engine();
    assert!(engine.load_document("corpus", "<d/>").is_err());
    assert!(engine.load_document("corpus#tokens", "<d/>").is_err());
    // The mounted layers are untouched.
    assert_eq!(
        engine
            .run(r#"count(doc("corpus#tokens")//w)"#)
            .unwrap()
            .as_strings(),
        ["6"]
    );
}

#[test]
fn mount_refuses_to_shadow_derived_layer_uris() {
    let mut engine = Engine::new();
    // A plain document already sits at the URI a layer would derive.
    engine.load_document("corpus#tokens", "<mine/>").unwrap();
    assert!(engine.mount_store(corpus()).is_err());
    // Nothing was partially mounted: the bare URI stays free and the
    // pre-existing document is untouched.
    assert!(engine.run(r#"doc("corpus")"#).is_err());
    assert_eq!(
        engine
            .run(r#"count(doc("corpus#tokens")/mine)"#)
            .unwrap()
            .as_strings(),
        ["1"]
    );
}

/// Plain documents loaded the classic way are untouched by the layer
/// machinery: joins stay within their own fragment.
#[test]
fn unmounted_documents_keep_fragment_semantics() {
    let mut engine = mounted_engine();
    engine
        .load_document(
            "solo.xml",
            r#"<d><a start="0" end="31"/><b start="2" end="3"/></d>"#,
        )
        .unwrap();
    // The solo document's <a> must not see the corpus tokens, only its
    // own <b>.
    assert_eq!(
        engine
            .run(r#"count(doc("solo.xml")//a/select-narrow::*)"#)
            .unwrap()
            .as_strings(),
        ["2"] // a itself and b
    );
}
