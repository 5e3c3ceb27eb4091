//! Multi-layer stand-off store walkthrough: independent annotation
//! layers (tokens, entities, syntax) over one BLOB, persisted to a
//! binary snapshot and queried across layers.
//!
//! ```text
//! cargo run --example layers
//! ```

use standoff::core::StandoffConfig;
use standoff::store::{save_snapshot, LayerSet, Snapshot};
use standoff::xml::parse_document;
use standoff::xquery::Engine;

fn main() {
    // The BLOB: "Alice met Bob in Paris yesterday" — never stored, only
    // referenced through [start,end] character offsets.
    let base = parse_document(r#"<text lang="en">Alice met Bob in Paris yesterday</text>"#)
        .expect("base parses");
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
    .expect("tokens parse");
    let entities = parse_document(
        r#"<entities>
             <person id="alice" start="0" end="4"/>
             <person id="bob" start="10" end="12"/>
             <place id="paris" start="17" end="21"/>
           </entities>"#,
    )
    .expect("entities parse");

    // Assemble the layer set; every layer's region index is built once,
    // here, and never again.
    let mut set = LayerSet::build("corpus", base, StandoffConfig::default()).unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    set.add_layer("entities", entities, StandoffConfig::default())
        .unwrap();

    // Persist and reload — the reload is a validated column read.
    let snap = std::env::temp_dir().join("standoff-layers-example.snap");
    save_snapshot(&set, &snap).unwrap();
    let reloaded = Snapshot::open(&snap).unwrap().to_layer_set().unwrap();
    println!(
        "snapshot {} -> {} layers, {} annotations",
        snap.display(),
        reloaded.len(),
        reloaded
            .layers()
            .iter()
            .map(|l| l.annotation_count())
            .sum::<usize>()
    );

    let mut engine = Engine::new();
    engine.mount_store(reloaded).unwrap();

    // Cross-layer StandOff join: which tokens realize each entity?
    let result = engine
        .run(r#"doc("corpus#entities")//person/select-narrow::w/@word"#)
        .unwrap();
    println!("person tokens: {:?}", result.as_strings());
    assert_eq!(result.as_strings(), ["Alice", "Bob"]);

    // The layer() builtin addresses layers explicitly.
    let result = engine
        .run(
            r#"for $p in layer("corpus", "entities")//place
               return count($p/select-wide::w)"#,
        )
        .unwrap();
    println!("tokens overlapping each place: {:?}", result.as_strings());
    assert_eq!(result.as_strings(), ["1"]);

    std::fs::remove_file(&snap).ok();
}
