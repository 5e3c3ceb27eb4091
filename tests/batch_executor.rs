//! Batch executor acceptance over the XMark fixture.
//!
//! * `--threads 4` must produce byte-identical results to `--threads 1`
//!   (submission order, serialized forms, error placement) — both at
//!   the library level and through the `standoff-xq batch` CLI.
//! * Mounted snapshot stores work through the shared engine: every
//!   worker session reuses the snapshot's prebuilt region indexes.

use std::path::PathBuf;
use std::process::{Command, Output};

use standoff::core::StandoffConfig;
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::{Engine, Executor};

const SO_URI: &str = "xmark-standoff.xml";

fn xmark_shared() -> standoff::xquery::SharedEngine {
    let src = generate(&XmarkConfig::with_scale(0.002));
    let so = standoffify(&src, 7);
    let mut engine = Engine::new();
    engine.add_document(src, Some("xmark.xml"));
    let so_id = engine.add_document(so.doc, Some(SO_URI));
    engine
        .prebuild_region_index(so_id, &StandoffConfig::default())
        .unwrap();
    engine.into_shared()
}

/// A ≥100-query batch mixing the paper's XMark StandOff queries with
/// constructors, FLWORs, and a sprinkling of failures.
fn xmark_batch() -> Vec<String> {
    let mut queries = Vec::new();
    for k in 0..108 {
        queries.push(match k % 6 {
            0 => XmarkQuery::Q1.standoff(SO_URI),
            1 => XmarkQuery::Q2.standoff(SO_URI),
            2 => XmarkQuery::Q6.standoff(SO_URI),
            3 => format!(r#"<batch k="{k}">{{count(doc("{SO_URI}")//item)}}</batch>"#),
            4 => format!(
                r#"for $p in doc("{SO_URI}")//person[position() <= {}]
                   order by $p/@id descending return $p/@id"#,
                (k % 7) + 1
            ),
            _ => format!("this-query-is-broken({k}"),
        });
    }
    queries
}

#[test]
fn four_threads_match_one_thread_bytewise() {
    let shared = xmark_shared();
    let queries = xmark_batch();
    assert!(queries.len() >= 100);

    let one = Executor::new(shared.clone(), 1).run_batch(&queries);
    let four = Executor::new(shared, 4).run_batch(&queries);
    assert_eq!(one.len(), four.len());
    for (k, (a, b)) in one.iter().zip(&four).enumerate() {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.as_xml(), y.as_xml(), "query {k} diverged");
                assert_eq!(x.as_strings(), y.as_strings(), "query {k} diverged");
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "query {k} errors diverged"),
            _ => panic!("query {k}: Ok/Err status diverged between thread counts"),
        }
    }
    // The deliberate failures landed where they were submitted.
    for (k, r) in one.iter().enumerate() {
        assert_eq!(r.is_err(), k % 6 == 5, "query {k} status misplaced");
    }
}

/// Four workers start on an engine whose postings are all cold, each
/// on a query pushing the same names, so they race to derive and
/// publish the same postings; every answer equals the one a single
/// thread gives on another cold engine, byte for byte.
#[test]
fn four_threads_racing_for_cold_postings_match_one_thread() {
    let queries: Vec<String> = (0..16)
        .map(|k| match k % 4 {
            0 => XmarkQuery::Q2.standoff(SO_URI),
            1 => XmarkQuery::Q6.standoff(SO_URI),
            2 => format!(r#"count(doc("{SO_URI}")//open_auction/select-narrow::bidder)"#),
            _ => format!(r#"doc("{SO_URI}")//bidder[{k}]/select-narrow::increase"#),
        })
        .collect();
    let one = Executor::new(xmark_shared(), 1).run_batch(&queries);
    let four = Executor::new(xmark_shared(), 4).run_batch(&queries);
    for (k, (a, b)) in one.iter().zip(&four).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.as_xml(), b.as_xml(), "query {k} diverged");
    }
}

// ---- CLI ----

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_standoff-xq"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("standoff-xq-batch-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command, what: &str) -> Output {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn cli_batch_output_identical_across_thread_counts() {
    let dir = tmp_dir("threads");
    let base = dir.join("base.xml");
    std::fs::write(&base, "<text>Alice met Bob near the old mill</text>").unwrap();
    let tokens = dir.join("tokens.xml");
    std::fs::write(
        &tokens,
        r#"<tokens>
             <w word="Alice" start="0" end="4"/>
             <w word="met" start="6" end="8"/>
             <w word="Bob" start="10" end="12"/>
             <w word="mill" start="27" end="30"/>
           </tokens>"#,
    )
    .unwrap();
    let entities = dir.join("entities.xml");
    std::fs::write(
        &entities,
        r#"<entities>
             <person name="Alice" start="0" end="4"/>
             <person name="Bob" start="10" end="12"/>
             <place name="mill" start="23" end="30"/>
           </entities>"#,
    )
    .unwrap();
    let snap = dir.join("corpus.snap");
    run_ok(
        bin().args([
            "index",
            base.to_str().unwrap(),
            "-o",
            snap.to_str().unwrap(),
            "--uri",
            "corpus",
            "--layer",
            &format!("tokens={}", tokens.display()),
            "--layer",
            &format!("entities={}", entities.display()),
        ]),
        "index",
    );

    // Multi-line queries separated by %% lines, one of them failing.
    let queries = dir.join("queries.txt");
    std::fs::write(
        &queries,
        r#"count(doc("corpus#tokens")//w)
%%
for $p in doc("corpus#entities")//person
order by $p/@start
return $p/select-narrow::w/@word
%%
this one does not parse ((
%%
doc("corpus#entities")//place/select-wide::w/@word
"#,
    )
    .unwrap();

    let run = |threads: &str| {
        bin()
            .args([
                "batch",
                "--store",
                snap.to_str().unwrap(),
                "--threads",
                threads,
                queries.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    let one = run("1");
    let four = run("4");
    // One query fails → exit code 1, but the pool survives and the
    // remaining results print in submission order.
    assert_eq!(one.status.code(), Some(1));
    assert_eq!(four.status.code(), Some(1));
    assert_eq!(one.stdout, four.stdout, "stdout differs across --threads");
    let text = String::from_utf8_lossy(&one.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        [
            "4",
            r#"word="Alice" word="Bob""#,
            "!! error: syntax error at line 1, column 6: unexpected trailing input: Name(\"one\")",
            r#"word="mill""#,
        ]
    );
}

#[test]
fn cli_batch_reports_missing_inputs_without_panicking() {
    let out = bin()
        .args(["batch", "/no/such/queries.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let dir = tmp_dir("missing");
    let queries = dir.join("q.txt");
    std::fs::write(&queries, "1 + 1\n").unwrap();
    let out = bin()
        .args([
            "batch",
            "--store",
            "/no/such/snapshot.snap",
            queries.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
}
