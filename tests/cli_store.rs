//! `standoff-xq` CLI integration: the `index` → `inspect` → `query
//! --store` workflow (acceptance: `standoff-xq index <xml> -o <snap>`
//! then `standoff-xq query --store <snap>` works end-to-end).

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_standoff-xq"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("standoff-xq-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn index_then_query_store() {
    let dir = tmp_dir("basic");
    let base = write(
        &dir,
        "corpus.xml",
        r#"<video>
             <shot id="Intro" start="0" end="8"/>
             <shot id="Interview" start="8" end="64"/>
             <shot id="Outro" start="64" end="94"/>
           </video>"#,
    );
    let snap = dir.join("corpus.snap").to_string_lossy().into_owned();

    let out = bin()
        .args(["index", &base, "-o", &snap, "--uri", "corpus"])
        .output()
        .unwrap();
    assert_success(&out, "index");

    let out = bin()
        .args([
            "query",
            "--store",
            &snap,
            "--query",
            r#"doc("corpus")//shot[@start = 8]/@id"#,
        ])
        .output()
        .unwrap();
    assert_success(&out, "query --store");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        r#"id="Interview""#
    );
}

#[test]
fn index_with_layers_cross_layer_query_and_inspect() {
    let dir = tmp_dir("layers");
    let base = write(&dir, "base.xml", "<text>Alice met Bob</text>");
    let tokens = write(
        &dir,
        "tokens.xml",
        r#"<tokens>
             <w word="Alice" start="0" end="4"/>
             <w word="met" start="6" end="8"/>
             <w word="Bob" start="10" end="12"/>
           </tokens>"#,
    );
    let entities = write(
        &dir,
        "entities.xml",
        r#"<entities><person start="0" end="4"/><person start="10" end="12"/></entities>"#,
    );
    let snap = dir.join("corpus.snap").to_string_lossy().into_owned();

    let out = bin()
        .args([
            "index",
            &base,
            "-o",
            &snap,
            "--uri",
            "corpus",
            "--layer",
            &format!("tokens={tokens}"),
            "--layer",
            &format!("entities={entities}"),
        ])
        .output()
        .unwrap();
    assert_success(&out, "index --layer");

    // Cross-layer StandOff query straight off the snapshot.
    let out = bin()
        .args([
            "query",
            "--store",
            &snap,
            "--query",
            r#"doc("corpus#entities")//person/select-narrow::w/@word"#,
        ])
        .output()
        .unwrap();
    assert_success(&out, "cross-layer query");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        r#"word="Alice" word="Bob""#
    );

    // Inspect reports the layers.
    let out = bin().args(["inspect", &snap]).output().unwrap();
    assert_success(&out, "inspect");
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in ["uri:     corpus", "layers:  3", "tokens", "entities"] {
        assert!(
            report.contains(needle),
            "inspect output missing {needle:?}:\n{report}"
        );
    }
}

/// Build the two-layer snapshot once for the observability smoke tests.
fn obs_snapshot(tag: &str) -> (PathBuf, String) {
    let dir = tmp_dir(tag);
    let base = write(&dir, "base.xml", "<text>Alice met Bob</text>");
    let tokens = write(
        &dir,
        "tokens.xml",
        r#"<tokens>
             <w word="Alice" start="0" end="4"/>
             <w word="met" start="6" end="8"/>
             <w word="Bob" start="10" end="12"/>
           </tokens>"#,
    );
    let snap = dir.join("corpus.snap").to_string_lossy().into_owned();
    let out = bin()
        .args([
            "index",
            &base,
            "-o",
            &snap,
            "--uri",
            "corpus",
            "--layer",
            &format!("tokens={tokens}"),
        ])
        .output()
        .unwrap();
    assert_success(&out, "index");
    (dir, snap)
}

#[test]
fn query_profile_json_and_analyze() {
    let (_dir, snap) = obs_snapshot("profile");
    let query = r#"doc("corpus#tokens")//w[@word = "Bob"]"#;

    // --profile renders the annotated tree on stderr, result on stdout.
    let out = bin()
        .args(["query", "--store", &snap, "--profile", "--query", query])
        .output()
        .unwrap();
    assert_success(&out, "query --profile");
    assert!(String::from_utf8_lossy(&out.stdout).contains(r#"word="Bob""#));
    let profile = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        profile.contains("-- actual #"),
        "no operator annotations:\n{profile}"
    );

    // --profile-json emits one JSON object on stderr.
    let out = bin()
        .args([
            "query",
            "--store",
            &snap,
            "--profile-json",
            "--query",
            query,
        ])
        .output()
        .unwrap();
    assert_success(&out, "query --profile-json");
    let json = String::from_utf8_lossy(&out.stderr).into_owned();
    for needle in [
        "\"operators\"",
        "\"passes\"",
        "\"wall_ns\"",
        "\"rows\"",
        "\"kind\"",
    ] {
        assert!(json.contains(needle), "missing {needle}:\n{json}");
    }

    // explain --analyze executes and annotates each operator.
    let out = bin()
        .args(["explain", "--store", &snap, "--analyze", "--query", query])
        .output()
        .unwrap();
    assert_success(&out, "explain --analyze");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("-- actual #"), "{text}");
    assert!(text.contains("result: 1 item(s)"), "{text}");
}

#[test]
fn stats_dumps_metrics_registry() {
    let (dir, snap) = obs_snapshot("stats");
    let queries = write(
        &dir,
        "queries.xq",
        "count(doc(\"corpus#tokens\")//w)\ndoc(\"corpus#tokens\")//w[@word = \"met\"]\n",
    );
    let out = bin()
        .args(["stats", "--store", &snap, &queries])
        .output()
        .unwrap();
    assert_success(&out, "stats");
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in [
        "\"counters\"",
        "\"histograms\"",
        "\"query.executions\": 2",
        "\"executor.batches\": 1",
        "\"plan_cache.misses\"",
        "\"engine.mounts\": 1",
        "\"store.snapshots_opened\": 1",
        "\"query.exec_ns\"",
    ] {
        assert!(
            json.contains(needle),
            "stats output missing {needle}:\n{json}"
        );
    }
}

#[test]
fn inspect_sections_prints_per_section_sizes() {
    let (_dir, snap) = obs_snapshot("sections");
    let out = bin()
        .args(["inspect", &snap, "--sections"])
        .output()
        .unwrap();
    assert_success(&out, "inspect --sections");
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in ["layer.header", "doc.kind", "doc.name", "byte(s)"] {
        assert!(
            report.contains(needle),
            "inspect --sections missing {needle}:\n{report}"
        );
    }
    // Without the flag the section lines stay hidden.
    let out = bin().args(["inspect", &snap]).output().unwrap();
    assert_success(&out, "inspect");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("doc.kind"));
}

/// `inspect` reads everything it prints from `Snapshot::info()`; what it
/// prints for a v6 file — uri, layer names, node and annotation counts,
/// the `--sections` byte breakdown — is pinned to the output of the
/// build that still had a separate header skimmer. (The path line and
/// the platform-dependent `backing`/`crc32` lines are checked above.)
#[test]
fn inspect_output_is_unchanged_through_snapshot_info() {
    let (_dir, snap) = obs_snapshot("inspect-golden");
    let out = bin()
        .args(["inspect", &snap, "--sections"])
        .output()
        .unwrap();
    assert_success(&out, "inspect --sections");
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(report.lines().next(), Some(&*format!("snapshot {snap}")));
    let pinned: Vec<&str> = report
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with("  backing: ") && !l.starts_with("  crc32:   "))
        .collect();
    let golden = include_str!("golden/inspect_sections.txt");
    assert_eq!(pinned, golden.lines().collect::<Vec<_>>(), "{report}");
}

/// Regression: `verify` used to describe a file it could not mount with
/// the zero-initialised placeholders of its report (`v0, no checksums
/// (pre-v4)`, `"version":0`). The header line and the `--json` report
/// now carry the version field actually read from the file.
#[test]
fn verify_names_the_version_it_read_when_a_file_does_not_mount() {
    let (dir, snap) = obs_snapshot("verify-header");
    let good = std::fs::read(&snap).unwrap();
    // A checksum mismatch in a v6 file, a refused version, not a
    // snapshot at all: (bytes, header-line version, json version, finding).
    let mut flipped = good.clone();
    let at = flipped.windows(5).position(|w| w == b"Alice").unwrap();
    flipped[at] = b'M';
    let mut old = good.clone();
    old[4..8].copy_from_slice(&5u32.to_le_bytes());
    for (bytes, header, json_version, finding) in [
        (&flipped[..], "v6", "6", "checksum mismatch"),
        (
            &old[..],
            "v5",
            "5",
            "unsupported format version 5 (this build reads version 6 only)",
        ),
        (
            &b"not a snapshot"[..],
            "unreadable header",
            "null",
            "bad magic",
        ),
    ] {
        let path = write_bytes(&dir, "damaged.snap", bytes);
        let out = bin().args(["verify", &path]).output().unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(out.status.code(), Some(1), "{text}");
        assert!(text.starts_with(&format!("# {path}: {header}, ")), "{text}");
        assert!(text.contains(finding) && !text.contains("pre-v4"), "{text}");
        let out = bin().args(["verify", &path, "--json"]).output().unwrap();
        let json = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            json.contains(&format!("\"version\":{json_version},\"layers\":"))
                && json.contains("\"status\":\"corrupt\"")
                && !json.contains("checksummed"),
            "{json}"
        );
    }
}

/// Every invocation names its subcommand: a bare-flag argv (once an
/// implicit `query`) and an empty one are usage errors — exit 2, usage
/// text, nothing on stdout — and `query --load` is the one spelling.
#[test]
fn missing_subcommand_is_a_usage_error() {
    let dir = tmp_dir("usage");
    let sample = write(
        &dir,
        "sample.xml",
        r#"<sample>
             <shot id="Intro" start="0" end="8"/>
             <music artist="U2" start="0" end="31"/>
           </sample>"#,
    );
    let load = format!("sample.xml={sample}");
    let query = r#"doc("sample.xml")//music/select-wide::shot/@id"#;
    for args in [vec!["--load", &load, "--query", query], vec![]] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("subcommand") && stderr.contains("standoff-xq query ["),
            "{args:?}: {stderr}"
        );
    }
    let out = bin()
        .args(["query", "--load", &load, "--query", query])
        .output()
        .unwrap();
    assert_success(&out, "query --load");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), r#"id="Intro""#);
    // The `explain` subcommand is the one way to a plan.
    let out = bin()
        .args(["query", "--load", &load, "--query", query, "--explain"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument '--explain'"));
}

#[test]
fn bad_snapshot_and_bad_args_fail_cleanly() {
    let dir = tmp_dir("errors");
    let junk = write(&dir, "junk.snap", "not a snapshot");
    let out = bin()
        .args(["query", "--store", &junk, "--query", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));

    let out = bin().args(["index", "--frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    let out = bin().args(["query"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no query"));

    // A flag a subcommand does not read is refused, not ignored:
    // `--threads` is executor width (`batch`, `serve`) and a single query
    // has nothing to fan out, nor a queue to cap; `--analyze` is
    // `explain`'s; and `explain` prints a plan, so it has no timing or
    // profile to report.
    for args in [
        &["query", "--threads", "4"][..],
        &["stats", "--threads", "4"],
        &["query", "--queue-cap", "4"],
        &["explain", "--queue-cap", "4"],
        &["query", "--analyze"],
        &["explain", "--time"],
        &["explain", "--profile"],
        &["explain", "--profile-json"],
    ] {
        let out = bin().args(args).args(["--query", "1"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains(&format!("unknown argument '{}'", args[1])),
            "{err}"
        );
    }
    let out = bin()
        .args(["batch", "--threads", "0", "-"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected a positive integer"));

    // A strategy is one of the four the paper compares, named.
    let out = bin()
        .args(["query", "--strategy", "auto", "--query", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy 'auto'"));
}

/// `explain --analyze` executes its query, so it runs under the same
/// caps as `query`: over the result cap it fails with the same limit
/// error, exit code 1, and prints no plan.
#[test]
fn explain_analyze_is_governed_like_query() {
    let dir = tmp_dir("governed-explain");
    let doc = write(&dir, "d.xml", "<d><b/><b/></d>");
    let load = format!("d={doc}");
    for verb in [&["query"][..], &["explain", "--analyze"]] {
        let out = bin()
            .args(verb)
            .args(["--load", &load, "--max-results", "1"])
            .args(["-q", r#"count(doc("d")//b)"#])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{verb:?}");
        assert!(out.stdout.is_empty(), "{verb:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err, "standoff-xq: resource limit: result cardinality cap exceeded\n",
            "{verb:?}"
        );
    }
    // Under a cap it does not reach, the plan prints with its actuals.
    let out = bin()
        .args([
            "explain",
            "--analyze",
            "--load",
            &load,
            "--max-results",
            "100",
        ])
        .args(["-q", r#"count(doc("d")//b)"#])
        .output()
        .unwrap();
    assert_success(&out, "explain --analyze under a cap");
    assert!(String::from_utf8_lossy(&out.stdout).contains("result: 1 item(s)"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Replace an annotation in place — retract it, insert another at the
/// same key — and read it back through every persisted form: the
/// checkpointed sidecar (`annotate`), the journal (`annotate
/// --journal`) folded by a later checkpoint, and the compacted
/// snapshot. The sidecar used to be written insert-before-retract, so
/// its replay cancelled the insert and `Alice` came back.
#[test]
fn annotate_replace_in_place_survives_sidecar_journal_and_compact() {
    let (dir, snap) = obs_snapshot("replace");
    let words = r#"for $w in doc("corpus#tokens")//w return string($w/@word)"#;
    let query = |args: &[&str]| -> String {
        let out = bin()
            .args(["query", "--store"])
            .args(args)
            .args(["--query", words])
            .output()
            .unwrap();
        assert_success(&out, "query");
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    let annotate = |sidecar: &str, extra: &[&str], ops: &str| -> String {
        let ops = write(&dir, "ops.txt", ops);
        let out = bin()
            .args(["annotate", "--store", &snap, "--delta", sidecar])
            .args(extra)
            .arg(&ops)
            .output()
            .unwrap();
        assert_success(&out, "annotate");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // One checkpointing batch.
    let sidecar = dir.join("one.delta").to_string_lossy().into_owned();
    let report = annotate(
        &sidecar,
        &[],
        "retract tokens w 0 4\ninsert tokens w 0 4 word=ALICE\n",
    );
    assert!(
        report.contains("pending 1 insert(s), 1 retract(s)"),
        "{report}"
    );
    assert_eq!(query(&[&snap, "--delta", &sidecar]), "met Bob ALICE");
    let compacted = dir.join("one.snap").to_string_lossy().into_owned();
    let out = bin()
        .args([
            "compact", "--store", &snap, "--delta", &sidecar, "-o", &compacted,
        ])
        .output()
        .unwrap();
    assert_success(&out, "compact");
    assert_eq!(query(&[&compacted]), "met Bob ALICE");

    // The same two ops as separate journaled batches, then a checkpoint
    // that folds the journal into the sidecar.
    let sidecar = dir.join("two.delta").to_string_lossy().into_owned();
    annotate(&sidecar, &["--journal"], "retract tokens w 0 4\n");
    annotate(&sidecar, &["--journal"], "insert tokens w 0 4 word=ALICE\n");
    assert_eq!(query(&[&snap, "--delta", &sidecar]), "met Bob ALICE");
    annotate(&sidecar, &[], "insert tokens w 13 13 word=dot\n");
    assert_eq!(query(&[&snap, "--delta", &sidecar]), "met Bob ALICE dot");
    let out = bin()
        .args(["verify", &snap, "--delta", &sidecar])
        .output()
        .unwrap();
    assert_success(&out, "verify --delta");
}

/// The bytes `annotate` persists, pinned against goldens written by the
/// build *before* `annotate` became a `WritableEngine` client: two
/// journaled batches (the `.wal`), a checkpoint that folds them with a
/// third (the sidecar, stamped with the journal's last sequence number;
/// the journal back to its 8-byte header), and a journaled batch after
/// the checkpoint (sequenced above the stamp).
#[test]
fn annotate_writes_the_same_sidecar_and_journal_bytes() {
    let (dir, snap) = obs_snapshot("annotate-golden");
    let sidecar = dir.join("c.delta");
    let wal = dir.join("c.delta.wal");
    let annotate = |extra: &[&str], ops: &str| {
        let ops = write(&dir, "ops.txt", ops);
        let out = bin()
            .args(["annotate", "--store", &snap, "--delta"])
            .arg(&sidecar)
            .args(extra)
            .arg(&ops)
            .output()
            .unwrap();
        assert_success(&out, "annotate");
    };
    let journal = ["--journal"];
    annotate(
        &journal,
        "retract tokens w 0 4\ninsert tokens ner 0 4 class=PER\n",
    );
    annotate(
        &journal,
        "# a comment line\ninsert tokens w 0 4 word=ALICE\n",
    );
    assert!(!sidecar.exists(), "--journal never writes the sidecar");
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        include_bytes!("golden/annotate_journal.wal")
    );
    annotate(
        &[],
        "insert tokens w 13 13 word=dot\nretract tokens w 6 8\n",
    );
    assert_eq!(
        std::fs::read_to_string(&sidecar).unwrap(),
        include_str!("golden/annotate_checkpoint.delta")
    );
    assert_eq!(std::fs::read(&wal).unwrap(), b"SOWL\x01\0\0\0");
    annotate(&journal, "insert tokens ner 10 12 class=PER\n");
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        include_bytes!("golden/annotate_journal_after_checkpoint.wal")
    );

    // A refused batch leaves both files exactly as they were.
    let before = (
        std::fs::read(&sidecar).unwrap(),
        std::fs::read(&wal).unwrap(),
    );
    for extra in [&journal[..], &[]] {
        let ops = write(
            &dir,
            "bad.txt",
            "insert tokens w 1 2\nretract tokens w 99 100\n",
        );
        let out = bin()
            .args(["annotate", "--store", &snap, "--delta"])
            .arg(&sidecar)
            .args(extra)
            .arg(&ops)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let after = (
            std::fs::read(&sidecar).unwrap(),
            std::fs::read(&wal).unwrap(),
        );
        assert_eq!(after, before, "{extra:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A sidecar that exists but cannot be decoded is damage — a finding,
/// `CORRUPT`, exit 1, like a damaged snapshot — not an unreadable path
/// (exit 2, which `verify` keeps for usage errors and for a sidecar
/// that names neither a checkpoint nor a journal).
#[test]
fn verify_reports_an_undecodable_sidecar_as_a_finding() {
    let (dir, snap) = obs_snapshot("verify-sidecar");
    let sidecar = write_bytes(&dir, "bad.delta", b"insert tokens w 5 5 \xff\xfe\n");
    let out = bin()
        .args(["verify", &snap, "--delta", &sidecar])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("finding: {sidecar}: corrupt checkpoint")),
        "{stdout}"
    );
    assert!(stdout.contains("CORRUPT (1 finding(s))"), "{stdout}");
    let out = bin()
        .args(["verify", &snap, "--delta", &sidecar, "--json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains(r#""status":"corrupt""#), "{stdout}");

    let missing = dir.join("missing.delta").to_string_lossy().into_owned();
    let out = bin()
        .args(["verify", &snap, "--delta", &missing])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot read {missing}")),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `inspect` and `verify` say how the file is held and which CRC loop
/// checks it, so a slow cold start can be read off the output.
#[test]
fn inspect_and_verify_report_backing_and_crc() {
    let (_dir, snap) = obs_snapshot("backing");
    let out = bin().args(["inspect", &snap]).output().unwrap();
    assert_success(&out, "inspect");
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    let backing = if cfg!(all(unix, target_pointer_width = "64")) {
        "mmap"
    } else {
        "heap"
    };
    assert!(report.contains(&format!("backing: {backing}")), "{report}");
    let kernels = ["vpclmulqdq", "pclmulqdq", "portable"];
    assert!(
        kernels
            .iter()
            .any(|k| report.contains(&format!("crc32:   {k}\n"))),
        "{report}"
    );

    let out = bin().args(["verify", "--json", &snap]).output().unwrap();
    assert_success(&out, "verify --json");
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        json.contains(&format!("\"backing\":\"{backing}\"")),
        "{json}"
    );
    assert!(
        kernels
            .iter()
            .any(|k| json.contains(&format!("\"crc32\":\"{k}\""))),
        "{json}"
    );

    // The counters behind the same story.
    let out = bin().args(["stats", "--store", &snap]).output().unwrap();
    assert_success(&out, "stats");
    let stats = String::from_utf8_lossy(&out.stdout).into_owned();
    let opened = if backing == "mmap" {
        "\"store.open.mapped\": 1"
    } else {
        "\"store.open.heap\": 1"
    };
    for needle in [
        opened,
        "\"store.verify.bytes_hashed\"",
        "\"store.snapshot_open_ns\"",
    ] {
        assert!(
            stats.contains(needle),
            "stats output missing {needle}:\n{stats}"
        );
    }
}

/// Damaged files through the mapped open: a flipped payload byte is a
/// checksum mismatch for `verify` and for a `query --store` that reads
/// every column group of every layer (a layer is checked when a query
/// first reaches it, its tree columns and attribute table when a query
/// first reads them, so the damage cannot hide from it), and a file
/// cut to 0 or 7 bytes — the empty one cannot even be mapped — is the
/// categorized truncation error, never a panic or a raw OS error.
#[test]
fn damaged_snapshots_fail_categorized_through_the_mapped_open() {
    let (dir, snap) = obs_snapshot("damage");
    let good = std::fs::read(&snap).unwrap();
    let run = |args: &[&str]| -> (bool, String) {
        let out = bin().args(args).output().unwrap();
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!text.contains("panicked"), "{text}");
        assert!(!text.contains("os error"), "{text}");
        (out.status.success(), text)
    };
    let count = r#"count(doc("corpus#tokens")//w)"#;

    // The last section of the file is the checksum table; the byte just
    // before the file's midpoint lies in some layer's column payload or
    // padding — walk until a flip is detected, then require the category.
    let mut flipped = good.clone();
    let at = (good.len() / 2..good.len())
        .find(|&at| {
            flipped = good.clone();
            flipped[at] ^= 0xff;
            let path = write_bytes(&dir, "probe.snap", &flipped);
            !run(&["verify", &path]).0
        })
        .expect("some flip past the midpoint is detected");
    let path = write_bytes(&dir, "flipped.snap", &flipped);
    let (ok, text) = run(&["verify", &path]);
    assert!(
        !ok && text.contains("checksum mismatch"),
        "byte {at}: {text}"
    );
    let every_layer = r#"let $e := (doc("corpus"), doc("corpus#tokens"))//* return count($e/@*) + count($e/node())"#;
    let (ok, text) = run(&["query", "--store", &path, "--query", every_layer]);
    assert!(
        !ok && text.contains("checksum mismatch"),
        "byte {at}: {text}"
    );

    for cut in [0, 7] {
        let path = write_bytes(&dir, "cut.snap", &good[..cut]);
        for args in [
            vec!["query", "--store", &path, "--query", count],
            vec!["verify", &path],
            vec!["inspect", &path],
        ] {
            let (ok, text) = run(&args);
            assert!(!ok, "cut to {cut}: {args:?} succeeded");
            assert!(
                text.contains("truncated") || text.contains("failed to fill whole buffer"),
                "cut to {cut}: {args:?}: {text}"
            );
        }
    }
}

fn write_bytes(dir: &std::path::Path, name: &str, content: &[u8]) -> String {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

/// A reader that goes away (`… | head -1`) ends a one-shot subcommand
/// quietly: no `panicked … Broken pipe` on stderr, and not exit status
/// 101, which is outside the documented `0 / 1 / 2`. The read end is
/// closed before the child can have printed anything, and the `query`
/// and `batch` outputs exceed any pipe buffer besides.
#[test]
fn closed_stdout_pipe_ends_the_process_quietly() {
    use std::process::Stdio;
    let dir = tmp_dir("sigpipe");
    let base = write(&dir, "base.xml", "<text>x</text>");
    let mut tokens = String::from("<tokens>");
    for k in 0..6_000 {
        tokens.push_str(&format!(r#"<w n="{k}" start="{k}" end="{k}"/>"#));
    }
    tokens.push_str("</tokens>");
    let tokens = write(&dir, "tokens.xml", &tokens);
    let snap = dir.join("corpus.snap").to_string_lossy().into_owned();
    let layer = format!("tokens={tokens}");
    let out = bin()
        .args([
            "index", &base, "-o", &snap, "--uri", "corpus", "--layer", &layer,
        ])
        .output()
        .unwrap();
    assert_success(&out, "index");
    let all_tokens = r#"doc("corpus#tokens")//w"#;
    let batch = write(&dir, "queries.txt", &format!("{all_tokens}\n").repeat(4));
    let cases: [&[&str]; 3] = [
        &["inspect", &snap, "--sections"],
        &["query", "--store", &snap, "--query", all_tokens],
        &["batch", "--store", &snap, &batch],
    ];
    for args in cases {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
