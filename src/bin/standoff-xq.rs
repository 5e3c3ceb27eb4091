//! `standoff-xq` — command-line StandOff XQuery runner and store tool.
//!
//! ```text
//! standoff-xq index <base.xml> -o <snapshot> [--layer NAME=FILE]...
//!             [--uri URI] [--standoff-start N] [--standoff-end N]
//!             [--standoff-region N] [--lenient]
//! standoff-xq inspect <snapshot>
//! standoff-xq query [--store SNAPSHOT]... [--load URI=FILE]...
//!             (--query Q | --query-file F)
//!             [--strategy naive|naive-candidates|basic|loop-lifted]
//!             [--no-pushdown] [--time]
//! standoff-xq explain [--store SNAPSHOT]... [--load URI=FILE]...
//!             (--query Q | --query-file F)
//!             [--strategy ...] [--no-pushdown]
//! standoff-xq batch [--store SNAPSHOT]... [--load URI=FILE]...
//!             [--threads N] [--time] <queries.txt | ->
//! ```
//!
//! `index` bulk-loads a base document plus any number of stand-off
//! annotation layers, builds every region index once, and writes a binary
//! snapshot; `query --store` reopens it without parsing or index
//! construction (`--load URI=FILE` parses an XML file at startup
//! instead). Every invocation names its subcommand; anything else is a
//! usage error:
//!
//! ```text
//! standoff-xq index corpus.xml -o corpus.snap --uri corpus \
//!             --layer tokens=tokens.xml --layer entities=entities.xml
//! standoff-xq query --store corpus.snap \
//!             --query 'doc("corpus#entities")//person/select-narrow::w'
//! standoff-xq batch --store corpus.snap --threads 4 queries.txt
//! ```
//!
//! `batch` evaluates many queries against one shared corpus: the engine
//! is frozen after loading, worker threads each get a session over it,
//! and results print to stdout in submission order (so output is
//! byte-identical across `--threads` settings). `--threads` is
//! inter-query fan-out only: every single query evaluates sequentially.
//! In the queries file,
//! lines containing only `%%` separate multi-line queries; without any
//! `%%` line, every non-empty line that does not start with `#` is one
//! query. In `%%` mode, `#` comment lines are honored at the start of
//! each block (a `#` inside a query body is query text). Failed queries
//! print `!! error: …` in place of a result and flip the exit code to
//! 1; no query input can bring the process down.
//!
//! `explain` compiles the query against the loaded corpus and prints
//! the **optimized plan** to stdout — the same plan object `query`
//! would execute, including per-operator StandOff strategy, candidate
//! pushdown, and cardinality estimates from the mounted region
//! indexes.
//!
//! All subcommands print diagnostics to stderr and never panic. Exit
//! codes: **0** success; **1** query failure (parse, compile, or
//! evaluation error — including any failed query in a `batch`);
//! **2** usage or corpus-loading errors (bad flags, missing files,
//! unreadable snapshots).

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use standoff::core::obs::escape_json;
use standoff::core::{StandoffConfig, StandoffStrategy};
use standoff::serve::{self, ServeMount, ServeOptions, Server};
use standoff::store::{
    audit_delta, compact, parse_ops, recover_delta, recover_delta_for_write, save_snapshot,
    wal_path, DeltaSet, LayerSet, Snapshot,
};
use standoff::xquery::{Engine, EngineOptions, Executor, Governance, WritableEngine};

const USAGE: &str = "standoff-xq index <base.xml> -o <snapshot> [--layer NAME=FILE]... [--uri URI]\n\
                     \x20           [--standoff-start N] [--standoff-end N] [--standoff-region N] [--lenient]\n\
                     standoff-xq inspect <snapshot> [--sections]\n\
                     standoff-xq annotate --store SNAPSHOT --delta SIDECAR [--journal] <ops.txt | ->\n\
                     standoff-xq compact --store SNAPSHOT [--delta SIDECAR]... -o <snapshot>\n\
                     standoff-xq verify <snapshot> [--delta SIDECAR]... [--json]\n\
                     standoff-xq query [--store SNAPSHOT [--delta SIDECAR]...]... [--load URI=FILE]...\n\
                     \x20           (--query Q | --query-file F)\n\
                     \x20           [--strategy naive|naive-candidates|basic|loop-lifted]\n\
                     \x20           [--no-pushdown] [--time] [--profile] [--profile-json]\n\
                     standoff-xq explain [--store SNAPSHOT]... [--load URI=FILE]...\n\
                     \x20           (--query Q | --query-file F) [--strategy ...] [--no-pushdown] [--analyze]\n\
                     standoff-xq batch [--store SNAPSHOT]... [--load URI=FILE]...\n\
                     \x20           [--strategy ...] [--no-pushdown] [--threads N] [--time]\n\
                     \x20           [--profile] [--profile-json] <queries.txt | ->\n\
                     standoff-xq stats [--store SNAPSHOT]... [--load URI=FILE]...\n\
                     \x20           [--strategy ...] [--no-pushdown] [queries.txt | -]\n\
                     standoff-xq serve [--listen ADDR] [--store SNAPSHOT]... [--strategy ...] [--no-pushdown]\n\
                     \x20           [--threads N] [--deadline-ms N] [--max-results N] [--max-scratch-mb N]\n\
                     \x20           [--queue-cap N] [--read-timeout-ms N]\n\
                     standoff-xq call ADDR VERB [ARG...] [--retries N]   (verbs: ping, query Q, stats,\n\
                     \x20           mount PATH, unmount URI, mounts, shutdown)\n\
                     governance (query/batch too): --deadline-ms N --max-results N --max-scratch-mb N\n\
                     exit codes: 0 success, 1 query failure (verify: corruption), 2 usage/corpus error";

fn main() -> ExitCode {
    // Crash-recovery harnesses arm fault points through the
    // environment (STANDOFF_FAULT=point=abort,...); a no-op unless the
    // binary was built with the `fault-inject` feature.
    standoff::core::fault::arm_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Every one-shot subcommand prints to a pipe the reader may close
    // early (`inspect --sections | head -1`); the server must outlive
    // whoever read its ready line.
    if argv.first().is_some_and(|sub| sub != "serve") {
        die_quietly_on_closed_pipe();
    }
    let result = match argv.first().map(String::as_str) {
        Some("index") => cmd_index(&argv[1..]),
        Some("inspect") => cmd_inspect(&argv[1..]),
        Some("annotate") => cmd_annotate(&argv[1..]),
        Some("compact") => cmd_compact(&argv[1..]),
        Some("verify") => cmd_verify(&argv[1..]),
        Some("query") => cmd_query(&argv[1..]),
        Some("explain") => cmd_explain(&argv[1..]),
        Some("batch") => cmd_batch(&argv[1..]),
        Some("stats") => cmd_stats(&argv[1..]),
        Some("serve") => cmd_serve(&argv[1..]),
        Some("call") => cmd_call(&argv[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
        None => Err(format!("no subcommand given\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("standoff-xq: {e}");
            ExitCode::from(2)
        }
    }
}

/// Restore the default `SIGPIPE` disposition, which the Rust runtime
/// sets to "ignore": a write to a pipe whose reader went away then ends
/// the process by that signal, like any Unix filter, where `println!`
/// would panic on the `EPIPE` — a backtrace and exit status 101,
/// outside the documented exit codes. Sockets are unaffected (std
/// sends with `MSG_NOSIGNAL`).
#[cfg(unix)]
fn die_quietly_on_closed_pipe() {
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` with `SIG_DFL` installs no handler code; it is
    // called once, before any other thread exists.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn die_quietly_on_closed_pipe() {}

// Raw libc `signal(2)` binding — the workspace stays dependency-free.
// `handler` is a `SIG_*` constant or the address of an `extern "C" fn(i32)`.
#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

// ---- index ----

fn cmd_index(argv: &[String]) -> Result<ExitCode, String> {
    let mut base: Option<String> = None;
    let mut out: Option<String> = None;
    let mut uri: Option<String> = None;
    let mut layers: Vec<(String, String)> = Vec::new();
    let mut config = StandoffConfig::default();
    let mut k = 0;
    while k < argv.len() {
        match argv[k].as_str() {
            "-o" | "--out" => {
                k += 1;
                out = Some(argv.get(k).ok_or("-o needs a path")?.clone());
            }
            "--uri" => {
                k += 1;
                uri = Some(argv.get(k).ok_or("--uri needs a value")?.clone());
            }
            "--layer" => {
                k += 1;
                let spec = argv.get(k).ok_or("--layer needs NAME=FILE")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("bad --layer '{spec}', expected NAME=FILE"))?;
                layers.push((name.to_string(), path.to_string()));
            }
            "--standoff-start" => {
                k += 1;
                config.start_name = argv.get(k).ok_or("--standoff-start needs a name")?.clone();
            }
            "--standoff-end" => {
                k += 1;
                config.end_name = argv.get(k).ok_or("--standoff-end needs a name")?.clone();
            }
            "--standoff-region" => {
                k += 1;
                config.region_name =
                    Some(argv.get(k).ok_or("--standoff-region needs a name")?.clone());
            }
            "--lenient" => config.lenient = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if !other.starts_with('-') && base.is_none() => base = Some(other.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        k += 1;
    }
    let base = base.ok_or("index: no base document given")?;
    let out = out.ok_or("index: no output path (-o)")?;
    let uri = uri.unwrap_or_else(|| base.clone());

    let base_doc = parse_file(&base)?;
    let mut set =
        LayerSet::build(&uri, base_doc, config.clone()).map_err(|e| format!("{base}: {e}"))?;
    for (name, path) in &layers {
        let doc = parse_file(path)?;
        set.add_layer(name, doc, config.clone())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    save_snapshot(&set, &out).map_err(|e| format!("{out}: {e}"))?;

    let annotations: usize = set.layers().iter().map(|l| l.annotation_count()).sum();
    eprintln!(
        "# indexed {} layer(s), {annotations} annotation(s) -> {out} (uri '{uri}', v4 columnar)",
        set.len(),
    );
    Ok(ExitCode::SUCCESS)
}

/// The contents of `path`, or of stdin for `-`.
fn read_text_or_stdin(path: &str) -> Result<String, String> {
    if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

fn parse_file(path: &str) -> Result<standoff::xml::Document, String> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    standoff::xml::parse_document(&xml).map_err(|e| format!("{path}: {e}"))
}

// ---- inspect ----

fn cmd_inspect(argv: &[String]) -> Result<ExitCode, String> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let sections = argv.iter().any(|a| a == "--sections");
    let paths: Vec<&String> = argv.iter().filter(|a| *a != "--sections").collect();
    let [path] = paths[..] else {
        return Err(format!("inspect takes exactly one snapshot path\n{USAGE}"));
    };
    // A pure header walk: uri, layer names and counts live in the
    // section table + layer headers, so no payload is read (let alone
    // decoded). `query --store` is the integrity-proving path.
    let snapshot = Snapshot::open(path).map_err(|e| format!("{path}: {e}"))?;
    let info = snapshot.info();
    println!("snapshot {path}");
    println!("  format:  v{}", info.version);
    println!("  uri:     {}", info.uri);
    println!("  layers:  {}", info.layers.len());
    println!("  payload: {} byte(s)", info.payload_bytes);
    // How a reader holds this file and which CRC loop verifies it: the
    // two facts a slow cold start is explained from.
    println!("  backing: {}", snapshot.backing());
    println!("  crc32:   {}", standoff::core::crc::implementation());
    for layer in &info.layers {
        println!(
            "  - {:<12} {:>8} byte(s)  {:>7} node(s)  {:>7} annotation(s)",
            layer.name, layer.bytes, layer.nodes, layer.annotations,
        );
        if sections {
            for s in &layer.sections {
                println!("      {:<22} {:>8} byte(s)", s.name, s.bytes);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---- annotate / compact ----

/// Every layer of the snapshot at `path`, materialized.
fn open_layer_set(path: &str) -> Result<LayerSet, String> {
    Snapshot::open(path)
        .and_then(|snapshot| snapshot.to_layer_set())
        .map_err(|e| format!("{path}: {e}"))
}

/// Recover delta sidecars (checkpoint + journal each) against a layer
/// set, in order, into one pending delta.
fn load_delta<S: AsRef<Path>>(sidecars: &[S], set: &LayerSet) -> Result<DeltaSet, String> {
    let mut delta = DeltaSet::new();
    for path in sidecars {
        recover_delta(path.as_ref(), set, &mut delta).map_err(|e| e.to_string())?;
    }
    Ok(delta)
}

/// `annotate`: apply a batch of insert/retract ops to a snapshot's
/// delta sidecar. The snapshot file itself is never touched — the ops
/// land in the sidecar (and its WAL), which `query`/`stats`/`compact`
/// replay via `--delta`. It is a `WritableEngine` client: the pending
/// delta is recovered in writer mode, mounted, and the batch goes
/// through `apply` — validated against the snapshot and proven
/// mountable before anything is persisted, so a bad op leaves the
/// sidecar and its journal exactly as they were.
///
/// Durability: the default mode checkpoints — recovered journal
/// batches plus the new one are folded into the sidecar (atomic
/// rewrite), then the WAL is truncated. `--journal` instead appends the
/// validated batch to the WAL only — one fsync'd append, no sidecar
/// rewrite — which is the fast path for high-frequency writers; the
/// batch is durable the moment the command exits 0 and survives
/// SIGKILL.
fn cmd_annotate(argv: &[String]) -> Result<ExitCode, String> {
    let mut store: Option<String> = None;
    let mut sidecar: Option<String> = None;
    let mut ops_path: Option<String> = None;
    let mut journal = false;
    let mut k = 0;
    while k < argv.len() {
        match argv[k].as_str() {
            "--store" => {
                k += 1;
                store = Some(argv.get(k).ok_or("--store needs a path")?.clone());
            }
            "--delta" => {
                k += 1;
                sidecar = Some(argv.get(k).ok_or("--delta needs a path")?.clone());
            }
            "--journal" => journal = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if !other.starts_with('-') || other == "-" => {
                if ops_path.is_some() {
                    return Err(format!("annotate takes exactly one ops file\n{USAGE}"));
                }
                ops_path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        k += 1;
    }
    let store = store.ok_or("annotate: no snapshot given (--store)")?;
    let sidecar = sidecar.ok_or("annotate: no delta sidecar given (--delta)")?;
    let ops_path = ops_path.ok_or("annotate: no ops file given ('-' for stdin)")?;

    let set = open_layer_set(&store)?;
    let sidecar = Path::new(&sidecar);
    let mut delta = DeltaSet::new();
    let (wal, _) = recover_delta_for_write(sidecar, &set, &mut delta).map_err(|e| e.to_string())?;
    let text = read_text_or_stdin(&ops_path)?;
    let ops = parse_ops(&text).map_err(|e| format!("{ops_path}: {e}"))?;
    // `apply` validates the batch and proves its compacted view mounts
    // — the same fold every later `--delta` reader runs — before
    // anything is persisted.
    let mut engine = WritableEngine::mount_with_delta(set, delta, EngineOptions::default())
        .map_err(|e| format!("{store}: {e}"))?;
    // `--journal` is the fast path: `apply` appends the batch to the
    // WAL — one fsync — and the sidecar waits for the next default-mode
    // annotate, which checkpoints the whole pending delta.
    let mut wal = Some(wal);
    if journal {
        engine.set_wal(wal.take());
    }
    let applied = engine.apply(ops).map_err(|e| format!("{ops_path}: {e}"))?;
    let pending = format!(
        "pending {} insert(s), {} retract(s)",
        engine.delta().insert_count(),
        engine.delta().retract_count(),
    );
    match wal {
        None => eprintln!(
            "# journaled {applied} op(s); {pending} -> {}",
            wal_path(sidecar).display()
        ),
        Some(mut wal) => {
            wal.checkpoint(sidecar, engine.delta())
                .map_err(|e| format!("cannot write {}: {e}", sidecar.display()))?;
            eprintln!(
                "# applied {applied} op(s); {pending} -> {}",
                sidecar.display()
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `compact`: fold a snapshot plus its delta sidecar(s) into a fresh,
/// delta-free snapshot. The sidecars are left on disk but no longer
/// apply to the compacted output (their annotations are baked in).
fn cmd_compact(argv: &[String]) -> Result<ExitCode, String> {
    let mut store: Option<String> = None;
    let mut sidecars: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut k = 0;
    while k < argv.len() {
        match argv[k].as_str() {
            "--store" => {
                k += 1;
                store = Some(argv.get(k).ok_or("--store needs a path")?.clone());
            }
            "--delta" => {
                k += 1;
                sidecars.push(argv.get(k).ok_or("--delta needs a path")?.clone());
            }
            "-o" | "--out" => {
                k += 1;
                out = Some(argv.get(k).ok_or("-o needs a path")?.clone());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        k += 1;
    }
    let store = store.ok_or("compact: no snapshot given (--store)")?;
    let out = out.ok_or("compact: no output path (-o)")?;

    let set = open_layer_set(&store)?;
    let delta = load_delta(&sidecars, &set)?;
    let folded = compact(&set, &delta).map_err(|e| format!("{store}: {e}"))?;
    save_snapshot(&folded, &out).map_err(|e| format!("{out}: {e}"))?;
    let annotations: usize = folded.layers().iter().map(|l| l.annotation_count()).sum();
    let compact_ns = standoff::core::MetricsRegistry::global()
        .histogram("store.compact_ns")
        .snapshot()
        .mean();
    eprintln!(
        "# compacted {} insert(s), {} retract(s) into {} layer(s), {annotations} annotation(s) \
         in {:.2}ms -> {out}",
        delta.insert_count(),
        delta.retract_count(),
        folded.len(),
        compact_ns as f64 / 1e6,
    );
    Ok(ExitCode::SUCCESS)
}

// ---- verify ----

/// `verify`: fsck for a snapshot and its delta sidecar(s).
///
/// Deep-checks everything the lazy read path defers: every section
/// CRC32, full structural revalidation of every layer, sidecar
/// ops parse + replay, WAL scan (per-record CRCs, sequence
/// monotonicity), checkpoint/WAL consistency, and a proof that the
/// compacted view readers mount builds, when sidecars are given. A torn WAL tail is *reported* but
/// clean — it is an uncommitted append, not data loss.
///
/// Exit codes: **0** everything verifiable is intact; **1** corruption
/// or invariant violations (each finding listed); **2** usage errors
/// or unreadable paths.
fn cmd_verify(argv: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut path: Option<String> = None;
    let mut sidecars: Vec<String> = Vec::new();
    let mut k = 0;
    while k < argv.len() {
        match argv[k].as_str() {
            "--json" => json = true,
            "--delta" => {
                k += 1;
                sidecars.push(argv.get(k).ok_or("--delta needs a path")?.clone());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if !other.starts_with('-') => {
                if path.is_some() {
                    return Err(format!("verify takes exactly one snapshot path\n{USAGE}"));
                }
                path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        k += 1;
    }
    let path = path.ok_or("verify: no snapshot given")?;

    let mut findings: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    // Unreadable is a usage error (wrong path, permissions); readable
    // but damaged — or of a version this build refuses — is a finding,
    // under a header line naming the version the file actually declares.
    let version = Snapshot::peek_version(&path).map_err(|e| format!("{path}: {e}"))?;
    let (mut layers, mut sections_checked) = (0, 0);
    let mut backing = "none";
    let verified = Snapshot::open(&path).and_then(|snapshot| {
        backing = snapshot.backing();
        let report = snapshot.verify()?;
        Ok((snapshot, report))
    });
    let set = match verified {
        Ok((snapshot, report)) => {
            layers = report.layers;
            sections_checked = report.sections_checked;
            match snapshot.to_layer_set() {
                Ok(set) => Some(set),
                Err(e) => {
                    findings.push(format!("{path}: {e}"));
                    None
                }
            }
        }
        Err(e) => {
            findings.push(format!("{path}: {e}"));
            None
        }
    };
    let crc = standoff::core::crc::implementation();

    // The readers' recovery walk, except that damage is a finding and
    // the walk goes on; without a mountable snapshot the ops are still
    // parsed and the journal still scanned, just not replayed.
    let mut delta_checks = Vec::new();
    let mut delta = DeltaSet::new();
    for sidecar in &sidecars {
        let report = audit_delta(
            Path::new(sidecar),
            &mut |ops| match &set {
                Some(set) => delta.apply_all(ops, set).map(drop),
                None => Ok(()),
            },
            &mut |damage| {
                findings.push(damage.to_string());
                Ok(())
            },
        )
        .map_err(|e| e.to_string())?;
        if report.journal_only {
            notes.push(format!("{sidecar}: no checkpoint yet (journal-only delta)"));
        }
        if report.torn_tail {
            notes.push(format!(
                "{}: torn tail after {} committed record(s) — an append \
                 died mid-write; the batch was never committed and the \
                 next writer truncates it",
                wal_path(Path::new(sidecar)).display(),
                report.replayed + report.skipped,
            ));
        }
        delta_checks.push((sidecar, report));
    }
    // Fold proof: the compacted view every `--delta` reader mounts
    // must itself validate — each folded layer re-derived from its
    // document, which the fold itself skips.
    if let Some(set) = set {
        if !sidecars.is_empty() && findings.is_empty() {
            let checked = compact(&set, &delta).and_then(|view| {
                (delta.layer_names().into_iter())
                    .filter_map(|name| view.layer(name))
                    .try_for_each(|layer| layer.check())
            });
            if let Err(e) = checked {
                findings.push(format!("compacted view: {e}"));
            }
        }
    }

    let clean = findings.is_empty();
    if json {
        let deltas = delta_checks
            .iter()
            .map(|(path, d)| {
                format!(
                    "{{\"path\":\"{}\",\"ops\":{},\"checkpoint_seq\":{},\"wal_records\":{},\
                     \"wal_skipped\":{},\"wal_torn_tail\":{}}}",
                    escape_json(path),
                    d.checkpoint_ops,
                    d.checkpoint_seq,
                    d.replayed,
                    d.skipped,
                    d.torn_tail,
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let list = |items: &[String]| {
            items
                .iter()
                .map(|f| format!("\"{}\"", escape_json(f)))
                .collect::<Vec<_>>()
                .join(",")
        };
        println!(
            "{{\"snapshot\":\"{}\",\"version\":{},\
             \"layers\":{layers},\"sections_checked\":{sections_checked},\
             \"backing\":\"{backing}\",\"crc32\":\"{crc}\",\"deltas\":[{deltas}],\
             \"notes\":[{}],\"findings\":[{}],\"status\":\"{}\"}}",
            escape_json(&path),
            version.map_or("null".to_string(), |v| v.to_string()),
            list(&notes),
            list(&findings),
            if clean { "clean" } else { "corrupt" },
        );
    } else {
        println!(
            "# {path}: {}, {layers} layer(s), {sections_checked} section checksum(s), \
             backing {backing}, crc32 {crc}",
            version.map_or("unreadable header".to_string(), |v| format!("v{v}")),
        );
        for (path, d) in &delta_checks {
            println!(
                "# {path}: {} checkpoint op(s), {} wal record(s), {} already checkpointed{}",
                d.checkpoint_ops,
                d.replayed,
                d.skipped,
                if d.torn_tail { ", torn tail" } else { "" },
            );
        }
        for n in &notes {
            println!("note: {n}");
        }
        for f in &findings {
            println!("finding: {f}");
        }
        if clean {
            println!("{path}: ok");
        } else {
            println!("{path}: CORRUPT ({} finding(s))", findings.len());
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---- shared corpus flags (query + batch) ----

/// The corpus-shaping flags `query` and `batch` have in common.
#[derive(Default)]
struct CorpusArgs {
    stores: Vec<String>,
    /// `--delta SIDECAR` overlays, keyed by the index of the `--store`
    /// they follow (a sidecar addresses layers of one snapshot).
    deltas: Vec<(usize, String)>,
    loads: Vec<(String, String)>,
    strategy: Option<StandoffStrategy>,
    pushdown: bool,
}

impl CorpusArgs {
    fn new() -> CorpusArgs {
        CorpusArgs {
            pushdown: true,
            ..CorpusArgs::default()
        }
    }

    /// Try to consume the flag at `argv[*k]` (and its value). Returns
    /// whether the flag was one of ours; `*k` is left on the last
    /// consumed token either way.
    fn try_consume(&mut self, argv: &[String], k: &mut usize) -> Result<bool, String> {
        match argv[*k].as_str() {
            "--store" => {
                *k += 1;
                self.stores
                    .push(argv.get(*k).ok_or("--store needs a path")?.clone());
            }
            "--delta" => {
                *k += 1;
                let path = argv.get(*k).ok_or("--delta needs a path")?.clone();
                if self.stores.is_empty() {
                    return Err("--delta must follow the --store it overlays".to_string());
                }
                self.deltas.push((self.stores.len() - 1, path));
            }
            "--load" => {
                *k += 1;
                let spec = argv.get(*k).ok_or("--load needs URI=FILE")?;
                let (uri, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("bad --load '{spec}', expected URI=FILE"))?;
                self.loads.push((uri.to_string(), path.to_string()));
            }
            "--strategy" => {
                *k += 1;
                let name = argv.get(*k).ok_or("--strategy needs a name")?;
                self.strategy = Some(
                    StandoffStrategy::parse(name)
                        .ok_or_else(|| format!("unknown strategy '{name}'"))?,
                );
            }
            "--no-pushdown" => self.pushdown = false,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Build an engine with every snapshot mounted and every document
    /// loaded. All I/O and parse failures surface as diagnostics.
    fn build_engine(&self) -> Result<Engine, String> {
        let mut engine = Engine::new();
        if let Some(strategy) = self.strategy {
            engine.set_strategy(strategy);
        }
        engine.set_candidate_pushdown(self.pushdown);
        for (i, path) in self.stores.iter().enumerate() {
            let sidecars: Vec<&String> = self
                .deltas
                .iter()
                .filter(|(store, _)| *store == i)
                .map(|(_, p)| p)
                .collect();
            if sidecars.is_empty() {
                let snapshot = Snapshot::open(path).map_err(|e| format!("{path}: {e}"))?;
                engine
                    .mount_snapshot(&snapshot)
                    .map_err(|e| format!("{path}: {e}"))?;
            } else {
                // Recover the sidecars over the snapshot's layer set and
                // mount the delta folded in.
                let set = open_layer_set(path)?;
                let delta = load_delta(&sidecars, &set)?;
                let view = compact(&set, &delta).map_err(|e| format!("{path}: {e}"))?;
                engine
                    .mount_store(view)
                    .map_err(|e| format!("{path}: {e}"))?;
            }
        }
        for (uri, path) in &self.loads {
            let xml =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            engine
                .load_document(uri, &xml)
                .map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(engine)
    }
}

// ---- resource-governance flags (query + batch + serve) ----

/// Per-request resource caps, shared by `query`, `batch` and `serve`.
#[derive(Clone, Copy, Default)]
struct GovFlags {
    deadline_ms: Option<u64>,
    max_results: Option<u64>,
    max_scratch_mb: Option<u64>,
    queue_cap: Option<usize>,
}

impl GovFlags {
    /// Try to consume the flag at `argv[*k]` (and its value), like
    /// [`CorpusArgs::try_consume`].
    fn try_consume(&mut self, argv: &[String], k: &mut usize) -> Result<bool, String> {
        fn value(argv: &[String], k: &mut usize, flag: &str) -> Result<u64, String> {
            *k += 1;
            let v = argv
                .get(*k)
                .ok_or_else(|| format!("{flag} needs a number"))?;
            v.parse::<u64>()
                .map_err(|_| format!("bad {flag} '{v}', expected a non-negative integer"))
        }
        match argv[*k].as_str() {
            "--deadline-ms" => self.deadline_ms = Some(value(argv, k, "--deadline-ms")?),
            "--max-results" => self.max_results = Some(value(argv, k, "--max-results")?),
            "--max-scratch-mb" => self.max_scratch_mb = Some(value(argv, k, "--max-scratch-mb")?),
            "--queue-cap" => self.queue_cap = Some(value(argv, k, "--queue-cap")? as usize),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn governance(&self) -> Governance {
        Governance {
            queue_cap: self.queue_cap,
            deadline: self.deadline_ms.map(Duration::from_millis),
            max_results: self.max_results,
            max_scratch_bytes: self.max_scratch_mb.map(|mb| mb * 1024 * 1024),
        }
    }
}

/// The value of `--threads N` / `-j N` at `argv[*k]` — the executor's
/// worker count for `batch` (inter-query fan-out) and `serve`.
fn threads_value(argv: &[String], k: &mut usize) -> Result<usize, String> {
    *k += 1;
    let n = argv.get(*k).ok_or("--threads needs a count")?;
    n.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("bad --threads '{n}', expected a positive integer"))
}

// ---- query ----

struct QueryArgs {
    corpus: CorpusArgs,
    gov: GovFlags,
    query: String,
    time: bool,
    profile: bool,
    profile_json: bool,
    analyze: bool,
}

fn parse_query_args(argv: &[String]) -> Result<QueryArgs, String> {
    let mut corpus = CorpusArgs::new();
    let mut gov = GovFlags::default();
    let mut query: Option<String> = None;
    let mut time = false;
    let mut profile = false;
    let mut profile_json = false;
    let mut analyze = false;
    let mut k = 0;
    while k < argv.len() {
        if corpus.try_consume(argv, &mut k)? || gov.try_consume(argv, &mut k)? {
            k += 1;
            continue;
        }
        match argv[k].as_str() {
            "--query" | "-q" => {
                k += 1;
                query = Some(argv.get(k).ok_or("--query needs an argument")?.clone());
            }
            "--query-file" => {
                k += 1;
                let path = argv.get(k).ok_or("--query-file needs a path")?;
                query = Some(
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?,
                );
            }
            "--time" => time = true,
            "--profile" => profile = true,
            "--profile-json" => profile_json = true,
            "--analyze" => analyze = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        k += 1;
    }
    let query = query.ok_or("no query given (--query or --query-file)")?;
    Ok(QueryArgs {
        corpus,
        gov,
        query,
        time,
        profile,
        profile_json,
        analyze,
    })
}

fn cmd_query(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_query_args(argv)?;
    let load_start = Instant::now();
    let mut engine = args.corpus.build_engine()?;
    // Under `--deadline-ms`/`--max-results`/`--max-scratch-mb` the one
    // query runs on a budget; over-budget it fails with a clean
    // timeout/limit error and exit code 1, never partial output.
    engine.set_budget(args.gov.governance().fresh_budget());
    let load_elapsed = load_start.elapsed();
    // Profiled runs share the execution: one query, result on stdout,
    // measurements on stderr (stdout stays result-clean for pipelines).
    if args.profile || args.profile_json {
        let start = Instant::now();
        return match engine.run_profiled(&args.query) {
            Ok((result, profile)) => {
                if args.profile {
                    eprint!("{}", profile.render());
                }
                if args.profile_json {
                    eprintln!("{}", profile.to_json());
                }
                if args.time {
                    eprintln!("{}", time_line(&engine, &result, start, load_elapsed));
                }
                println!("{}", result.as_xml());
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                eprintln!("standoff-xq: {e}");
                Ok(ExitCode::FAILURE)
            }
        };
    }
    let start = Instant::now();
    match engine.run(&args.query) {
        Ok(result) => {
            if args.time {
                eprintln!("{}", time_line(&engine, &result, start, load_elapsed));
            }
            println!("{}", result.as_xml());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("standoff-xq: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `query --time`'s line. Layers materialize when the query first
/// reaches them, so that work is inside the query's time; it is named
/// separately so a cold start still shows where it went.
fn time_line(
    engine: &Engine,
    result: &standoff::xquery::QueryResult,
    start: Instant,
    load: Duration,
) -> String {
    let materialize = engine
        .metrics()
        .histogram("engine.snapshot_materialize_ns")
        .snapshot()
        .sum;
    format!(
        "# {} item(s) in {:?} (load {:?}, materialize {:?} [{}])",
        result.len(),
        start.elapsed(),
        load,
        Duration::from_nanos(materialize),
        engine.materialized_layers().join(", ")
    )
}

// ---- explain ----

/// First-class plan printer: compile the query against the loaded
/// corpus and print the optimized plan to stdout without executing it.
fn cmd_explain(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_query_args(argv)?;
    let mut engine = args.corpus.build_engine()?;
    // `--analyze` is explain's *executing* mode: run the query with
    // per-operator profiling and print the plan tree with measured
    // calls/rows/time next to the optimizer's estimates.
    let rendered = if args.analyze {
        engine.explain_analyze(&args.query)
    } else {
        engine.explain(&args.query)
    };
    match rendered {
        Ok(plan) => {
            print!("{plan}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("standoff-xq: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

// ---- batch ----

fn cmd_batch(argv: &[String]) -> Result<ExitCode, String> {
    let mut corpus = CorpusArgs::new();
    let mut gov = GovFlags::default();
    let mut threads = 1usize;
    let mut time = false;
    let mut profile = false;
    let mut profile_json = false;
    let mut queries_path: Option<String> = None;
    let mut k = 0;
    while k < argv.len() {
        if corpus.try_consume(argv, &mut k)? || gov.try_consume(argv, &mut k)? {
            k += 1;
            continue;
        }
        match argv[k].as_str() {
            "--threads" | "-j" => threads = threads_value(argv, &mut k)?,
            "--time" => time = true,
            "--profile" => profile = true,
            "--profile-json" => profile_json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if !other.starts_with('-') || other == "-" => {
                if queries_path.is_some() {
                    return Err(format!("batch takes exactly one queries file\n{USAGE}"));
                }
                queries_path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        k += 1;
    }
    let queries_path = queries_path.ok_or("batch: no queries file given ('-' for stdin)")?;
    let text = read_text_or_stdin(&queries_path)?;
    let queries = split_queries(&text);
    if queries.is_empty() {
        return Err(format!("{queries_path}: no queries found"));
    }

    let load_start = Instant::now();
    let engine = corpus.build_engine()?;
    let load_elapsed = load_start.elapsed();
    // Governed batches give every query its own fresh budget; without
    // governance flags this is exactly `Executor::new`.
    let executor = Executor::governed(engine.into_shared(), threads, gov.governance());

    let start = Instant::now();
    // Profiled batches run the same scheduler; results print to stdout
    // as usual, per-query profiles to stderr keyed by submission index.
    let results = if profile || profile_json {
        let profiled = executor.run_batch_profiled(&queries);
        let mut results = Vec::with_capacity(profiled.len());
        for (k, r) in profiled.into_iter().enumerate() {
            match r {
                Ok((result, prof)) => {
                    if profile {
                        eprintln!("# query {k}");
                        eprint!("{}", prof.render());
                    }
                    if profile_json {
                        eprintln!("{}", prof.to_json());
                    }
                    results.push(Ok(result));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        results
    } else {
        executor.run_batch(&queries)
    };
    let elapsed = start.elapsed();

    let mut failures = 0usize;
    for result in &results {
        match result {
            Ok(r) => println!("{}", r.as_xml()),
            Err(e) => {
                failures += 1;
                println!("!! error: {e}");
            }
        }
    }
    if time {
        let cache = executor.cache();
        eprintln!(
            "# {} quer{} in {:?} on {} thread(s) ({} failed; plan cache {} hit(s) / {} miss(es); load {:?})",
            results.len(),
            if results.len() == 1 { "y" } else { "ies" },
            elapsed,
            executor.threads(),
            failures,
            cache.hits(),
            cache.misses(),
            load_elapsed,
        );
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---- stats ----

/// Mount the corpus, optionally run a batch of queries against it, then
/// dump the merged metrics registry as JSON on stdout: the engine's own
/// registry (query/join/executor/plan-cache counters) merged with the
/// process-global one (store mount/materialization timings). Query
/// results are discarded — this subcommand exists to read the meters.
fn cmd_stats(argv: &[String]) -> Result<ExitCode, String> {
    let mut corpus = CorpusArgs::new();
    let mut queries_path: Option<String> = None;
    let mut k = 0;
    while k < argv.len() {
        if corpus.try_consume(argv, &mut k)? {
            k += 1;
            continue;
        }
        match argv[k].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if !other.starts_with('-') || other == "-" => {
                if queries_path.is_some() {
                    return Err(format!("stats takes at most one queries file\n{USAGE}"));
                }
                queries_path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        k += 1;
    }
    let engine = corpus.build_engine()?;
    let executor = Executor::new(engine.into_shared(), 1);
    let mut failures = 0usize;
    if let Some(path) = &queries_path {
        let text = read_text_or_stdin(path)?;
        let queries = split_queries(&text);
        for (k, result) in executor.run_batch(&queries).iter().enumerate() {
            if let Err(e) = result {
                failures += 1;
                eprintln!("# query {k} failed: {e}");
            }
        }
    }
    let mut snapshot = executor.metrics_snapshot();
    snapshot.merge(&standoff::core::MetricsRegistry::global().snapshot());
    println!("{}", snapshot.to_json());
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---- serve ----

/// Set by the SIGTERM/SIGINT handler; the serve accept loop polls it
/// and drains when it flips.
static STOP: AtomicBool = AtomicBool::new(false);

/// Install SIGTERM/SIGINT handlers that set [`STOP`] — storing to an
/// atomic is async-signal-safe.
#[cfg(unix)]
fn install_stop_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        if STOP.swap(true, Ordering::Relaxed) {
            // Second signal: the operator wants out *now*, not after
            // the drain. `_exit` is async-signal-safe (`exit` is not);
            // 130 = 128 + SIGINT, the conventional interrupt status.
            extern "C" {
                fn _exit(status: i32) -> !;
            }
            unsafe { _exit(130) }
        }
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_stop_handlers() {}

fn cmd_serve(argv: &[String]) -> Result<ExitCode, String> {
    let mut corpus = CorpusArgs::new();
    let mut gov = GovFlags::default();
    let mut listen = "127.0.0.1:7878".to_string();
    let mut threads = 1usize;
    let mut read_timeout_ms = 10_000u64;
    let mut k = 0;
    while k < argv.len() {
        if corpus.try_consume(argv, &mut k)? || gov.try_consume(argv, &mut k)? {
            k += 1;
            continue;
        }
        match argv[k].as_str() {
            "--listen" => {
                k += 1;
                listen = argv.get(k).ok_or("--listen needs HOST:PORT")?.clone();
            }
            "--threads" | "-j" => threads = threads_value(argv, &mut k)?,
            "--read-timeout-ms" => {
                k += 1;
                let n = argv.get(k).ok_or("--read-timeout-ms needs a number")?;
                read_timeout_ms = n
                    .parse::<u64>()
                    .map_err(|_| format!("bad --read-timeout-ms '{n}'"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        k += 1;
    }
    // Hot mount/unmount rebuilds engines from retained snapshots, so
    // serving is snapshot-only: loose documents and delta sidecars
    // have no re-mountable identity.
    if !corpus.loads.is_empty() || !corpus.deltas.is_empty() {
        return Err("serve supports --store snapshots only (no --load/--delta)".into());
    }
    let mut mounts = Vec::with_capacity(corpus.stores.len());
    for path in &corpus.stores {
        mounts.push(ServeMount::open(path).map_err(|e| e.to_string())?);
    }
    let engine_options = EngineOptions {
        strategy: corpus.strategy.unwrap_or(EngineOptions::default().strategy),
        candidate_pushdown: corpus.pushdown,
        ..EngineOptions::default()
    };
    let opts = ServeOptions {
        threads,
        engine: engine_options,
        governance: gov.governance(),
        read_timeout: Duration::from_millis(read_timeout_ms.max(1)),
    };
    let server = Server::bind(&listen, mounts, opts).map_err(|e| format!("{listen}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    install_stop_handlers();
    // The ready line goes to stdout so wrappers can wait for it; all
    // later diagnostics stay on stderr.
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run_until(&STOP).map_err(|e| e.to_string())?;
    eprintln!("standoff-xq: drained, shutting down");
    Ok(ExitCode::SUCCESS)
}

// ---- call ----

/// Connection-level failures worth a retry: the server side closed or
/// refused the socket, which self-heals once it finishes binding or a
/// fresh accept slot opens.
fn is_transient_connect_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

/// One-shot protocol client: `standoff-xq call ADDR VERB [ARG...]`.
/// Prints an `ok` reply's payload to stdout (exit 0); an `err` reply's
/// category and message go to stderr (exit 1); connection failures are
/// usage errors (exit 2).
///
/// Transient connection failures (refused/reset/aborted — a server
/// still binding, or drained mid-handshake) retry with capped
/// exponential backoff, `--retries` times (default 3; 0 disables).
/// Other failures (timeouts, protocol errors) surface immediately.
fn cmd_call(argv: &[String]) -> Result<ExitCode, String> {
    if argv.iter().any(|a| a == "--help") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let mut retries = 3u32;
    let mut positional: Vec<&String> = Vec::new();
    let mut k = 0;
    while k < argv.len() {
        match argv[k].as_str() {
            "--retries" => {
                k += 1;
                let v = argv.get(k).ok_or("--retries needs a count")?;
                retries = v
                    .parse::<u32>()
                    .map_err(|_| format!("bad --retries '{v}', expected a non-negative integer"))?;
            }
            _ => positional.push(&argv[k]),
        }
        k += 1;
    }
    let addr = positional
        .first()
        .ok_or_else(|| format!("call needs ADDR\n{USAGE}"))?;
    let verb = positional
        .get(1)
        .ok_or_else(|| format!("call needs a VERB\n{USAGE}"))?;
    let rest = positional[2..]
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    // `query` carries its text in the body; every other verb is a
    // single `verb arg` line.
    let payload = match (verb.as_str(), rest.is_empty()) {
        ("query", true) => return Err("call ... query needs the query text".into()),
        ("query", false) => format!("query\n{rest}"),
        (_, true) => (*verb).clone(),
        (_, false) => format!("{verb} {rest}"),
    };
    let mut attempt = 0;
    let reply = loop {
        match serve::call(addr.as_str(), &payload) {
            Ok(reply) => break reply,
            Err(e) if attempt < retries && is_transient_connect_error(&e) => {
                // 100ms, 200ms, 400ms, ... capped at 2s.
                let backoff = Duration::from_millis(100 << attempt.min(4));
                eprintln!(
                    "standoff-xq: {addr}: {e}; retrying in {backoff:?} ({} left)",
                    retries - attempt,
                );
                std::thread::sleep(backoff);
                attempt += 1;
            }
            Err(e) => return Err(format!("cannot reach {addr}: {e}")),
        }
    };
    if reply.ok {
        // Tolerate a closed pipe (`call ... stats | head`): losing the
        // tail of the payload is the downstream's choice, not a crash.
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), "{}", reply.body);
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "standoff-xq: {}: {}",
            reply.error_category().unwrap_or("error"),
            reply.message()
        );
        Ok(ExitCode::FAILURE)
    }
}

/// Split a batch file into queries: `%%`-only lines separate multi-line
/// queries; a file without any `%%` line holds one query per non-empty,
/// non-`#` line. In `%%` mode, `#` comment lines are stripped only at
/// the *start* of a block — a `#` inside a query body (a multi-line
/// string literal, a `uri#layer` reference split across lines) must
/// survive untouched.
fn split_queries(text: &str) -> Vec<String> {
    if text.lines().any(|l| l.trim() == "%%") {
        text.split('\n')
            .collect::<Vec<_>>()
            .split(|l| l.trim() == "%%")
            .map(|block| {
                let body_start = block
                    .iter()
                    .position(|l| {
                        let l = l.trim();
                        !l.is_empty() && !l.starts_with('#')
                    })
                    .unwrap_or(block.len());
                block[body_start..].join("\n").trim().to_string()
            })
            .filter(|q| !q.is_empty())
            .collect()
    } else {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::split_queries;

    #[test]
    fn per_line_mode_skips_comments_and_blanks() {
        assert_eq!(
            split_queries("# header\n1 + 1\n\ncount(//x)\n"),
            ["1 + 1", "count(//x)"]
        );
    }

    #[test]
    fn block_mode_splits_on_percent_lines() {
        assert_eq!(
            split_queries("# header\n1 +\n 1\n%%\n\n%%\n2 * 2"),
            ["1 +\n 1", "2 * 2"]
        );
    }

    #[test]
    fn block_mode_keeps_hash_inside_query_bodies() {
        // `corpus#tokens` split across lines must survive; only the
        // leading comment goes.
        assert_eq!(
            split_queries("# corpus queries\ndoc(\"corpus\n#tokens\")//w\n%%\n1"),
            ["doc(\"corpus\n#tokens\")//w", "1"]
        );
    }
}
