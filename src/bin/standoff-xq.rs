//! `standoff-xq` — command-line StandOff XQuery runner and store tool.
//!
//! The subcommands and their flags are listed once, in `USAGE`, which
//! `standoff-xq --help` and every `<subcommand> --help` print. Each
//! subcommand declares its flags once, as a table the one argument
//! parser reads; a flag a subcommand does not read is refused, not
//! ignored.
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
//! `explain` compiles the query and prints the **optimized plan** to
//! stdout — the same plan object `query` would execute, with each
//! StandOff join's strategy and candidate pushdown, and what the loaded
//! corpus holds for it: the layers it reaches and their region entries.
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
                     \x20           [--deadline-ms N] [--max-results N] [--max-scratch-mb N]\n\
                     standoff-xq explain [--store SNAPSHOT]... [--load URI=FILE]...\n\
                     \x20           (--query Q | --query-file F) [--strategy ...] [--no-pushdown] [--analyze]\n\
                     \x20           [--deadline-ms N] [--max-results N] [--max-scratch-mb N]\n\
                     standoff-xq batch [--store SNAPSHOT]... [--load URI=FILE]...\n\
                     \x20           [--strategy ...] [--no-pushdown] [--threads N] [--time]\n\
                     \x20           [--profile] [--profile-json] [--deadline-ms N] [--max-results N]\n\
                     \x20           [--max-scratch-mb N] [--queue-cap N] <queries.txt | ->\n\
                     standoff-xq stats [--store SNAPSHOT]... [--load URI=FILE]...\n\
                     \x20           [--strategy ...] [--no-pushdown] [queries.txt | -]\n\
                     standoff-xq serve [--listen ADDR] [--store SNAPSHOT]... [--strategy ...] [--no-pushdown]\n\
                     \x20           [--deadline-ms N] [--max-results N] [--max-scratch-mb N]\n\
                     \x20           [--queue-cap N] [--read-timeout-ms N] [--threads N (accepted, unused)]\n\
                     standoff-xq call ADDR VERB [ARG...] [--retries N]   (verbs: ping, query Q, stats,\n\
                     \x20           mount PATH, unmount URI, mounts, shutdown)\n\
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

// ---- arguments ----

/// A flag a subcommand reads: its spellings (the first names it in
/// [`Args`] and in errors) and, for a flag that takes a value, the noun
/// of its "needs …" error; `None` marks a switch.
struct Flag(&'static [&'static str], Option<&'static str>);

const STORE: Flag = Flag(&["--store"], Some("a path"));
const DELTA: Flag = Flag(&["--delta"], Some("a path"));
const OUT: Flag = Flag(&["-o", "--out"], Some("a path"));
const THREADS: Flag = Flag(&["--threads", "-j"], Some("a count"));
const CORPUS: &[Flag] = &[
    STORE,
    DELTA,
    Flag(&["--load"], Some("URI=FILE")),
    Flag(&["--strategy"], Some("a name")),
    Flag(&["--no-pushdown"], None),
];
const GOVERNANCE: &[Flag] = &[
    Flag(&["--deadline-ms"], Some("a number")),
    Flag(&["--max-results"], Some("a number")),
    Flag(&["--max-scratch-mb"], Some("a number")),
];
/// The admission queue's cap: only `batch` and `serve` queue requests.
const QUEUE: &[Flag] = &[Flag(&["--queue-cap"], Some("a number"))];
const QUERY_TEXT: &[Flag] = &[
    Flag(&["--query", "-q"], Some("an argument")),
    Flag(&["--query-file"], Some("a path")),
];
const REPORTS: &[Flag] = &[
    Flag(&["--time"], None),
    Flag(&["--profile"], None),
    Flag(&["--profile-json"], None),
];

/// What a subcommand takes besides its flags.
enum Operands {
    Zero,
    /// At most one; a second is refused with this text, or as an
    /// unknown argument without one.
    One(Option<&'static str>),
    /// Any number, and every token that is not a flag is one — `-h` and
    /// other leading dashes included, since `call`'s query text may
    /// start with `-`.
    Any,
}

/// An argv read against a subcommand's flags: each flag given, in argv
/// order and under its first spelling (a switch with an empty value),
/// and the operands.
#[derive(Default)]
struct Args<'a> {
    flags: Vec<(&'static str, &'a str)>,
    operands: Vec<&'a str>,
}

/// Read `argv` against the flag tables `groups`, in order: `--help` or
/// `-h` prints [`USAGE`] and exits 0, a valued flag takes the next
/// token whatever it is, and any other token is an operand or an error.
fn parse<'a>(argv: &'a [String], groups: &[&[Flag]], takes: Operands) -> Result<Args<'a>, String> {
    let mut args = Args::default();
    let mut tokens = argv.iter().map(String::as_str);
    while let Some(token) = tokens.next() {
        let mut flags = groups.iter().copied().flatten();
        if let Some(&Flag([name, ..], noun)) = flags.find(|f| f.0.contains(&token)) {
            let value = match noun {
                Some(noun) => tokens
                    .next()
                    .ok_or_else(|| format!("{name} needs {noun}"))?,
                None => "",
            };
            args.flags.push((name, value));
            continue;
        }
        if token == "--help" || token == "-h" && !matches!(takes, Operands::Any) {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let dashed = token.starts_with('-') && token != "-";
        match takes {
            Operands::Any => args.operands.push(token),
            Operands::One(_) if !dashed && args.operands.is_empty() => args.operands.push(token),
            Operands::One(Some(too_many)) if !dashed => return Err(format!("{too_many}\n{USAGE}")),
            _ => return Err(format!("unknown argument '{token}'\n{USAGE}")),
        }
    }
    Ok(args)
}

impl<'a> Args<'a> {
    fn operand(&self) -> Option<&'a str> {
        self.operands.first().copied()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    /// Every value of the flag `name`, in argv order.
    fn all<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags
            .iter()
            .filter(move |(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    /// The value of the flag `name`; a repeated flag overrides.
    fn last(&self, name: &str) -> Option<&'a str> {
        self.all(name).last()
    }

    /// The value of the integer flag `name`, every occurrence checked to
    /// be at least `min`.
    fn int<T: TryFrom<u64>>(&self, name: &str, min: u64) -> Result<Option<T>, String> {
        let kind = if min == 0 { "non-negative" } else { "positive" };
        self.all(name).try_fold(None, |_, value| {
            let n = value
                .parse()
                .ok()
                .filter(|&n| n >= min)
                .and_then(|n| T::try_from(n).ok());
            n.map(Some)
                .ok_or_else(|| format!("bad {name} '{value}', expected a {kind} integer"))
        })
    }
}

/// `spec` split at its first `=`, for a flag of the form `A=B`.
fn pair<'a>(flag: &str, spec: &'a str, form: &str) -> Result<(&'a str, &'a str), String> {
    spec.split_once('=')
        .ok_or_else(|| format!("bad {flag} '{spec}', expected {form}"))
}

// ---- index ----

fn cmd_index(argv: &[String]) -> Result<ExitCode, String> {
    let flags = [
        OUT,
        Flag(&["--uri"], Some("a value")),
        Flag(&["--layer"], Some("NAME=FILE")),
        Flag(&["--standoff-start"], Some("a name")),
        Flag(&["--standoff-end"], Some("a name")),
        Flag(&["--standoff-region"], Some("a name")),
        Flag(&["--lenient"], None),
    ];
    let args = parse(argv, &[&flags], Operands::One(None))?;
    let layers = args
        .all("--layer")
        .map(|spec| pair("--layer", spec, "NAME=FILE"))
        .collect::<Result<Vec<_>, _>>()?;
    let mut config = StandoffConfig::default();
    if let Some(name) = args.last("--standoff-start") {
        config.start_name = name.to_string();
    }
    if let Some(name) = args.last("--standoff-end") {
        config.end_name = name.to_string();
    }
    config.region_name = args.last("--standoff-region").map(String::from);
    config.lenient = args.has("--lenient");
    let base = args.operand().ok_or("index: no base document given")?;
    let out = args.last("-o").ok_or("index: no output path (-o)")?;
    let uri = args.last("--uri").unwrap_or(base);

    let base_doc = parse_file(base)?;
    let mut set =
        LayerSet::build(uri, base_doc, config.clone()).map_err(|e| format!("{base}: {e}"))?;
    for (name, path) in layers {
        let doc = parse_file(path)?;
        set.add_layer(name, doc, config.clone())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    save_snapshot(&set, out).map_err(|e| format!("{out}: {e}"))?;

    let annotations: usize = set.layers().iter().map(|l| l.annotation_count()).sum();
    eprintln!(
        "# indexed {} layer(s), {annotations} annotation(s) -> {out} (uri '{uri}', v6 columnar)",
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
    const ONE_PATH: &str = "inspect takes exactly one snapshot path";
    let flags = [Flag(&["--sections"], None)];
    let args = parse(argv, &[&flags], Operands::One(Some(ONE_PATH)))?;
    let path = args.operand().ok_or(format!("{ONE_PATH}\n{USAGE}"))?;
    let sections = args.has("--sections");
    // A header walk: uri, layer names and counts live in the section
    // table + layer headers; only the per-layer region-attribute line
    // materializes the layer and reads its attribute table.
    // `query --store` and `verify` are the integrity-proving paths.
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
        // The one line that reads payload: the layer's attribute table.
        let counts = snapshot.layer(&layer.name);
        match counts.and_then(|l| l.region_attribute_counts()) {
            Ok([presented, stored]) => println!(
                "      region attributes: {presented} from the region table, {stored} stored"
            ),
            Err(e) => println!("      region attributes: unreadable: {e}"),
        }
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
    let flags = [STORE, DELTA, Flag(&["--journal"], None)];
    let one = Some("annotate takes exactly one ops file");
    let args = parse(argv, &[&flags], Operands::One(one))?;
    let store = args
        .last("--store")
        .ok_or("annotate: no snapshot given (--store)")?;
    let sidecar = args
        .last("--delta")
        .ok_or("annotate: no delta sidecar given (--delta)")?;
    let ops_path = args
        .operand()
        .ok_or("annotate: no ops file given ('-' for stdin)")?;

    let set = open_layer_set(store)?;
    let sidecar = Path::new(sidecar);
    let mut delta = DeltaSet::new();
    let (wal, _) = recover_delta_for_write(sidecar, &set, &mut delta).map_err(|e| e.to_string())?;
    let text = read_text_or_stdin(ops_path)?;
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
    if args.has("--journal") {
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
    let args = parse(argv, &[&[STORE, DELTA, OUT]], Operands::Zero)?;
    let store = args
        .last("--store")
        .ok_or("compact: no snapshot given (--store)")?;
    let out = args.last("-o").ok_or("compact: no output path (-o)")?;

    let set = open_layer_set(store)?;
    let sidecars: Vec<&str> = args.all("--delta").collect();
    let delta = load_delta(&sidecars, &set)?;
    let folded = compact(&set, &delta).map_err(|e| format!("{store}: {e}"))?;
    save_snapshot(&folded, out).map_err(|e| format!("{out}: {e}"))?;
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
    let one = Some("verify takes exactly one snapshot path");
    let args = parse(
        argv,
        &[&[Flag(&["--json"], None), DELTA]],
        Operands::One(one),
    )?;
    let path = args.operand().ok_or("verify: no snapshot given")?;
    let sidecars: Vec<&str> = args.all("--delta").collect();

    let mut findings: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    // Unreadable is a usage error (wrong path, permissions); readable
    // but damaged — or of a version this build refuses — is a finding,
    // under a header line naming the version the file actually declares.
    let version = Snapshot::peek_version(path).map_err(|e| format!("{path}: {e}"))?;
    let (mut layers, mut sections_checked) = (0, 0);
    let mut backing = "none";
    let verified = Snapshot::open(path).and_then(|snapshot| {
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
    if args.has("--json") {
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
            escape_json(path),
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
    Ok(ExitCode::from(u8::from(!clean)))
}

// ---- shared corpus and governance flags ----

/// The corpus flags of `query`, `explain`, `batch`, `stats` and `serve`.
#[derive(Default)]
struct CorpusArgs<'a> {
    /// Each `--store` snapshot with the `--delta` sidecars that follow
    /// it (a sidecar addresses layers of one snapshot).
    stores: Vec<(&'a str, Vec<&'a str>)>,
    loads: Vec<(&'a str, &'a str)>,
    options: EngineOptions,
}

impl<'a> CorpusArgs<'a> {
    fn new(args: &Args<'a>) -> Result<CorpusArgs<'a>, String> {
        let mut corpus = CorpusArgs::default();
        for &(flag, value) in &args.flags {
            match flag {
                "--store" => corpus.stores.push((value, Vec::new())),
                "--delta" => match corpus.stores.last_mut() {
                    Some((_, sidecars)) => sidecars.push(value),
                    None => return Err("--delta must follow the --store it overlays".into()),
                },
                "--load" => corpus.loads.push(pair(flag, value, "URI=FILE")?),
                "--strategy" => {
                    corpus.options.strategy = StandoffStrategy::parse(value)
                        .ok_or_else(|| format!("unknown strategy '{value}'"))?
                }
                "--no-pushdown" => corpus.options.candidate_pushdown = false,
                _ => {}
            }
        }
        Ok(corpus)
    }

    /// Build an engine with every snapshot mounted and every document
    /// loaded. All I/O and parse failures surface as diagnostics.
    fn build_engine(&self) -> Result<Engine, String> {
        let mut engine = Engine::with_options(self.options.clone());
        for (path, sidecars) in &self.stores {
            if sidecars.is_empty() {
                let snapshot = Snapshot::open(path).map_err(|e| format!("{path}: {e}"))?;
                engine
                    .mount_snapshot(&snapshot)
                    .map_err(|e| format!("{path}: {e}"))?;
            } else {
                // Recover the sidecars over the snapshot's layer set and
                // mount the delta folded in.
                let set = open_layer_set(path)?;
                let delta = load_delta(sidecars, &set)?;
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

/// The per-request resource caps of `query`, `explain`, `batch` and
/// `serve`, and the queue cap of the last two.
fn governance(args: &Args) -> Result<Governance, String> {
    Ok(Governance {
        deadline: args.int("--deadline-ms", 0)?.map(Duration::from_millis),
        max_results: args.int("--max-results", 0)?,
        max_scratch_bytes: args
            .int::<u64>("--max-scratch-mb", 0)?
            .map(|mb| mb * 1024 * 1024),
        queue_cap: args.int("--queue-cap", 0)?,
    })
}

// ---- query / explain ----

/// What `query` and `explain` share: the query text, and an engine with
/// the corpus mounted and the caps installed, built in the returned
/// time. Under `--deadline-ms`/`--max-results`/`--max-scratch-mb` the
/// one query runs on a budget; over budget it fails with a clean
/// timeout/limit error and exit code 1, never partial output.
fn governed_query(args: &Args) -> Result<(Engine, String, Duration), String> {
    let corpus = CorpusArgs::new(args)?;
    let governance = governance(args)?;
    let mut query = None;
    for &(flag, value) in &args.flags {
        match flag {
            "--query" => query = Some(value.to_string()),
            "--query-file" => {
                let text = std::fs::read_to_string(value);
                query = Some(text.map_err(|e| format!("cannot read {value}: {e}"))?);
            }
            _ => {}
        }
    }
    let query = query.ok_or("no query given (--query or --query-file)")?;
    let load_start = Instant::now();
    let mut engine = corpus.build_engine()?;
    engine.set_budget(governance.fresh_budget());
    Ok((engine, query, load_start.elapsed()))
}

fn cmd_query(argv: &[String]) -> Result<ExitCode, String> {
    let groups = [CORPUS, GOVERNANCE, QUERY_TEXT, REPORTS];
    let args = parse(argv, &groups, Operands::Zero)?;
    let (mut engine, query, load) = governed_query(&args)?;
    let (profile, profile_json) = (args.has("--profile"), args.has("--profile-json"));
    // A profiled run is the same execution: the result still goes to
    // stdout, the measurements to stderr (stdout stays result-clean for
    // pipelines).
    let start = Instant::now();
    let outcome = if profile || profile_json {
        engine
            .run_profiled(&query)
            .map(|(result, prof)| (result, Some(prof)))
    } else {
        engine.run(&query).map(|result| (result, None))
    };
    let (result, prof) = match outcome {
        Ok(outcome) => outcome,
        Err(e) => return Ok(query_failed(e)),
    };
    if let Some(prof) = prof {
        if profile {
            eprint!("{}", prof.render(engine.state()));
        }
        if profile_json {
            eprintln!("{}", prof.to_json());
        }
    }
    if args.has("--time") {
        eprintln!("{}", time_line(&engine, &result, start, load));
    }
    println!("{}", result.into_xml());
    Ok(ExitCode::SUCCESS)
}

/// A failed query: its error on stderr, exit code 1.
fn query_failed(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("standoff-xq: {e}");
    ExitCode::FAILURE
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

/// First-class plan printer: compile the query and print the optimized
/// plan, rendered against the loaded corpus, to stdout without
/// executing it. `--analyze` is explain's *executing* mode, governed
/// like `query`: run the query with per-operator profiling and print the
/// plan tree with measured calls/rows/time on every operator.
fn cmd_explain(argv: &[String]) -> Result<ExitCode, String> {
    let analyze = [Flag(&["--analyze"], None)];
    let groups = [CORPUS, GOVERNANCE, QUERY_TEXT, &analyze];
    let args = parse(argv, &groups, Operands::Zero)?;
    let (mut engine, query, _) = governed_query(&args)?;
    let rendered = if args.has("--analyze") {
        engine.explain_analyze(&query)
    } else {
        engine.explain(&query)
    };
    match rendered {
        Ok(plan) => {
            print!("{plan}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Ok(query_failed(e)),
    }
}

// ---- batch ----

fn cmd_batch(argv: &[String]) -> Result<ExitCode, String> {
    let groups = [CORPUS, GOVERNANCE, QUEUE, &[THREADS], REPORTS];
    let one = Some("batch takes exactly one queries file");
    let args = parse(argv, &groups, Operands::One(one))?;
    let corpus = CorpusArgs::new(&args)?;
    let governance = governance(&args)?;
    let threads = args.int("--threads", 1)?.unwrap_or(1);
    let queries_path = args
        .operand()
        .ok_or("batch: no queries file given ('-' for stdin)")?;
    let text = read_text_or_stdin(queries_path)?;
    let queries = split_queries(&text);
    if queries.is_empty() {
        return Err(format!("{queries_path}: no queries found"));
    }

    let load_start = Instant::now();
    let engine = corpus.build_engine()?;
    let load_elapsed = load_start.elapsed();
    // Governed batches give every query its own fresh budget; without
    // governance flags the default `Governance` sets no limit.
    let executor = Executor::governed(engine.into_shared(), threads, governance);

    let (profile, profile_json) = (args.has("--profile"), args.has("--profile-json"));
    let start = Instant::now();
    // Profiled batches run the same scheduler; results print to stdout
    // as usual, per-query profiles to stderr keyed by submission index.
    let results = if profile || profile_json {
        let profiled = executor.run_batch_profiled(&queries).into_iter();
        profiled
            .enumerate()
            .map(|(k, outcome)| {
                outcome.map(|(result, prof)| {
                    if profile {
                        eprintln!("# query {k}");
                        eprint!("{}", prof.render(executor.engine().state()));
                    }
                    if profile_json {
                        eprintln!("{}", prof.to_json());
                    }
                    result
                })
            })
            .collect()
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
    if args.has("--time") {
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
    Ok(ExitCode::from(u8::from(failures > 0)))
}

// ---- stats ----

/// Mount the corpus, optionally run a batch of queries against it, then
/// dump the merged metrics registry as JSON on stdout: the engine's own
/// registry (query/join/executor/plan-cache counters) merged with the
/// process-global one (store mount/materialization timings). Query
/// results are discarded — this subcommand exists to read the meters.
fn cmd_stats(argv: &[String]) -> Result<ExitCode, String> {
    let one = Some("stats takes at most one queries file");
    let args = parse(argv, &[CORPUS], Operands::One(one))?;
    let engine = CorpusArgs::new(&args)?.build_engine()?;
    let executor = Executor::governed(engine.into_shared(), 1, Governance::default());
    let mut failures = 0usize;
    if let Some(path) = args.operand() {
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
    Ok(ExitCode::from(u8::from(failures > 0)))
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
    let flags = [
        Flag(&["--listen"], Some("HOST:PORT")),
        THREADS,
        Flag(&["--read-timeout-ms"], Some("a number")),
    ];
    let args = parse(argv, &[CORPUS, GOVERNANCE, QUEUE, &flags], Operands::Zero)?;
    let corpus = CorpusArgs::new(&args)?;
    let governance = governance(&args)?;
    // Accepted and checked as a count, for the invocations that pass
    // it, but unused: every request evaluates on its connection thread.
    args.int::<usize>("--threads", 1)?;
    let read_timeout_ms: u64 = args.int("--read-timeout-ms", 0)?.unwrap_or(10_000);
    let listen = args.last("--listen").unwrap_or("127.0.0.1:7878");
    // Hot mount/unmount rebuilds engines from retained snapshots, so
    // serving is snapshot-only: loose documents and delta sidecars
    // have no re-mountable identity.
    if !corpus.loads.is_empty() || corpus.stores.iter().any(|(_, deltas)| !deltas.is_empty()) {
        return Err("serve supports --store snapshots only (no --load/--delta)".into());
    }
    let mut mounts = Vec::with_capacity(corpus.stores.len());
    for (path, _) in &corpus.stores {
        mounts.push(ServeMount::open(path).map_err(|e| e.to_string())?);
    }
    let opts = ServeOptions {
        engine: corpus.options,
        governance,
        read_timeout: Duration::from_millis(read_timeout_ms.max(1)),
    };
    let server = Server::bind(listen, mounts, opts).map_err(|e| format!("{listen}: {e}"))?;
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
    let flags = [Flag(&["--retries"], Some("a count"))];
    let args = parse(argv, &[&flags], Operands::Any)?;
    let retries: u32 = args.int("--retries", 0)?.unwrap_or(3);
    let (addr, verb) = match args.operands[..] {
        [] => return Err(format!("call needs ADDR\n{USAGE}")),
        [_] => return Err(format!("call needs a VERB\n{USAGE}")),
        [addr, verb, ..] => (addr, verb),
    };
    let rest = args.operands[2..].join(" ");
    // `query` carries its text in the body; every other verb is a
    // single `verb arg` line.
    let payload = match (verb, rest.is_empty()) {
        ("query", true) => return Err("call ... query needs the query text".into()),
        ("query", false) => format!("query\n{rest}"),
        (_, true) => verb.to_string(),
        (_, false) => format!("{verb} {rest}"),
    };
    let mut attempt = 0;
    let reply = loop {
        match serve::call(addr, &payload) {
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
