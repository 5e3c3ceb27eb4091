//! The program under test as the benchmark sees it: the release
//! `standoff-xq` binary, built from the checkout this package sits in,
//! driven through its command line and its TCP protocol.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::client::FrameClient;
use crate::corpus::{Corpus, URI};
use crate::json::Json;
use crate::sys::{self, Finished};

/// The repository root: the directory above this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in a repository")
        .to_path_buf()
}

/// Build the release `standoff-xq` of this checkout (a no-op when it is
/// fresh) and return its path. Cargo's own output goes to stderr.
pub fn build_standoff_xq(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new(env!("CARGO"))
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "standoff-xq",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building standoff-xq failed".into());
    }
    // A relative CARGO_TARGET_DIR is relative to where cargo ran.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(|dir| root.join(dir))
        .unwrap_or_else(|| root.join("target"));
    let bin = target.join("release").join("standoff-xq");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not produced", bin.display()))
    }
}

/// A scratch directory under `benchmark/out/`, removed on drop. Every
/// call makes a new one, so a round's directory never outlives into
/// (or is removed from under) the next round's.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(root: &Path, tag: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = root.join("benchmark").join("out").join(format!(
            "work-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The binary plus the few ways the benchmark invokes it.
pub struct Program {
    pub bin: PathBuf,
}

impl Program {
    /// Write the corpus layers into `dir` and run `standoff-xq index`
    /// over them — the shipped path from XML to snapshot. Returns the
    /// snapshot path.
    pub fn index(&self, corpus: &Corpus, dir: &Path) -> Result<PathBuf, String> {
        let [base, tokens, entities] = corpus
            .write_xml(dir)
            .map_err(|e| format!("writing corpus XML: {e}"))?;
        let snap = dir.join(format!("{}.snap", corpus.scale.name()));
        let done = sys::run_child(
            Command::new(&self.bin)
                .arg("index")
                .arg(&base)
                .arg("-o")
                .arg(&snap)
                .args(["--uri", URI])
                .arg("--layer")
                .arg(format!("tokens={}", tokens.display()))
                .arg("--layer")
                .arg(format!("entities={}", entities.display())),
        )
        .map_err(|e| format!("cannot run standoff-xq index: {e}"))?;
        if done.success {
            Ok(snap)
        } else {
            Err(format!("standoff-xq index failed on {}", base.display()))
        }
    }

    /// `standoff-xq query --store SNAP -q Q`, one process.
    pub fn query(&self, snap: &Path, query: &str) -> std::io::Result<Finished> {
        sys::run_child(
            Command::new(&self.bin)
                .arg("query")
                .arg("--store")
                .arg(snap)
                .args(["-q", query]),
        )
    }

    /// `standoff-xq call ADDR query Q`, one process and one connection.
    pub fn call(&self, addr: &str, query: &str) -> std::io::Result<Finished> {
        sys::run_child(
            Command::new(&self.bin)
                .args(["call", addr, "query", query])
                .args(["--retries", "0"]),
        )
    }

    /// `standoff-xq --help`: process start and exit, nothing else.
    pub fn help(&self) -> std::io::Result<Finished> {
        sys::run_child(Command::new(&self.bin).arg("--help"))
    }

    /// Start `standoff-xq serve` over `snap` with the flags every serve
    /// workload uses and wait for its ready line.
    pub fn serve(&self, snap: &Path) -> Result<Server, String> {
        let mut child = Command::new(&self.bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--store"])
            .arg(snap)
            .args([
                "--deadline-ms",
                "2000",
                "--queue-cap",
                "64",
                "--threads",
                "1",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start standoff-xq serve: {e}"))?;
        let mut ready = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout was piped")).read_line(&mut ready);
        let addr = ready
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "standoff-xq serve did not announce an address (got {ready:?})"
                ))
            }
        }
    }
}

/// A running `standoff-xq serve` child. Dropping it kills the process;
/// [`Server::shutdown`] drains it politely first.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    pub fn connect(&self) -> std::io::Result<FrameClient<std::net::TcpStream>> {
        FrameClient::connect(&self.addr)
    }

    /// `VmHWM` of the server process so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        sys::peak_rss_mb(self.child.id())
    }

    /// The `stats` verb's counters block, parsed.
    pub fn stats(&self) -> Option<Json> {
        let reply = self.connect().ok()?.request("stats").ok()?;
        Json::parse(std::str::from_utf8(&reply.body).ok()?).ok()
    }

    /// Ask the server to drain and wait for it to exit. Every client
    /// connection must be closed first, or the drain waits for it.
    pub fn shutdown(mut self) -> bool {
        let asked = self
            .connect()
            .and_then(|mut c| c.request("shutdown"))
            .is_ok_and(|r| r.ok);
        if !asked {
            let _ = self.child.kill();
        }
        self.child.wait().is_ok_and(|s| s.success()) && asked
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After `shutdown` the child is already reaped and both calls
        // fail harmlessly; on an early-error path they stop the server.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One counter of a parsed `stats` reply; `None` when the program does
/// not expose that name.
pub fn counter(stats: &Json, name: &str) -> Option<f64> {
    stats.path(&["counters", name]).and_then(Json::as_f64)
}
