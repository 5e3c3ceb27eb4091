//! Crash-safe file replacement.
//!
//! Every durable artifact the store rewrites in place — snapshots from
//! `save_snapshot`/`compact`, the annotate sidecar checkpoint — goes
//! through [`atomic_replace`]: write a temporary file *in the same
//! directory* (rename only works within a filesystem), `fsync` the
//! file, `rename` over the destination, then `fsync` the directory so
//! the rename itself is durable. A crash at any byte offset leaves
//! either the old complete file or the new complete file, never a
//! prefix of the new one.
//!
//! Fault points (`store.atomic.before_sync`, `store.atomic.before_rename`,
//! `store.atomic.after_rename`) let the crash-recovery harness kill the
//! process at each seam and assert exactly that.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use standoff_core::fault;

/// Temp-file path for an atomic replace of `path`: hidden, same
/// directory, tagged with the pid so concurrent writers don't clobber
/// each other's scratch (last rename still wins, atomically).
fn temp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    let tmp = format!(".{}.tmp.{}", name, std::process::id());
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.join(tmp),
        _ => PathBuf::from(tmp),
    }
}

/// Best-effort fsync of `path`'s parent directory. On platforms where
/// directories cannot be opened (or the fd refuses `fsync`), the rename
/// is still atomic — only its durability across power loss is weakened
/// — so failures here are swallowed rather than failing an
/// otherwise-complete write.
pub(crate) fn sync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Atomically replace `path` with whatever `write` produces.
///
/// `write` receives a buffered writer over the temp file; if it errors
/// (or the sync/rename does), the temp file is removed and `path` is
/// left untouched.
pub fn atomic_replace<F>(path: &Path, write: F) -> io::Result<()>
where
    F: FnOnce(&mut BufWriter<File>) -> io::Result<()>,
{
    let tmp = temp_path(path);
    let result = (|| {
        let file = File::create(&tmp)?;
        let mut out = BufWriter::new(file);
        write(&mut out)?;
        out.flush()?;
        fault::point("store.atomic.before_sync");
        let file = out
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?;
        file.sync_all()?;
        fault::point("store.atomic.before_rename");
        fs::rename(&tmp, path)?;
        fault::point("store.atomic.after_rename");
        sync_parent_dir(path);
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_replace`] specialized to a byte slice (sidecar rewrites).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_replace(path, |out| out.write_all(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `store.atomic.before_rename` is a process-wide fault point: the
    /// test that arms it must not overlap the others, or its injected
    /// panic lands in their writes.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("standoff-atomic-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replaces_and_cleans_up_temp() {
        let _serial = serial();
        let dir = temp_dir("ok");
        let target = dir.join("data.txt");
        fs::write(&target, b"old").unwrap();
        atomic_write(&target, b"new contents").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"new contents");
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(leftovers.len(), 1, "temp file must not survive");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_error_leaves_target_untouched() {
        let _serial = serial();
        let dir = temp_dir("err");
        let target = dir.join("data.txt");
        fs::write(&target, b"precious").unwrap();
        let err = atomic_replace(&target, |out| {
            out.write_all(b"partial")?;
            Err(io::Error::other("simulated failure"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(fs::read(&target).unwrap(), b"precious");
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(leftovers.len(), 1, "failed temp file must be removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_rename_leaves_target_untouched() {
        let _serial = serial();
        let dir = temp_dir("crash");
        let target = dir.join("data.txt");
        fs::write(&target, b"committed state").unwrap();
        fault::inject_times(
            "store.atomic.before_rename",
            standoff_core::fault::FaultAction::Panic,
            1,
        );
        let outcome = std::panic::catch_unwind(|| atomic_write(&target, b"torn write"));
        fault::clear("store.atomic.before_rename");
        assert!(outcome.is_err(), "armed fault point must fire");
        assert_eq!(fs::read(&target).unwrap(), b"committed state");
        let _ = fs::remove_dir_all(&dir);
    }
}
