//! A stored column group that is reached only through the check that
//! verified it.
//!
//! A mounted document defers some of its columns: their checksums and
//! structural rules are run the first time a request reads them, not
//! when the document materializes. [`Checked`] holds such a group — a
//! loader and the outcome of its one run — and [`Checked::get`] is the
//! only way to a reference to the group's value, so no reader can see a
//! column its check has not passed. A built or parsed document's groups
//! are [`Checked::ready`].

use std::fmt;
use std::sync::{Arc, OnceLock};

/// A stored column group that failed its verification: the section that
/// failed, and why — what the snapshot store reports as corrupt. One
/// pointer wide, so the `Result` of every accessor and operator that can
/// meet it stays as small as its success value allows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Corrupt(Box<Failure>);

#[derive(Clone, Debug, PartialEq, Eq)]
struct Failure {
    section: String,
    detail: String,
}

impl Corrupt {
    pub fn new(section: impl Into<String>, detail: impl Into<String>) -> Corrupt {
        Corrupt(Box::new(Failure {
            section: section.into(),
            detail: detail.into(),
        }))
    }

    /// What failed, e.g. `"section doc.attr-name (layer tokens)"`.
    pub fn section(&self) -> &str {
        &self.0.section
    }

    /// Why, e.g. a checksum mismatch.
    pub fn detail(&self) -> &str {
        &self.0.detail
    }
}

impl fmt::Display for Corrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt {}: {}", self.0.section, self.0.detail)
    }
}

impl std::error::Error for Corrupt {}

/// Checksums, checks and assembles a stored column group of a mounted
/// [`Document`](crate::Document), the first time the group is read.
pub type Loader<T> = Arc<dyn Fn() -> Result<T, Corrupt> + Send + Sync>;

/// A column group: built ready, or stored and verified by its loader on
/// the first [`Checked::get`]. The outcome is kept — a group that failed
/// fails every later call the same way.
pub(crate) struct Checked<T> {
    value: OnceLock<Result<T, Corrupt>>,
    /// Present for a stored group.
    load: Option<Loader<T>>,
}

impl<T> Checked<T> {
    /// A group built in memory, verified by construction.
    pub(crate) fn ready(value: T) -> Checked<T> {
        Checked {
            value: OnceLock::from(Ok(value)),
            load: None,
        }
    }

    /// A stored group, verified by `load` the first time it is read.
    pub(crate) fn deferred(load: Loader<T>) -> Checked<T> {
        Checked {
            value: OnceLock::new(),
            load: Some(load),
        }
    }

    /// The group, verified: the first call runs the loader, once, and
    /// every call returns its outcome.
    #[inline]
    pub(crate) fn get(&self) -> Result<&T, Corrupt> {
        match self.value.get() {
            Some(Ok(value)) => Ok(value),
            _ => self.first_read(),
        }
    }

    /// [`Checked::get`] off its fast path: the first read, or a failure.
    #[cold]
    fn first_read(&self) -> Result<&T, Corrupt> {
        let outcome = self.value.get_or_init(|| {
            let load = self.load.as_ref().expect("an unset group has a loader");
            load()
        });
        outcome.as_ref().map_err(Clone::clone)
    }
}

impl<T: Clone> Clone for Checked<T> {
    fn clone(&self) -> Checked<T> {
        Checked {
            value: self.value.clone(),
            load: self.load.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_deferred_group_loads_once_and_keeps_its_failure() {
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let group: Checked<u32> = Checked::deferred(Arc::new(move || {
            counted.fetch_add(1, Ordering::Relaxed);
            Err(Corrupt::new("section doc.size", "checksum mismatch"))
        }));
        let first = group.get().unwrap_err();
        assert_eq!(group.get().unwrap_err(), first);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(
            first.to_string(),
            "corrupt section doc.size: checksum mismatch"
        );
        assert_eq!(Checked::ready(7).get(), Ok(&7));
    }
}
