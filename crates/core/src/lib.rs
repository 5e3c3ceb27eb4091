//! # standoff-core
//!
//! The primary contribution of *Efficient XQuery Support for Stand-Off
//! Annotation* (Alink et al., XIME-P/SIGMOD 2006), as a reusable library:
//!
//! * [`Region`] / [`Area`] — the paper's annotation model (§2): an
//!   *area-annotation* is an XML element carrying one or more
//!   non-overlapping, non-touching `[start,end]` regions over an external
//!   BLOB, with the `contains`/`overlaps` predicates of §3.1;
//! * [`StandoffConfig`] — the configurable representation (§2): regions as
//!   `start`/`end` attributes or as `<region>` child elements, with
//!   application-chosen names (`declare option standoff-*`);
//! * [`RegionIndex`] — the `start|end|id` index clustered on `start`
//!   (§4.3), with candidate-sequence intersection;
//! * [`StandoffAxis`] — the four StandOff joins of §3.1 (`select-narrow`,
//!   `select-wide`, `reject-narrow`, `reject-wide`);
//! * [`join`] — the evaluation algorithms of §4 under a common interface:
//!   the quadratic *naive* baselines (the paper's XQuery-function
//!   Alternatives 1 and 2), the *Basic StandOff MergeJoin* (§4.4) and the
//!   *Loop-Lifted StandOff MergeJoin* (§4.5, Listing 1), selected by
//!   [`StandoffStrategy`];
//! * [`trace`] — an execution-trace hook that reproduces the paper's
//!   Figure 4 step-by-step;
//! * [`obs`] — a dependency-free metrics registry (named counters and
//!   bucketed histograms) shared by the whole workspace.

pub mod budget;
pub mod config;
pub mod crc;
pub mod error;
pub mod index;
pub mod join;
pub mod obs;
pub mod par;
pub mod region;
pub mod trace;

/// Named fault points for chaos testing (see [`fault::point`]).
/// Compiled in only for tests and `--features fault-inject` builds;
/// release builds get the empty stand-in below.
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault;
#[cfg(not(any(test, feature = "fault-inject")))]
pub mod fault {
    //! Disarmed stand-in: fault points vanish from release builds.
    #[inline(always)]
    pub fn point(_name: &str) {}
    /// Disarmed stand-in for [`arm_from_env`]: release builds ignore
    /// `STANDOFF_FAULT` entirely.
    pub fn arm_from_env() {}
}

pub use budget::{Budget, BudgetExceeded, BudgetLimits};
pub use config::{RegionRepr, StandoffConfig};
pub use crc::{crc32, Crc32};
pub use error::StandoffError;
pub use index::{IndexStats, Posting, RegionEntry, RegionIndex, Table};
pub use join::{
    IterNode, JoinCounter, JoinScratch, JoinStats, JoinTarget, StandoffAxis, StandoffStrategy,
};
pub use obs::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use region::{Area, Region};
pub use trace::{NoTrace, TraceEvent, TraceSink, VecTrace};
