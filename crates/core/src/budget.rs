//! Cooperative resource governance for query evaluation.
//!
//! A [`Budget`] is a small, cloneable handle (an `Arc` around atomics)
//! that a host installs before evaluation and that every long-running
//! loop in the engine polls cooperatively: the posting derivations,
//! the merge-join emission loops, the naive baselines' nested loops,
//! and the evaluator's operator dispatch. It enforces three caps —
//!
//! * a **deadline** (wall-clock [`Instant`]),
//! * a **result-cardinality cap** (cumulative operator output rows),
//! * a **scratch-memory cap** (high-water mark of the join scratch),
//!
//! — plus an external **cancel** switch (the `CancelToken` half: a
//! server drains in-flight queries by cancelling their budgets).
//!
//! # Cost discipline
//!
//! The whole design exists to keep governance off the ungoverned hot
//! path and *nearly* off the governed one:
//!
//! * engines hold an `Option<Budget>`; with `None` the evaluator takes
//!   the same single-branch early-out the profiler uses, and the
//!   kernels hoist one `Option` test out of their loops;
//! * inside kernels, [`Budget::poll`] is the only call allowed: one
//!   relaxed atomic fetch-add per 64-entry chunk, consulting the clock
//!   only every [`POLL_STRIDE`] polls, so a block loop gains one
//!   predictable branch;
//! * the clock is read eagerly only at coarse chokepoints
//!   ([`Budget::check`]): once per evaluated operator and per join
//!   unit.
//!
//! # Trip semantics
//!
//! The first cap to fail *trips* the budget: a single atomic flag
//! records the reason, every subsequent poll/check observes it, and
//! the kernels bail out early. Partial kernel output is discarded by
//! the evaluator, which surfaces the recorded [`BudgetExceeded`]
//! reason as a clean error — never a panic, never partial output. The
//! recorded reason (not the observation site) determines the error,
//! so a query cancelled at the same budget reports the identical error
//! regardless of join strategy or thread count.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budget tripped. Ordered by trip time, not severity: the first
/// cap observed to fail wins and is the one reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Timeout,
    /// Cumulative operator output exceeded the result-cardinality cap.
    ResultLimit,
    /// The join scratch grew past the scratch-memory cap.
    ScratchLimit,
    /// [`Budget::cancel`] was called (client disconnect, server drain).
    Cancelled,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetExceeded::Timeout => write!(f, "query deadline exceeded"),
            BudgetExceeded::ResultLimit => write!(f, "result cardinality cap exceeded"),
            BudgetExceeded::ScratchLimit => write!(f, "scratch memory cap exceeded"),
            BudgetExceeded::Cancelled => write!(f, "query cancelled"),
        }
    }
}

/// Trip-flag encoding: 0 = live, else `BudgetExceeded` + 1.
const LIVE: u8 = 0;

fn encode(why: BudgetExceeded) -> u8 {
    match why {
        BudgetExceeded::Timeout => 1,
        BudgetExceeded::ResultLimit => 2,
        BudgetExceeded::ScratchLimit => 3,
        BudgetExceeded::Cancelled => 4,
    }
}

fn decode(flag: u8) -> Option<BudgetExceeded> {
    match flag {
        1 => Some(BudgetExceeded::Timeout),
        2 => Some(BudgetExceeded::ResultLimit),
        3 => Some(BudgetExceeded::ScratchLimit),
        4 => Some(BudgetExceeded::Cancelled),
        _ => None,
    }
}

/// Polls between clock reads in [`Budget::poll`]: with one poll per
/// 64-entry kernel chunk, the clock is consulted once per ~4096
/// entries — cheap enough to leave on, frequent enough that a deadline
/// is noticed mid-kernel within microseconds of work, not at the next
/// operator boundary.
pub const POLL_STRIDE: u32 = 64;

#[derive(Debug)]
struct BudgetInner {
    tripped: AtomicU8,
    /// Amortization counter for [`Budget::poll`]'s clock reads.
    polls: AtomicU32,
    deadline: Option<Instant>,
    /// `u64::MAX` = uncapped.
    max_results: u64,
    max_scratch_bytes: u64,
    results: AtomicU64,
    scratch_hwm: AtomicU64,
}

/// Declarative cap set a [`Budget`] is built from. `None` everywhere
/// (the default) yields a budget that only ever trips via
/// [`Budget::cancel`] — a pure cancel token.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetLimits {
    /// Wall-clock allowance, measured from [`Budget::new`].
    pub deadline: Option<Duration>,
    /// Cap on cumulative operator output cardinality.
    pub max_results: Option<u64>,
    /// Cap on the join-scratch high-water mark, in bytes.
    pub max_scratch_bytes: Option<u64>,
}

impl BudgetLimits {
    /// True when no cap is set — such a budget still works as a cancel
    /// token, but hosts usually skip installing one at all.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_results.is_none() && self.max_scratch_bytes.is_none()
    }
}

/// A shared, cooperative evaluation budget (see the module docs).
/// Cloning shares the underlying state — a clone handed to a worker or
/// kept by a server *is* the cancel token for the running query.
#[derive(Clone, Debug)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

impl Budget {
    /// A budget enforcing `limits`, with the deadline anchored at the
    /// moment of creation.
    pub fn new(limits: BudgetLimits) -> Budget {
        Budget {
            inner: Arc::new(BudgetInner {
                tripped: AtomicU8::new(LIVE),
                polls: AtomicU32::new(0),
                deadline: limits.deadline.map(|d| Instant::now() + d),
                max_results: limits.max_results.unwrap_or(u64::MAX),
                max_scratch_bytes: limits.max_scratch_bytes.unwrap_or(u64::MAX),
                results: AtomicU64::new(0),
                scratch_hwm: AtomicU64::new(0),
            }),
        }
    }

    /// A capless budget: a pure cancel token.
    pub fn cancel_token() -> Budget {
        Budget::new(BudgetLimits::default())
    }

    /// Trip the budget with `why` if still live. The first trip wins;
    /// later attempts (and later cap failures) keep the original reason.
    fn trip(&self, why: BudgetExceeded) {
        let _ = self.inner.tripped.compare_exchange(
            LIVE,
            encode(why),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Cancel cooperatively: evaluation observes the flag at its next
    /// poll/check and unwinds with [`BudgetExceeded::Cancelled`].
    pub fn cancel(&self) {
        self.trip(BudgetExceeded::Cancelled);
    }

    /// The recorded trip reason, if any — one relaxed atomic load. The
    /// cheapest probe; kernels hoisting their own amortization use it
    /// directly.
    #[inline]
    pub fn exceeded(&self) -> Option<BudgetExceeded> {
        decode(self.inner.tripped.load(Ordering::Relaxed))
    }

    /// Kernel-grade probe: the trip flag every call, the clock every
    /// [`POLL_STRIDE`]-th call. One relaxed load + one relaxed
    /// fetch-add per call; designed to sit in a per-64-entry-chunk
    /// position.
    #[inline]
    pub fn poll(&self) -> Option<BudgetExceeded> {
        if let Some(why) = self.exceeded() {
            return Some(why);
        }
        if self.inner.deadline.is_some()
            && self.inner.polls.fetch_add(1, Ordering::Relaxed) % POLL_STRIDE == POLL_STRIDE - 1
        {
            return self.check().err();
        }
        None
    }

    /// Chokepoint-grade check: trip flag plus an eager clock read.
    /// Called once per evaluated operator / join unit.
    #[inline]
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if let Some(why) = self.exceeded() {
            return Err(why);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.trip(BudgetExceeded::Timeout);
                // Report the *recorded* reason: a concurrent trip for a
                // different cause may have won the race.
                return Err(self.exceeded().unwrap_or(BudgetExceeded::Timeout));
            }
        }
        Ok(())
    }

    /// Charge `rows` of operator output against the cardinality cap.
    pub fn charge_results(&self, rows: u64) -> Result<(), BudgetExceeded> {
        if let Some(why) = self.exceeded() {
            return Err(why);
        }
        let total = self.inner.results.fetch_add(rows, Ordering::Relaxed) + rows;
        if total > self.inner.max_results {
            self.trip(BudgetExceeded::ResultLimit);
            return Err(self.exceeded().unwrap_or(BudgetExceeded::ResultLimit));
        }
        Ok(())
    }

    /// Record the current scratch footprint; trips when it exceeds the
    /// scratch cap. Monotonic: the budget keeps the high-water mark.
    pub fn note_scratch(&self, bytes: u64) -> Result<(), BudgetExceeded> {
        if let Some(why) = self.exceeded() {
            return Err(why);
        }
        self.inner.scratch_hwm.fetch_max(bytes, Ordering::Relaxed);
        if bytes > self.inner.max_scratch_bytes {
            self.trip(BudgetExceeded::ScratchLimit);
            return Err(self.exceeded().unwrap_or(BudgetExceeded::ScratchLimit));
        }
        Ok(())
    }

    /// Cumulative charged result rows.
    pub fn results(&self) -> u64 {
        self.inner.results.load(Ordering::Relaxed)
    }

    /// Observed scratch high-water mark, in bytes.
    pub fn scratch_hwm(&self) -> u64 {
        self.inner.scratch_hwm.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips_on_charges() {
        let b = Budget::cancel_token();
        assert!(b.check().is_ok());
        assert!(b.charge_results(1 << 40).is_ok());
        assert!(b.note_scratch(1 << 40).is_ok());
        assert_eq!(b.exceeded(), None);
    }

    #[test]
    fn cancel_is_observed_everywhere() {
        let b = Budget::cancel_token();
        b.cancel();
        assert_eq!(b.exceeded(), Some(BudgetExceeded::Cancelled));
        assert_eq!(b.check(), Err(BudgetExceeded::Cancelled));
        assert_eq!(b.poll(), Some(BudgetExceeded::Cancelled));
        assert_eq!(b.charge_results(1), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn result_cap_trips_at_boundary() {
        let b = Budget::new(BudgetLimits {
            max_results: Some(10),
            ..Default::default()
        });
        assert!(b.charge_results(10).is_ok());
        assert_eq!(b.charge_results(1), Err(BudgetExceeded::ResultLimit));
        // Later, different failures keep the first reason.
        b.cancel();
        assert_eq!(b.exceeded(), Some(BudgetExceeded::ResultLimit));
    }

    #[test]
    fn scratch_cap_records_hwm() {
        let b = Budget::new(BudgetLimits {
            max_scratch_bytes: Some(1024),
            ..Default::default()
        });
        assert!(b.note_scratch(512).is_ok());
        assert!(b.note_scratch(100).is_ok());
        assert_eq!(b.scratch_hwm(), 512);
        assert_eq!(b.note_scratch(2048), Err(BudgetExceeded::ScratchLimit));
    }

    #[test]
    fn zero_deadline_times_out() {
        let b = Budget::new(BudgetLimits {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        });
        assert_eq!(b.check(), Err(BudgetExceeded::Timeout));
        assert_eq!(b.exceeded(), Some(BudgetExceeded::Timeout));
    }

    #[test]
    fn poll_reads_clock_on_stride() {
        let b = Budget::new(BudgetLimits {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        });
        // The flag is not tripped yet; only the strided clock read can
        // trip it. POLL_STRIDE polls are guaranteed to include one.
        let mut tripped = None;
        for _ in 0..POLL_STRIDE {
            if let Some(why) = b.poll() {
                tripped = Some(why);
                break;
            }
        }
        assert_eq!(tripped, Some(BudgetExceeded::Timeout));
    }

    #[test]
    fn clones_share_state() {
        let b = Budget::cancel_token();
        let token = b.clone();
        std::thread::spawn(move || token.cancel()).join().unwrap();
        assert_eq!(b.exceeded(), Some(BudgetExceeded::Cancelled));
    }
}
