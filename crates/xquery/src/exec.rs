//! Concurrent batch query execution.
//!
//! The paper's premise is that StandOff axes make annotation queries
//! cheap enough to run at corpus scale; this module supplies the
//! service-shaped half of that claim: an [`Executor`] that takes a batch
//! of query strings, fans them out over a configurable number of worker
//! threads — each with its own [`Session`] over one shared, immutable
//! [`SharedEngine`] corpus — and returns the results in submission
//! order.
//!
//! Robustness guarantees, in service of "a worker must never take down
//! the pool":
//!
//! * every query string, however malformed, produces a `Result` — the
//!   lexer/parser/compiler/evaluator return [`QueryError`]s rather than
//!   panic;
//! * should a defect slip through anyway, the panic is caught per
//!   query, surfaced as [`QueryError::Internal`], and the worker's
//!   session is rebuilt before the next query;
//! * results are deterministic: the output vector is indexed by
//!   submission order regardless of which worker ran which query, and
//!   evaluation over the shared corpus is by-value identical across
//!   thread counts.
//!
//! Compiled plans are memoized in a small LRU [`QueryCache`] keyed on
//! `(query text, store generation, options fingerprint)`, so repeated
//! queries — the common shape of an annotation-service workload — skip
//! the parser *and* the compiler/optimizer entirely. The options
//! fingerprint matters: strategy and candidate pushdown are baked into
//! the plan at compile time, so a plan compiled under one option set
//! must never serve an engine running another (see
//! [`crate::engine::EngineOptions::fingerprint`]).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use standoff_core::obs::{Counter, MetricsSnapshot};
use standoff_core::{Budget, BudgetLimits};

use crate::engine::{Session, SharedEngine};
use crate::error::QueryError;
use crate::plan::Plan;
use crate::profile::QueryProfile;
use crate::result::QueryResult;

/// Default capacity of an executor's compiled-plan cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// An LRU cache of compiled plans, keyed on `(query text, store
/// generation, options fingerprint)`.
///
/// The generation key makes entries self-invalidating against corpus
/// changes: an executor rebuilt over a re-mounted corpus draws fresh
/// generation stamps, so a cache shared across executors can never
/// serve a stale plan for a different corpus. The options fingerprint
/// does the same for evaluation options — two [`SharedEngine`]s over
/// the *same* corpus (same generation, e.g. via
/// [`SharedEngine::with_options`]) but different strategy/pushdown
/// settings hit disjoint entries, because those settings are compiled
/// into the plan. Shared behind [`Arc`] by all workers of an executor;
/// hit/miss counters are exposed for `--time` style reporting.
pub struct QueryCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time view of a [`QueryCache`]'s counters and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries dropped to make room (LRU); does not count entries
    /// *replaced* by a recompile of the same key.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Maximum number of cached plans.
    pub capacity: usize,
}

/// Everything but the query text of a cache key.
type EpochKey = (u64, u64); // (store generation, options fingerprint)

struct CacheInner {
    /// Epoch → (query text → entry). Nested so the hot hit path probes
    /// with a borrowed `&str` — no per-lookup allocation; the query
    /// text is copied only when an entry is inserted.
    epochs: HashMap<EpochKey, HashMap<String, CacheEntry>>,
    /// Total entries across all epochs.
    len: usize,
    /// Logical clock for LRU eviction.
    tick: u64,
}

struct CacheEntry {
    plan: Arc<Plan>,
    last_used: u64,
}

impl QueryCache {
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                epochs: HashMap::new(),
                len: 0,
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The compiled plan of `text` for `engine`'s corpus and options,
    /// compiling (and caching) on miss. Parse and compile errors are
    /// not cached — hostile inputs must not evict useful entries.
    pub fn get_or_compile(
        &self,
        text: &str,
        engine: &SharedEngine,
    ) -> Result<Arc<Plan>, QueryError> {
        let epoch: EpochKey = (engine.generation(), engine.options().fingerprint());
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.epochs.get_mut(&epoch).and_then(|m| m.get_mut(text)) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.plan));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compile outside the lock: a slow compile of one query must not
        // stall every other worker's cache lookups. Concurrent misses on
        // the same text compile twice and the last insert wins — benign.
        let plan = Arc::new(guard_panic(|| engine.compile(text), "query compiler")??);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        let replacing = inner
            .epochs
            .get(&epoch)
            .is_some_and(|m| m.contains_key(text));
        if !replacing && inner.len >= self.capacity {
            inner.evict_lru();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let entry = CacheEntry {
            plan: Arc::clone(&plan),
            last_used: tick,
        };
        inner
            .epochs
            .entry(epoch)
            .or_default()
            .insert(text.to_string(), entry);
        if !replacing {
            inner.len += 1;
        }
        Ok(plan)
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted (LRU) since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// All counters and occupancy in one consistent-enough view (the
    /// counters are independently atomic; exactness across a racing
    /// insert is not promised, monotonicity is).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            entries: self.len(),
            capacity: self.capacity,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CacheInner {
    /// Drop the least-recently-used entry. O(n) scan — capacity is
    /// small and this runs only on insertions past capacity.
    fn evict_lru(&mut self) {
        let oldest = self
            .epochs
            .iter()
            .flat_map(|(&epoch, entries)| {
                entries
                    .iter()
                    .map(move |(text, entry)| (entry.last_used, epoch, text))
            })
            .min_by_key(|&(last_used, _, _)| last_used)
            .map(|(_, epoch, text)| (epoch, text.clone()));
        if let Some((epoch, text)) = oldest {
            if let Some(entries) = self.epochs.get_mut(&epoch) {
                entries.remove(&text);
                if entries.is_empty() {
                    self.epochs.remove(&epoch);
                }
            }
            self.len -= 1;
        }
    }
}

/// Resource-governance policy for an [`Executor`]: what each admitted
/// request may consume, and how many requests may be in flight at once.
/// The default is fully ungoverned — every field open — so existing
/// batch users see no behavior change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Governance {
    /// Maximum concurrently admitted requests. A request arriving with
    /// the queue full is *shed* with [`QueryError::Overloaded`] —
    /// explicit backpressure, never silent blocking.
    pub queue_cap: Option<usize>,
    /// Per-request wall-clock deadline, anchored at admission.
    pub deadline: Option<Duration>,
    /// Per-request cap on cumulative operator output cardinality.
    pub max_results: Option<u64>,
    /// Per-request cap on the join-scratch high-water mark, in bytes.
    pub max_scratch_bytes: Option<u64>,
}

impl Governance {
    /// The per-request budget caps (admission control excluded).
    fn limits(&self) -> BudgetLimits {
        BudgetLimits {
            deadline: self.deadline,
            max_results: self.max_results,
            max_scratch_bytes: self.max_scratch_bytes,
        }
    }

    /// A fresh budget enforcing this policy's per-request caps, with
    /// the deadline clock starting now. `None` when no cap is set —
    /// hosts that still need a cancel handle (a draining server) pass
    /// their own [`Budget::cancel_token`] instead.
    pub fn fresh_budget(&self) -> Option<Budget> {
        let limits = self.limits();
        if limits.is_unlimited() {
            None
        } else {
            Some(Budget::new(limits))
        }
    }
}

/// Pre-registered governance counters (see [`Executor::governed`]).
struct GovHandles {
    /// Requests shed at admission (`executor.sheds`).
    sheds: Counter,
    /// Governed requests that ended in [`QueryError::Timeout`]
    /// (`executor.timeouts`).
    timeouts: Counter,
    /// High-water mark of concurrently admitted requests
    /// (`executor.queue_depth_hwm`).
    queue_depth_hwm: Counter,
}

/// A concurrent batch query executor over a [`SharedEngine`].
///
/// ```
/// use standoff_xquery::{Engine, Executor};
/// let mut engine = Engine::new();
/// engine.load_document("d.xml", "<a><b/><b/></a>").unwrap();
/// let exec = Executor::new(engine.into_shared(), 4);
/// let results = exec.run_batch(&[r#"count(doc("d.xml")//b)"#, "1 + 1"]);
/// assert_eq!(results[0].as_ref().unwrap().as_strings(), ["2"]);
/// assert_eq!(results[1].as_ref().unwrap().as_strings(), ["2"]);
/// ```
///
/// With [`Executor::governed`] the same executor also serves the
/// request-at-a-time path ([`Executor::run_governed`]): admission
/// control with shed-on-full, a per-request [`Budget`] (deadline,
/// result and scratch caps), and `executor.*` governance counters.
pub struct Executor {
    engine: SharedEngine,
    threads: usize,
    cache: Arc<QueryCache>,
    governance: Governance,
    /// Requests currently admitted (the "queue depth" of the bounded
    /// submission queue; admission is all-or-nothing, so depth counts
    /// running requests).
    active: AtomicUsize,
    gov: GovHandles,
}

impl Executor {
    /// An executor with `threads` workers (clamped to ≥ 1) and a
    /// private plan cache of [`DEFAULT_CACHE_CAPACITY`].
    pub fn new(engine: SharedEngine, threads: usize) -> Executor {
        Self::with_cache(
            engine,
            threads,
            Arc::new(QueryCache::new(DEFAULT_CACHE_CAPACITY)),
        )
    }

    /// An executor sharing an existing plan cache (e.g. across executors
    /// serving different thread counts — or different evaluation
    /// options — over the same corpus).
    pub fn with_cache(engine: SharedEngine, threads: usize, cache: Arc<QueryCache>) -> Executor {
        Self::governed_with_cache(engine, threads, Governance::default(), cache)
    }

    /// An executor enforcing `governance` on every request (batch
    /// queries get per-query budgets; [`Executor::run_governed`] adds
    /// admission control), with a private plan cache.
    pub fn governed(engine: SharedEngine, threads: usize, governance: Governance) -> Executor {
        Self::governed_with_cache(
            engine,
            threads,
            governance,
            Arc::new(QueryCache::new(DEFAULT_CACHE_CAPACITY)),
        )
    }

    /// [`Executor::governed`] sharing an existing plan cache — the
    /// serve path's constructor: mounts swap executors, plans survive.
    pub fn governed_with_cache(
        engine: SharedEngine,
        threads: usize,
        governance: Governance,
        cache: Arc<QueryCache>,
    ) -> Executor {
        let registry = engine.metrics();
        let gov = GovHandles {
            sheds: registry.counter("executor.sheds"),
            timeouts: registry.counter("executor.timeouts"),
            queue_depth_hwm: registry.counter("executor.queue_depth_hwm"),
        };
        Executor {
            engine,
            threads: threads.max(1),
            cache,
            governance,
            active: AtomicUsize::new(0),
            gov,
        }
    }

    /// The shared corpus this executor evaluates against.
    pub fn engine(&self) -> &SharedEngine {
        &self.engine
    }

    /// Number of worker threads a batch fans out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The compiled-plan cache (hit/miss counters included).
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The governance policy requests run under.
    pub fn governance(&self) -> &Governance {
        &self.governance
    }

    /// Requests currently admitted via [`Executor::run_governed`].
    pub fn queue_depth(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Evaluate a batch of queries, returning one result per query **in
    /// submission order**, regardless of which worker evaluated what.
    ///
    /// Queries are pulled from a shared counter, so long queries do not
    /// convoy short ones behind a static partition. With one thread the
    /// batch runs inline on the caller's thread.
    pub fn run_batch<S: AsRef<str> + Sync>(
        &self,
        queries: &[S],
    ) -> Vec<Result<QueryResult, QueryError>> {
        self.run_batch_impl(queries, false, |_, result, _| result)
    }

    /// [`Executor::run_batch`] with per-operator profiling: every
    /// successful query also returns its [`QueryProfile`]. Scheduling,
    /// ordering and robustness guarantees are identical; the workers'
    /// sessions simply run with profiling on.
    pub fn run_batch_profiled<S: AsRef<str> + Sync>(
        &self,
        queries: &[S],
    ) -> Vec<Result<(QueryResult, QueryProfile), QueryError>> {
        self.run_batch_impl(queries, true, |session, result, plan| {
            let ops = session.take_last_profile().unwrap_or_default();
            (result, QueryProfile { plan, ops })
        })
    }

    /// The shared batch driver: fan `queries` out over the workers via
    /// [`standoff_core::par::scatter`] — a pull-based,
    /// order-preserving pool — recording
    /// queue metrics (`executor.*`) into the engine registry per pick,
    /// and hand each query that succeeded, with its plan and the session
    /// it ran in, to `finish`. Returns one result per query in
    /// submission order: a panicked pool worker re-raises on this
    /// thread and fails the whole batch explicitly (per-query panics
    /// are already caught inside `run_one`), so an incomplete result
    /// vector can never be observed. Under a governing policy every
    /// query runs with its own fresh budget.
    fn run_batch_impl<S, T, F>(
        &self,
        queries: &[S],
        profile: bool,
        finish: F,
    ) -> Vec<Result<T, QueryError>>
    where
        S: AsRef<str> + Sync,
        T: Send,
        F: Fn(&mut Session, QueryResult, Arc<Plan>) -> T + Sync,
    {
        if queries.is_empty() {
            return Vec::new();
        }
        let registry = self.engine.metrics();
        registry.counter("executor.batches").inc();
        let queries_ctr = registry.counter("executor.queries");
        let queue_wait = registry.histogram("executor.queue_wait_ns");
        let queue_depth = registry.histogram("executor.queue_depth");
        let started = Instant::now();
        // Per-pick bookkeeping, identical inline and threaded: wait is
        // how long the query sat in the queue before a worker picked it
        // up, depth is how many queries were still waiting.
        let picked = |k: usize| {
            queries_ctr.inc();
            queue_wait.record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            queue_depth.record((queries.len() - k - 1) as u64);
        };
        let run = |session: &mut Session, k: usize| {
            picked(k);
            // Per query, because a query that panicked leaves a rebuilt
            // session behind. The deadline clock starts when a worker
            // picks the query up, mirroring the admission-anchored
            // clock of the serve path.
            session.set_profile(profile);
            session.set_budget(self.governance.fresh_budget());
            let (result, plan) = self.run_one(session, queries[k].as_ref())?;
            Ok(finish(session, result, plan))
        };
        let pool = || {
            let session = || self.engine.session();
            standoff_core::par::scatter(queries.len(), self.threads, session, run)
        };
        match guard_panic(pool, "batch worker pool") {
            Ok(results) => results,
            Err(e) => queries.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    /// Evaluate one request under this executor's [`Governance`]: admit
    /// it against the bounded queue (shedding with
    /// [`QueryError::Overloaded`] when full), run it with a fresh
    /// per-request budget, and record shed/timeout/depth counters.
    pub fn run_governed(&self, text: &str) -> Result<QueryResult, QueryError> {
        self.run_governed_with(text, self.governance.fresh_budget())
    }

    /// [`Executor::run_governed`] with a caller-supplied budget — the
    /// serve path passes one it keeps a clone of, so it can
    /// [`Budget::cancel`] in-flight requests on drain or client
    /// disconnect. `None` runs ungoverned (admission still applies).
    pub fn run_governed_with(
        &self,
        text: &str,
        budget: Option<Budget>,
    ) -> Result<QueryResult, QueryError> {
        let _permit = self.admit()?;
        let mut session = self.engine.session();
        session.set_budget(budget);
        self.run_one(&mut session, text).map(|(result, _)| result)
    }

    /// Reserve an admission slot, shedding on a full queue. The permit
    /// releases the slot on drop — error paths included.
    fn admit(&self) -> Result<AdmissionPermit<'_>, QueryError> {
        let cap = self.governance.queue_cap.unwrap_or(usize::MAX);
        let depth = self.active.fetch_add(1, Ordering::AcqRel) + 1;
        if depth > cap {
            self.active.fetch_sub(1, Ordering::AcqRel);
            self.gov.sheds.inc();
            return Err(QueryError::Overloaded(format!(
                "admission queue full ({cap} request(s) in flight); retry later"
            )));
        }
        self.gov.queue_depth_hwm.record_max(depth as u64);
        Ok(AdmissionPermit { exec: self })
    }

    /// The engine registry's snapshot with this executor's plan-cache
    /// counters (`plan_cache.hits/misses/evictions`) injected — the
    /// cache belongs to the executor, not the engine, so the registry
    /// alone cannot see it.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.engine.metrics().snapshot();
        let stats = self.cache.stats();
        snapshot
            .counters
            .insert("plan_cache.hits".to_string(), stats.hits);
        snapshot
            .counters
            .insert("plan_cache.misses".to_string(), stats.misses);
        snapshot
            .counters
            .insert("plan_cache.evictions".to_string(), stats.evictions);
        snapshot
    }

    /// Evaluate one query in an existing session, converting any panic
    /// into [`QueryError::Internal`] and leaving the session clean.
    /// Returns the executed plan beside the result; a profiling
    /// session's [`Session::take_last_profile`] belongs to it.
    fn run_one(
        &self,
        session: &mut Session,
        text: &str,
    ) -> Result<(QueryResult, Arc<Plan>), QueryError> {
        // Chaos hook, post-admission: a Delay here holds the request's
        // queue slot open so tests can race sheds, unmounts and drains
        // into the window deterministically.
        standoff_core::fault::point("executor.query");
        let plan = self.cache.get_or_compile(text, &self.engine)?;
        let outcome = guard_panic(|| session.execute_plan(&plan), "query evaluation");
        let result = match outcome {
            Ok(result) => {
                session.reset();
                result
            }
            Err(e) => {
                // The session may hold arbitrary partial state after an
                // unwind; rebuild it from the shared corpus.
                *session = self.engine.session();
                Err(e)
            }
        };
        if matches!(result, Err(QueryError::Timeout)) {
            self.gov.timeouts.inc();
        }
        result.map(|r| (r, plan))
    }
}

/// An admitted request's slot in the bounded submission queue; dropping
/// it (normally or during unwind) frees the slot.
struct AdmissionPermit<'a> {
    exec: &'a Executor,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.exec.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Run `f`, converting a panic into a [`QueryError::Internal`] carrying
/// the panic payload when it is a string.
///
/// The *process* survives and the batch completes, but the default
/// panic hook still prints the panic message and backtrace to stderr
/// before the unwind reaches us. That noise is left in place on
/// purpose: it is the only trace of the underlying engine defect, and
/// suppressing it would require `std::panic::set_hook` — a
/// process-global side effect a library must not impose on its host.
fn guard_panic<T>(f: impl FnOnce() -> T, what: &str) -> Result<T, QueryError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        QueryError::internal(format!("panic in {what}: {msg}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions};
    use crate::plan::PlanExpr;
    use standoff_core::StandoffStrategy;

    fn fixture() -> SharedEngine {
        let mut engine = Engine::new();
        engine
            .load_document(
                "d.xml",
                r#"<a><w start="0" end="9"/><w start="3" end="5"/><w start="12" end="14"/></a>"#,
            )
            .unwrap();
        engine.into_shared()
    }

    #[test]
    fn batch_results_in_submission_order() {
        let exec = Executor::new(fixture(), 3);
        let queries: Vec<String> = (1..=20).map(|k| format!("{k} * 2")).collect();
        let results = exec.run_batch(&queries);
        for (k, r) in results.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap().as_strings(),
                [((k + 1) * 2).to_string()]
            );
        }
    }

    #[test]
    fn errors_are_per_query() {
        let exec = Executor::new(fixture(), 2);
        let results = exec.run_batch(&["1 + 1", "1 +", r#"count(doc("missing")//x)"#]);
        assert_eq!(results[0].as_ref().unwrap().as_strings(), ["2"]);
        assert!(results[1].is_err());
        assert!(results[2].is_err());
    }

    #[test]
    fn cache_hits_on_repeats() {
        let exec = Executor::new(fixture(), 1);
        let batch = vec!["count(doc(\"d.xml\")//w)"; 10];
        let results = exec.run_batch(&batch);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(exec.cache().misses(), 1);
        assert_eq!(exec.cache().hits(), 9);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let shared = fixture();
        let cache = QueryCache::new(2);
        cache.get_or_compile("1", &shared).unwrap();
        cache.get_or_compile("2", &shared).unwrap();
        cache.get_or_compile("1", &shared).unwrap(); // refresh "1"
        cache.get_or_compile("3", &shared).unwrap(); // evicts "2"
        assert_eq!(cache.len(), 2);
        cache.get_or_compile("1", &shared).unwrap();
        assert_eq!(cache.misses(), 3); // "1", "2", "3"
        cache.get_or_compile("2", &shared).unwrap();
        assert_eq!(cache.misses(), 4); // "2" was evicted, re-compiled
    }

    #[test]
    fn cache_distinguishes_generations() {
        // Two engines over different corpora carry different generation
        // stamps; a shared cache must never cross them.
        let cache = QueryCache::new(8);
        let a = fixture();
        let b = fixture();
        assert_ne!(a.generation(), b.generation());
        cache.get_or_compile("1 + 1", &a).unwrap();
        cache.get_or_compile("1 + 1", &b).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    /// Regression: cache keys used to ignore [`EngineOptions`], so
    /// toggling strategy or pushdown after warming the cache reused a
    /// plan compiled under the old settings. With strategy/pushdown now
    /// *baked into* plans, the key carries the options fingerprint.
    #[test]
    fn cache_distinguishes_options_over_same_corpus() {
        let cache = Arc::new(QueryCache::new(8));
        let shared = fixture();
        // Same corpus — identical generation — different options.
        let naive = shared.with_options(EngineOptions {
            strategy: StandoffStrategy::NaiveNoCandidates,
            ..EngineOptions::default()
        });
        assert_eq!(shared.generation(), naive.generation());

        let query = r#"doc("d.xml")//w[@start = 0]/select-narrow::w"#;
        let plan_ll = cache.get_or_compile(query, &shared).unwrap();
        let plan_naive = cache.get_or_compile(query, &naive).unwrap();
        assert_eq!(cache.misses(), 2, "same text, different options: no reuse");

        // The cached plans really were compiled under their own options.
        let strategy_of = |plan: &Plan| {
            let mut found = None;
            plan.visit_exprs(&mut |e| {
                if let PlanExpr::StandoffStep { op, .. } = e {
                    found = Some(op.strategy);
                }
            });
            found.expect("query has a standoff step")
        };
        assert_eq!(strategy_of(&plan_ll), StandoffStrategy::LoopLiftedMergeJoin);
        assert_eq!(
            strategy_of(&plan_naive),
            StandoffStrategy::NaiveNoCandidates
        );

        // And repeat lookups hit their own entry.
        cache.get_or_compile(query, &shared).unwrap();
        cache.get_or_compile(query, &naive).unwrap();
        assert_eq!(cache.hits(), 2);

        // Executors sharing the cache under either option set agree on
        // results (strategies are semantically equivalent).
        let r1 = Executor::with_cache(shared, 1, Arc::clone(&cache)).run_batch(&[query]);
        let r2 = Executor::with_cache(naive, 1, Arc::clone(&cache)).run_batch(&[query]);
        assert_eq!(
            r1[0].as_ref().unwrap().as_xml(),
            r2[0].as_ref().unwrap().as_xml()
        );
    }

    /// Regression (writable overlays): applying a delta through
    /// [`crate::WritableEngine`] swaps in a fresh store generation, so a
    /// shared [`QueryCache`] must treat the post-mutation engine as a
    /// new epoch: a cache entry is never served across generations,
    /// whatever its plan holds.
    #[test]
    fn cache_invalidates_on_writable_mutation() {
        use crate::WritableEngine;
        use standoff_core::StandoffConfig;
        use standoff_store::{DeltaOp, LayerSet};
        use standoff_xml::parse_document;

        let base = parse_document("<text>hello stand-off world</text>").unwrap();
        let mut set = LayerSet::build("mem://w", base, StandoffConfig::default()).unwrap();
        let tokens = parse_document(
            r#"<tokens><w start="0" end="4"/><w start="6" end="14"/><w start="16" end="20"/></tokens>"#,
        )
        .unwrap();
        set.add_layer("tokens", tokens, StandoffConfig::default())
            .unwrap();
        let mut writable = WritableEngine::mount(set, EngineOptions::default()).unwrap();

        let cache = Arc::new(QueryCache::new(8));
        let query = r#"count(layer("mem://w", "tokens")//w)"#;

        let before = Executor::with_cache(writable.shared(), 1, Arc::clone(&cache));
        let r = before.run_batch(&[query, query]);
        assert_eq!(r[0].as_ref().unwrap().as_xml(), "3");
        assert_eq!((cache.misses(), cache.hits()), (1, 1));

        writable
            .apply([DeltaOp::Insert {
                layer: "tokens".into(),
                name: "w".into(),
                start: 5,
                end: 5,
                attrs: vec![],
            }])
            .unwrap();

        // Same query text, same cache — but the mutated engine carries a
        // new generation, so this is a fresh compile, not a stale hit,
        // and the result reflects the insert.
        let after = Executor::with_cache(writable.shared(), 1, Arc::clone(&cache));
        let r = after.run_batch(&[query]);
        assert_eq!(r[0].as_ref().unwrap().as_xml(), "4");
        assert_eq!(
            (cache.misses(), cache.hits()),
            (2, 1),
            "post-mutation lookup must miss the pre-mutation entry"
        );
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = QueryCache::new(8);
        let shared = fixture();
        assert!(cache.get_or_compile("1 +", &shared).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn thread_counts_agree_bytewise() {
        let shared = fixture();
        let queries: Vec<String> = (0..60)
            .map(|k| match k % 4 {
                0 => r#"doc("d.xml")//w[@start = 0]/select-narrow::w"#.to_string(),
                1 => r#"<hit n="{count(doc("d.xml")//w)}"/>"#.to_string(),
                2 => format!("{k} + {k}"),
                _ => r#"for $w in doc("d.xml")//w order by $w/@start descending return $w/@end"#
                    .to_string(),
            })
            .collect();
        let sequential = Executor::new(shared.clone(), 1).run_batch(&queries);
        let concurrent = Executor::new(shared, 4).run_batch(&queries);
        assert_eq!(sequential.len(), concurrent.len());
        for (s, c) in sequential.iter().zip(&concurrent) {
            let s = s.as_ref().expect("fixture queries succeed");
            let c = c.as_ref().expect("fixture queries succeed");
            assert_eq!(s.as_xml(), c.as_xml());
            assert_eq!(s.as_strings(), c.as_strings());
        }
    }
}
