//! The public engine API.
//!
//! An [`Engine`] owns a document store, a per-(document, configuration)
//! region-index cache, and the evaluation options — most importantly the
//! [`StandoffStrategy`] switch the paper's Figure 6 experiment sweeps.
//!
//! # Shared engines and sessions
//!
//! The engine splits into an immutable side — shredded documents,
//! element-name tables, region indexes, mounted layer sets, options,
//! external variable bindings — and per-query evaluation state (frames,
//! iteration maps, constructed documents). [`Engine::into_shared`]
//! freezes the immutable side behind an [`Arc`]; [`SharedEngine::session`]
//! then stamps out cheap per-thread [`Session`]s that share the corpus
//! but construct results privately. This is the substrate of the
//! concurrent batch executor in [`crate::exec`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use standoff_algebra::{Item, LlSeq};
use standoff_core::join::{JoinScratch, JoinStats};
use standoff_core::obs::{Counter, Histogram, MetricsRegistry};
use standoff_core::{Budget, RegionIndex, StandoffConfig, StandoffStrategy};
use standoff_store::{Catalog, Layer, LayerSet, Snapshot};
use standoff_xml::{DocId, DocSource, Document, Store};

use crate::compile;
use crate::error::QueryError;
use crate::eval::Evaluator;
use crate::parser::parse_query;
use crate::plan::Plan;
use crate::profile::{PlanProfile, QueryProfile};
use crate::result::QueryResult;

/// Engine-wide evaluation options.
///
/// These are *compile-time* inputs: the query compiler bakes them into
/// the plan (per-operator strategy and pushdown annotations), so a plan
/// compiled under one set of options is never affected by — and must
/// never be reused under — another. [`EngineOptions::fingerprint`] is
/// the cache-key component that enforces the latter.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// How StandOff axis steps and built-ins are evaluated.
    pub strategy: StandoffStrategy,
    /// Push element-name tests down into the region index as candidate
    /// sequences (§4.3). Disabling this is the ablation of §3.3(iii).
    pub candidate_pushdown: bool,
    /// Record a per-operator execution profile (wall time, cardinality,
    /// join mechanism decisions — see [`crate::profile`]) for every
    /// query. Off by default; when off the evaluator pays a single
    /// branch per operator (the `TraceSink::enabled` pattern). Unlike
    /// the other options this is a pure *run-time* switch — it never
    /// changes the compiled plan — so it is deliberately **not** part
    /// of [`EngineOptions::fingerprint`]: profiled and unprofiled runs
    /// may share one cached plan.
    pub profile: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            strategy: StandoffStrategy::LoopLiftedMergeJoin,
            candidate_pushdown: true,
            profile: false,
        }
    }
}

impl EngineOptions {
    /// A stable fingerprint of every option that influences
    /// compilation. Plan caches key on `(query text, store generation,
    /// options fingerprint)`; omitting the fingerprint would let a plan
    /// compiled under one strategy/pushdown setting serve queries run
    /// under another. `profile` is excluded on purpose — it only
    /// affects execution, and toggling it must *not* fault warmed plans
    /// out of the cache.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the option bytes — stable within a process, which
        // is all a cache key needs.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(self.strategy as u8);
        eat(self.candidate_pushdown as u8);
        hash
    }
}

/// Pre-registered handles into an engine's [`MetricsRegistry`], created
/// once per engine so hot paths never touch the registry's map lock.
/// Cloning shares the underlying cells (sessions of one shared engine
/// all feed the same counters).
#[derive(Clone)]
pub(crate) struct MetricHandles {
    pub(crate) query_executions: Counter,
    pub(crate) query_exec_ns: Histogram,
    pub(crate) mounts: Counter,
    pub(crate) mount_ns: Histogram,
    /// One record per snapshot layer this engine materialized.
    snapshot_materialize_ns: Histogram,
    /// One handle per [`JoinStats::COUNTERS`] row, registered as
    /// `join.<name>`.
    join: Vec<Counter>,
    /// Executions whose join targets were not the layers the plan line
    /// named (`layers: …; result: …`) — see [`crate::eval`].
    pub(crate) claim_mismatch_result_merge: Counter,
    /// Target layers a plan line said were counted from the index
    /// (`count: from index`) that fell back to counting join rows.
    pub(crate) claim_mismatch_count: Counter,
    /// Fragments element constructors built, the container documents
    /// holding them (one per constructor evaluation) and those
    /// containers' bytes.
    construct_fragments: Counter,
    construct_documents: Counter,
    construct_arena_bytes: Counter,
}

impl MetricHandles {
    fn new(registry: &MetricsRegistry) -> MetricHandles {
        MetricHandles {
            query_executions: registry.counter("query.executions"),
            query_exec_ns: registry.histogram("query.exec_ns"),
            mounts: registry.counter("engine.mounts"),
            mount_ns: registry.histogram("engine.mount_ns"),
            snapshot_materialize_ns: registry.histogram("engine.snapshot_materialize_ns"),
            join: JoinStats::COUNTERS
                .iter()
                .map(|c| registry.counter(&format!("join.{}", c.name)))
                .collect(),
            claim_mismatch_result_merge: registry.counter("plan.claim_mismatch.result_merge"),
            claim_mismatch_count: registry.counter("plan.claim_mismatch.count"),
            construct_fragments: registry.counter("construct.fragments"),
            construct_documents: registry.counter("construct.documents"),
            construct_arena_bytes: registry.counter("construct.arena_bytes"),
        }
    }

    /// Mirror one join's stat delta into the registry counters.
    pub(crate) fn record_join(&self, stats: &JoinStats) {
        for (handle, (_, value)) in self.join.iter().zip(stats.counters()) {
            handle.add(value);
        }
    }
}

/// Source of store-generation stamps: every corpus-shaping mutation of
/// any engine draws a fresh, process-unique number. Caches keyed on
/// `(query text, generation)` therefore never serve an entry built
/// against different mounted content, even across unrelated engines.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// What a StandOff join filters its target layers by.
pub(crate) enum LayerFilter<'a> {
    /// Kind tests, `*`, and any join without a pushdown — the
    /// unoptimized reference plan among them: no layer is ruled out.
    Any,
    /// The pushed-down element name.
    Name(&'a str),
    /// The function form's explicit candidate sequence, bucketed per
    /// document.
    Candidates(&'a HashMap<DocId, Vec<u32>>),
}

impl<'a> LayerFilter<'a> {
    /// The filter of one join operator: its explicit candidate sequence
    /// (the function form, bucketed per document) when it has one, else
    /// the plan's pushed-down name.
    pub(crate) fn of(
        op: &'a crate::plan::StandoffOp,
        explicit_candidates: Option<&'a HashMap<DocId, Vec<u32>>>,
    ) -> LayerFilter<'a> {
        match (explicit_candidates, &op.pushdown) {
            (Some(buckets), _) => LayerFilter::Candidates(buckets),
            (None, Some(name)) => LayerFilter::Name(name),
            (None, None) => LayerFilter::Any,
        }
    }
}

/// The layers among `members` (one join unit: a mounted layer group, or
/// a lone document) that can answer a StandOff join — the only place
/// this is decided. A layer answers a name when its element-name table
/// holds it — read from the layer's catalog while it is not
/// materialized, so a layer without the name is never loaded — and an
/// explicit candidate sequence when some candidate lies in it; the
/// evaluator joins into exactly these layers (materializing them) and
/// `explain` prints exactly these, so plan and execution cannot name
/// different ones.
pub(crate) fn answering_layers(
    store: &Store,
    members: &[DocId],
    filter: &LayerFilter<'_>,
) -> Vec<DocId> {
    let answers = |doc: &DocId| match filter {
        LayerFilter::Any => true,
        LayerFilter::Name(name) => store.name_count(*doc, name) > 0,
        LayerFilter::Candidates(buckets) => buckets.get(doc).is_some_and(|b| !b.is_empty()),
    };
    members.iter().copied().filter(answers).collect()
}

/// A mounted layer document: its configuration, and its document and
/// region index — whole, or in a [`Snapshot`] that materializes them the
/// first time a plan dereferences the layer. The store registers it as
/// the document's [`DocSource`], so `doc()`, `layer()`, the joins and
/// the statistics all reach a layer through the same slot, and every
/// session and `serve` thread shares the snapshot's one cache.
pub(crate) struct MountedLayer {
    /// The registration URI (`uri`, `uri#layer`), for error text.
    label: String,
    body: LayerBody,
    /// The mounting engine's `engine.snapshot_materialize_ns`.
    materialize_ns: Histogram,
}

enum LayerBody {
    Ready(Arc<Layer>),
    Snapshot {
        snapshot: Snapshot,
        k: usize,
        catalog: Arc<Catalog>,
    },
}

impl LayerBody {
    fn name(&self) -> &str {
        match self {
            LayerBody::Ready(layer) => layer.name(),
            LayerBody::Snapshot { catalog, .. } => catalog.name(),
        }
    }

    fn config(&self) -> &StandoffConfig {
        match self {
            LayerBody::Ready(layer) => layer.config(),
            LayerBody::Snapshot { catalog, .. } => catalog.config(),
        }
    }
}

impl MountedLayer {
    /// The configuration the layer's index was built under.
    fn config(&self) -> &StandoffConfig {
        self.body.config()
    }

    /// The layer, materializing a snapshot layer on first use.
    fn layer(&self) -> Result<Arc<Layer>, String> {
        match &self.body {
            LayerBody::Ready(layer) => Ok(Arc::clone(layer)),
            LayerBody::Snapshot { snapshot, k, .. } => {
                let (layer, took) = snapshot
                    .load_layer(*k)
                    .map_err(|e| format!("cannot materialize '{}': {e}", self.label))?;
                if let Some(took) = took {
                    self.materialize_ns.record_duration(took);
                }
                Ok(layer)
            }
        }
    }

    /// The layer's region index, materializing the layer on first use.
    pub(crate) fn index(&self) -> Result<Arc<RegionIndex>, QueryError> {
        self.layer()
            .map(|layer| layer.index_arc())
            .map_err(QueryError::dynamic)
    }

    /// A snapshot layer that has been materialized.
    fn is_materialized_snapshot(&self) -> bool {
        matches!(&self.body, LayerBody::Snapshot { snapshot, k, .. } if snapshot.is_materialized(*k))
    }
}

impl DocSource for MountedLayer {
    fn load(&self) -> Result<Arc<Document>, String> {
        self.layer().map(|layer| layer.doc_arc())
    }

    fn uri(&self) -> Option<&str> {
        match &self.body {
            LayerBody::Ready(layer) => layer.doc().uri(),
            LayerBody::Snapshot { catalog, .. } => catalog.uri(),
        }
    }

    fn name_count(&self, name: &str) -> usize {
        match &self.body {
            LayerBody::Ready(layer) => layer.doc().elements_named(name).len(),
            LayerBody::Snapshot { catalog, .. } => catalog.name_count(name),
        }
    }
}

/// The mutable evaluation state behind an engine or session. Cloning
/// yields an independent state sharing the same (Arc'd) documents and
/// region indexes — the basis of per-thread sessions.
#[derive(Clone)]
pub struct EngineState {
    pub store: Store,
    pub options: EngineOptions,
    region_cache: HashMap<(u32, StandoffConfig), Arc<RegionIndex>>,
    /// Mounted layer groups: group id → member documents (base first).
    /// StandOff axes join across all members of a group.
    layer_groups: Vec<Vec<DocId>>,
    /// Document id → its layer group, for mounted documents.
    doc_group: HashMap<u32, u32>,
    /// Mounted layer documents: the configuration each index was built
    /// under, and the index itself, materialized on first dereference.
    layers: HashMap<u32, Arc<MountedLayer>>,
    /// `(store uri, layer name)` → document, for the `layer()` builtin.
    layer_lookup: HashMap<(String, String), DocId>,
    /// Values for `declare variable $x external` declarations.
    externals: HashMap<String, Vec<Item>>,
    /// Reusable buffers for the StandOff join hot path; lives on the
    /// state so batch sessions reuse one allocation set across queries
    /// (cloning a state starts the clone with cold, empty scratch).
    pub(crate) join_scratch: JoinScratch,
    /// The engine's metrics registry. Shared (not cloned) across every
    /// session of a [`SharedEngine`], so counters accumulate
    /// engine-wide while tests with private engines stay isolated.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Pre-registered counter/histogram handles into `metrics`.
    pub(crate) handles: MetricHandles,
    /// The per-operator profile of the most recent profiled execution
    /// (see [`EngineOptions::profile`]).
    pub(crate) last_profile: Option<PlanProfile>,
    /// Governance handle for the *next* executions on this state:
    /// deadline, result-cardinality and scratch caps, cooperative
    /// cancellation. Runtime-only — never part of the options
    /// fingerprint (a governed and an ungoverned run share compiled
    /// plans), and cleared when a session is stamped out.
    pub(crate) budget: Option<Budget>,
    /// The containers this state's constructors built: `(document id,
    /// bytes)`, in creation order.
    containers: Vec<(usize, u64)>,
}

impl EngineState {
    fn new(options: EngineOptions) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let handles = MetricHandles::new(&metrics);
        EngineState::with_metrics(options, metrics, handles)
    }

    fn with_metrics(
        options: EngineOptions,
        metrics: Arc<MetricsRegistry>,
        handles: MetricHandles,
    ) -> Self {
        EngineState {
            store: Store::new(),
            options,
            region_cache: HashMap::new(),
            layer_groups: Vec::new(),
            doc_group: HashMap::new(),
            layers: HashMap::new(),
            layer_lookup: HashMap::new(),
            externals: HashMap::new(),
            join_scratch: JoinScratch::default(),
            metrics,
            handles,
            last_profile: None,
            budget: None,
            containers: Vec::new(),
        }
    }

    /// The region index of a document under a configuration: a mounted
    /// layer's own index under the layer's configuration (materializing
    /// the layer on first use), otherwise built on first use and cached
    /// (documents are immutable).
    pub fn region_index(
        &mut self,
        doc: DocId,
        config: &StandoffConfig,
    ) -> Result<Arc<RegionIndex>, QueryError> {
        if let Some(layer) = self.layers.get(&doc.0).filter(|l| l.config() == config) {
            return layer.index();
        }
        let key = (doc.0, config.clone());
        if let Some(idx) = self.region_cache.get(&key) {
            return Ok(Arc::clone(idx));
        }
        let read = self.store.try_doc(doc).map_err(QueryError::dynamic)?;
        let index = Arc::new(RegionIndex::build(read, config)?);
        self.region_cache.insert(key, Arc::clone(&index));
        Ok(index)
    }

    /// Drop the documents with id ≥ `len` — the containers queries
    /// constructed — with their cached indexes and their bytes.
    pub(crate) fn drop_constructed(&mut self, len: usize) {
        self.store.truncate(len);
        self.region_cache
            .retain(|(doc, _), _| (*doc as usize) < len);
        self.containers.retain(|&(doc, _)| doc < len);
    }

    /// Account for one constructor evaluation: `fragments` fragments in
    /// one container of `bytes`, the last document in the store. Every
    /// container this state holds counts against the scratch cap.
    pub(crate) fn note_constructed(
        &mut self,
        fragments: u64,
        bytes: u64,
    ) -> Result<(), QueryError> {
        self.handles.construct_fragments.add(fragments);
        self.handles.construct_documents.inc();
        self.handles.construct_arena_bytes.add(bytes);
        (self.containers).push((self.store.len() - 1, bytes));
        if let Some(b) = &self.budget {
            b.note_scratch(self.containers.iter().map(|&(_, bytes)| bytes).sum())?;
        }
        Ok(())
    }

    /// The layer group a mounted document belongs to, if any.
    pub(crate) fn layer_group_id(&self, doc: DocId) -> Option<u32> {
        self.doc_group.get(&doc.0).copied()
    }

    /// Member documents of a layer group (base first).
    pub(crate) fn layer_group_members(&self, group: u32) -> &[DocId] {
        &self.layer_groups[group as usize]
    }

    /// The mounted layer a document is, if any.
    pub(crate) fn mounted_layer(&self, doc: DocId) -> Option<&MountedLayer> {
        self.layers.get(&doc.0).map(|layer| &**layer)
    }

    /// Resolve `layer("uri", "name")` to a mounted layer document.
    pub fn layer_doc(&self, uri: &str, layer: &str) -> Option<DocId> {
        self.layer_lookup
            .get(&(uri.to_string(), layer.to_string()))
            .copied()
    }

    /// Every mounted layer group's member documents (base first).
    pub(crate) fn layer_groups(&self) -> &[Vec<DocId>] {
        &self.layer_groups
    }

    /// How `explain` names a mounted layer document: its layer name.
    /// Linear in the number of mounted layers.
    pub(crate) fn layer_label(&self, doc: DocId) -> String {
        (self.layer_lookup.iter())
            .find(|(_, d)| **d == doc)
            .map_or("?", |((_, name), _)| name.as_str())
            .to_string()
    }

    /// The region index of every loaded document — one in the store
    /// with a URI that is not a mounted layer — under `config`, the
    /// plan's prolog configuration, obtained as a join obtains it: from
    /// the cache, or built now for the caller (the query that joins the
    /// document builds and caches its own). A document that fails to
    /// index is left out; the query that reaches it reports the failure.
    pub(crate) fn loaded_indexes(&self, config: &StandoffConfig) -> Vec<(DocId, Arc<RegionIndex>)> {
        (self.store.doc_ids())
            .filter(|doc| !self.layers.contains_key(&doc.0) && self.store.doc_uri(*doc).is_some())
            .filter_map(|doc| {
                let index = match self.region_cache.get(&(doc.0, config.clone())) {
                    Some(index) => Arc::clone(index),
                    None => Arc::new(RegionIndex::build(self.store.doc(doc), config).ok()?),
                };
                Some((doc, index))
            })
            .collect()
    }

    /// The region indexes of the documents `include` keeps: every
    /// mounted layer's (materialized now — a rendered plan includes
    /// only the layers its joins reach) and the `loaded` ones
    /// ([`EngineState::loaded_indexes`]). A layer that fails to
    /// materialize is left out; the query that reaches it reports the
    /// failure.
    pub(crate) fn indexes(
        &self,
        include: impl Fn(DocId) -> bool,
        loaded: &[(DocId, Arc<RegionIndex>)],
    ) -> Vec<(DocId, Arc<RegionIndex>)> {
        let layers = (self.layers.iter())
            .filter(|(&doc, _)| include(DocId(doc)))
            .filter_map(|(&doc, layer)| Some((DocId(doc), layer.index().ok()?)));
        let loaded = (loaded.iter()).filter(|(doc, _)| include(*doc)).cloned();
        layers.chain(loaded).collect()
    }

    /// Parse, compile and evaluate a query against this state.
    fn run(&mut self, query: &str) -> Result<QueryResult, QueryError> {
        let plan = compile::compile(parse_query(query)?, &self.options)?;
        self.execute_plan(&plan)
    }

    /// Evaluate a compiled plan against this state — the single
    /// execution entry point every query path funnels through. Always
    /// meters `query.executions` / `query.exec_ns` in the engine's
    /// registry; records a per-operator [`PlanProfile`] (retrievable
    /// via `take_last_profile`) when [`EngineOptions::profile`] is on.
    pub fn execute_plan(&mut self, plan: &Plan) -> Result<QueryResult, QueryError> {
        let started = Instant::now();
        // A budget that tripped before we even start (deadline already
        // past, request cancelled in the queue) refuses cleanly here.
        if let Some(b) = &self.budget {
            b.check()?;
        }
        // External variable values are cloned out first so the evaluator
        // can borrow the state mutably.
        let mut external_values = Vec::with_capacity(plan.externals.len());
        for name in &plan.externals {
            let items = self.externals.get(name).cloned().ok_or_else(|| {
                QueryError::stat(format!(
                    "external variable ${name} has no value (Engine::bind_external)"
                ))
            })?;
            external_values.push((name.clone(), items));
        }
        let profiling = self.options.profile;
        let mut evaluator = Evaluator::new(self, plan.config.clone(), plan.functions.clone());
        if profiling {
            evaluator.enable_profiling();
        }
        for (name, items) in external_values {
            evaluator.bind(&name, LlSeq::for_iter(0, items));
        }
        // Global variables evaluate in declaration order in the root
        // scope.
        let outcome = (|| {
            for (name, expr) in &plan.globals {
                let value = evaluator.eval(expr)?;
                evaluator.bind(name, value);
            }
            evaluator.eval(&plan.body)
        })();
        let profile = evaluator.take_profile();
        if profiling {
            self.last_profile = profile;
        }
        self.handles.query_executions.inc();
        self.handles
            .query_exec_ns
            .record_duration(started.elapsed());
        QueryResult::new(outcome?.into_items(), &self.store)
    }

    /// The per-operator profile of the most recent profiled execution,
    /// consuming it. `None` unless [`EngineOptions::profile`] was on.
    pub fn take_last_profile(&mut self) -> Option<PlanProfile> {
        self.last_profile.take()
    }
}

/// The XQuery engine with StandOff support.
pub struct Engine {
    state: EngineState,
    /// Stamp of the last corpus-shaping mutation (see
    /// [`SharedEngine::generation`]).
    generation: u64,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    pub fn new() -> Self {
        Self::with_options(EngineOptions::default())
    }

    pub fn with_options(options: EngineOptions) -> Self {
        Engine {
            state: EngineState::new(options),
            generation: fresh_generation(),
        }
    }

    /// Provide the value of a `declare variable $name external`
    /// declaration for subsequent runs.
    pub fn bind_external(&mut self, name: &str, items: Vec<Item>) {
        self.state.externals.insert(name.to_string(), items);
        self.generation = fresh_generation();
    }

    /// Convenience: bind an external variable to a single string.
    pub fn bind_external_string(&mut self, name: &str, value: &str) {
        self.bind_external(name, vec![Item::str(value)]);
    }

    /// Convenience: bind an external variable to a single integer.
    pub fn bind_external_integer(&mut self, name: &str, value: i64) {
        self.bind_external(name, vec![Item::Integer(value)]);
    }

    /// Parse and register a document under a URI for `fn:doc`.
    ///
    /// Re-registering a plain URI rebinds it (the store's historical
    /// behavior), but URIs claimed by a mounted layer set are protected —
    /// silently shadowing a layer would leave `doc()` and `layer()`
    /// resolving to different documents.
    pub fn load_document(&mut self, uri: &str, xml: &str) -> Result<DocId, QueryError> {
        if let Some(existing) = self.state.store.by_uri(uri) {
            if self.state.layer_group_id(existing).is_some() {
                return Err(QueryError::stat(format!(
                    "cannot load document: '{uri}' is a mounted store layer"
                )));
            }
        }
        let id = self.state.store.load(uri, xml)?;
        self.generation = fresh_generation();
        Ok(id)
    }

    /// Register an already-shredded document.
    pub fn add_document(&mut self, doc: Document, uri: Option<&str>) -> DocId {
        let id = self.state.store.add(doc, uri);
        self.generation = fresh_generation();
        id
    }

    /// Mount a persistent layer set (typically loaded from a
    /// `standoff-store` snapshot). Returns the base document's id.
    ///
    /// * the base layer registers under the set's URI, so `doc("uri")`
    ///   resolves to it;
    /// * every other layer registers under `uri#name` (also reachable via
    ///   the `layer("uri", "name")` builtin);
    /// * each layer's prebuilt region index is used under the layer's
    ///   own configuration — the layer set's indices are used as-is,
    ///   never rebuilt;
    /// * all layers of the set form one *layer group*: StandOff axis
    ///   steps and the `select-narrow(..)` builtin family join across the
    ///   whole group, so `entities` can be narrowed by `tokens`.
    ///
    /// A writer's pending delta is mounted the same way, folded in: see
    /// [`crate::WritableEngine`] and `standoff_store::compact`. The
    /// documents and indexes stay shared with the layer set (and, for a
    /// set materialized from a snapshot, with the snapshot's layer
    /// cache): mounting is pointer plumbing, not a copy of column data.
    pub fn mount_store(&mut self, set: LayerSet) -> Result<DocId, QueryError> {
        let (uri, layers) = set.into_layers();
        let bodies = layers
            .into_iter()
            .map(|layer| LayerBody::Ready(Arc::new(layer)))
            .collect();
        self.mount_layers(&uri, bodies)
    }

    /// Mount every layer of a [`Snapshot`], registered exactly as
    /// [`Engine::mount_store`] registers a layer set — but from the
    /// snapshot's header and each layer's [`Catalog`] alone. A layer is
    /// materialized (checksummed, revalidated, shared with the
    /// snapshot's cache) the first time a query dereferences it:
    /// `doc()`/`layer()` resolving to it, a StandOff join whose name the
    /// layer's catalog holds, or a `*`/`node()` join, which reaches every
    /// layer. A layer no plan reaches is never read, and a damaged one
    /// fails only the queries that reach it, with the snapshot's
    /// categorized error. The engine keeps a clone of the handle.
    pub fn mount_snapshot(&mut self, snapshot: &Snapshot) -> Result<DocId, QueryError> {
        let bodies = (0..snapshot.len())
            .map(|k| {
                let catalog = snapshot.catalog(k)?;
                Ok(LayerBody::Snapshot {
                    snapshot: snapshot.clone(),
                    k,
                    catalog,
                })
            })
            .collect::<Result<Vec<_>, standoff_store::StoreError>>()
            .map_err(|e| QueryError::stat(format!("cannot mount snapshot: {e}")))?;
        self.mount_layers(snapshot.uri(), bodies)
    }

    /// The one registration path of every mount.
    fn mount_layers(&mut self, uri: &str, bodies: Vec<LayerBody>) -> Result<DocId, QueryError> {
        let started = Instant::now();
        let registered = |k: usize, body: &LayerBody| match k {
            0 => uri.to_string(),
            _ => format!("{uri}#{}", body.name()),
        };
        // Checked before any state is touched, so a failed mount changes
        // nothing.
        for (k, body) in bodies.iter().enumerate() {
            let doc_uri = registered(k, body);
            if self.state.store.by_uri(&doc_uri).is_some() {
                return Err(QueryError::stat(format!(
                    "cannot mount store: a document is already registered at '{doc_uri}'"
                )));
            }
        }
        let group_id = self.state.layer_groups.len() as u32;
        let mut members = Vec::with_capacity(bodies.len());
        for (k, body) in bodies.into_iter().enumerate() {
            let doc_uri = registered(k, &body);
            let name = body.name().to_string();
            let layer = Arc::new(MountedLayer {
                label: doc_uri.clone(),
                body,
                materialize_ns: self.state.handles.snapshot_materialize_ns.clone(),
            });
            let id = self.state.store.add_source(layer.clone(), Some(&doc_uri));
            self.state.layer_lookup.insert((uri.to_string(), name), id);
            self.state.doc_group.insert(id.0, group_id);
            self.state.layers.insert(id.0, layer);
            members.push(id);
        }
        let base = members[0];
        self.state.layer_groups.push(members);
        self.generation = fresh_generation();
        self.state.handles.mounts.inc();
        self.state
            .handles
            .mount_ns
            .record_duration(started.elapsed());
        Ok(base)
    }

    /// Registration URIs (`uri`, `uri#layer`) of the snapshot layers
    /// materialized so far, in mount order.
    pub fn materialized_layers(&self) -> Vec<String> {
        let mut docs: Vec<u32> = (self.state.layers.iter())
            .filter(|(_, layer)| layer.is_materialized_snapshot())
            .map(|(&doc, _)| doc)
            .collect();
        docs.sort_unstable();
        docs.into_iter()
            .map(|doc| self.state.layers[&doc].label.clone())
            .collect()
    }

    /// The underlying document store (documents, constructed results).
    pub fn store(&self) -> &Store {
        &self.state.store
    }

    /// Current evaluation options.
    pub fn options(&self) -> &EngineOptions {
        &self.state.options
    }

    /// The engine's metrics registry: join mechanism counters, query
    /// execution timings, mount timings. Shared with every [`Session`]
    /// stamped out after [`Engine::into_shared`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.state.metrics
    }

    /// Enable/disable per-operator execution profiling (see
    /// [`EngineOptions::profile`]). A pure run-time switch — compiled
    /// and cached plans are unaffected.
    pub fn set_profile(&mut self, enabled: bool) {
        self.state.options.profile = enabled;
    }

    /// The per-operator profile of the most recent profiled run,
    /// consuming it (`None` unless profiling was on).
    pub fn take_last_profile(&mut self) -> Option<PlanProfile> {
        self.state.take_last_profile()
    }

    /// Run a query with per-operator profiling forced on, returning the
    /// result together with the executed plan and its profile. The plan
    /// is the one [`Engine::run`] executes; render the profile against
    /// this engine ([`Engine::state`]).
    pub fn run_profiled(&mut self, query: &str) -> Result<(QueryResult, QueryProfile), QueryError> {
        let plan = Arc::new(self.compile(query)?);
        let was = self.state.options.profile;
        self.state.options.profile = true;
        let outcome = self.state.execute_plan(&plan);
        self.state.options.profile = was;
        let ops = self.state.last_profile.take().unwrap_or_default();
        Ok((outcome?, QueryProfile { plan, ops }))
    }

    /// `explain analyze`: execute the query with profiling and render
    /// the plan tree annotated with measured rows/time per operator,
    /// each StandOff line's claim held against its operator's actuals
    /// (see [`crate::explain`]).
    pub fn explain_analyze(&mut self, query: &str) -> Result<String, QueryError> {
        let (result, profile) = self.run_profiled(query)?;
        let mut out = profile.render(&self.state);
        out.push_str(&format!("result: {} item(s)\n", result.len()));
        Ok(out)
    }

    /// Switch the StandOff evaluation strategy (Figure 6's independent
    /// variable).
    ///
    /// Option changes do *not* bump the store generation: the
    /// generation stamps corpus identity, while plan caches key the
    /// options separately via [`EngineOptions::fingerprint`].
    pub fn set_strategy(&mut self, strategy: StandoffStrategy) {
        self.state.options.strategy = strategy;
    }

    /// Enable/disable candidate-sequence pushdown (§4.3 ablation).
    pub fn set_candidate_pushdown(&mut self, enabled: bool) {
        self.state.options.candidate_pushdown = enabled;
    }

    /// Install (or clear, with `None`) the governance budget for
    /// subsequent runs on this engine: deadline, result-cardinality and
    /// scratch-memory caps, and cooperative cancellation via
    /// [`Budget::cancel`]. A run-time switch like profiling — compiled
    /// and cached plans are unaffected, and an exhausted budget must be
    /// replaced (budgets do not reset between queries).
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.state.budget = budget;
    }

    /// Pre-build the region index for a document under a configuration
    /// (otherwise built lazily on the first StandOff step). Useful to
    /// exclude index construction from benchmark timings, mirroring the
    /// paper's pre-created indices — and to build an index once *before*
    /// [`Engine::into_shared`] instead of once per session after.
    pub fn prebuild_region_index(
        &mut self,
        doc: DocId,
        config: &StandoffConfig,
    ) -> Result<(), QueryError> {
        self.state.region_index(doc, config)?;
        Ok(())
    }

    /// Parse a query into its unresolved plan without running it. The
    /// plan is not executable until [`compile::compile`] resolves it:
    /// its calls are still by name and its prolog options unchecked.
    pub fn parse(&self, query: &str) -> Result<Plan, QueryError> {
        parse_query(query)
    }

    /// Compile a query into its optimized plan without running it —
    /// the plan [`Engine::run`], [`SharedEngine::compile`] and the plan
    /// cache make of the same text under the same options.
    pub fn compile(&self, query: &str) -> Result<Plan, QueryError> {
        compile::compile(parse_query(query)?, &self.state.options)
    }

    /// Render the optimized plan of a query with what this engine's
    /// corpus holds for each StandOff join (see [`crate::explain`]).
    /// The text is generated from the very plan object execution would
    /// run.
    pub fn explain(&self, query: &str) -> Result<String, QueryError> {
        let plan = self.compile(query)?;
        Ok(crate::explain::explain_plan(&plan, Some(&self.state)))
    }

    /// The evaluation state behind this engine: what a plan or a
    /// [`QueryProfile`] of a query it ran is rendered against.
    pub fn state(&self) -> &EngineState {
        &self.state
    }

    /// Parse, compile, optimize and evaluate a query; returns the
    /// materialized result sequence.
    pub fn run(&mut self, query: &str) -> Result<QueryResult, QueryError> {
        self.state.run(query)
    }

    /// Evaluate a query through the *unoptimized* resolved plan — the
    /// reference path the `plan_equivalence` suite holds the optimizer
    /// against. Not a production entry point.
    #[doc(hidden)]
    pub fn run_unoptimized(&mut self, query: &str) -> Result<QueryResult, QueryError> {
        let mut plan = parse_query(query)?;
        compile::resolve(&mut plan, &self.state.options)?;
        self.state.execute_plan(&plan)
    }

    /// Evaluate a query and return only the result cardinality, dropping
    /// any documents the query constructed. Benchmark harnesses use this
    /// so repeated runs neither pay serialization costs nor accumulate
    /// constructed results in the store.
    pub fn run_and_discard(&mut self, query: &str) -> Result<usize, QueryError> {
        let plan = compile::compile(parse_query(query)?, &self.state.options)?;
        self.execute_and_discard(&plan)
    }

    /// [`Engine::run_and_discard`] for a plan compiled elsewhere — a
    /// harness that times the plan of a filtered pass list, say.
    pub fn execute_and_discard(&mut self, plan: &Plan) -> Result<usize, QueryError> {
        let docs_before = self.state.store.len();
        let result = self.state.execute_plan(plan);
        self.state.drop_constructed(docs_before);
        result.map(|r| r.len())
    }

    /// The engine's current store-generation stamp: changes whenever a
    /// corpus-shaping mutation (load, mount, rebind, reconfigure)
    /// happens. See [`SharedEngine::generation`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Freeze this engine into an immutable, thread-shareable corpus.
    ///
    /// Everything loaded or mounted so far — documents, element-name
    /// tables, region indexes built or installed up to this point,
    /// layer groups, options, external bindings — becomes the shared
    /// base every [`Session`] evaluates against.
    pub fn into_shared(self) -> SharedEngine {
        SharedEngine {
            core: Arc::new(self.state),
            generation: self.generation,
        }
    }
}

/// The immutable side of an engine, shareable across threads.
///
/// Cloning is one atomic increment; every clone sees the same corpus.
/// Stamp out a [`Session`] per worker thread to evaluate queries.
#[derive(Clone)]
pub struct SharedEngine {
    core: Arc<EngineState>,
    generation: u64,
}

impl SharedEngine {
    /// Create a per-thread evaluation session over the shared corpus.
    ///
    /// The session clone costs a pointer copy per shared document plus
    /// the (small) URI / layer maps — no document or index data is
    /// copied. Its metrics registry — the `join.*` counters among them —
    /// is *shared* with the engine and every sibling session.
    pub fn session(&self) -> Session {
        let mut state = self.core.as_ref().clone();
        state.last_profile = None;
        // Governance is per request, never inherited: a budget frozen
        // into the shared core must not govern (or cancel) every
        // future session.
        state.budget = None;
        Session {
            base_docs: self.core.store.len(),
            state,
        }
    }

    /// The generation stamp of the frozen corpus: changes whenever the
    /// originating engine loaded, mounted or rebound anything before
    /// freezing. Cache keys derived from query text must include it
    /// *and* the options fingerprint (see [`crate::exec::QueryCache`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shared document store.
    pub fn store(&self) -> &Store {
        &self.core.store
    }

    /// The evaluation options the corpus was frozen with.
    pub fn options(&self) -> &EngineOptions {
        &self.core.options
    }

    /// The metrics registry shared by the originating engine and every
    /// session over this corpus (including those of
    /// [`SharedEngine::with_options`] variants).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// The same corpus under different evaluation options — strategy
    /// sweeps over one mounted corpus without re-loading anything. The
    /// generation stamp is preserved (the corpus is identical); plan
    /// caches distinguish the variants by options fingerprint.
    pub fn with_options(&self, options: EngineOptions) -> SharedEngine {
        let mut state = self.core.as_ref().clone();
        state.options = options;
        SharedEngine {
            core: Arc::new(state),
            generation: self.generation,
        }
    }

    /// An empty engine under the same options that keeps feeding *this*
    /// engine's metrics registry — the next generation of a
    /// [`crate::WritableEngine`], whose counters must not restart at
    /// every write.
    pub(crate) fn successor(&self) -> Engine {
        Engine {
            state: EngineState::with_metrics(
                self.core.options.clone(),
                Arc::clone(&self.core.metrics),
                self.core.handles.clone(),
            ),
            generation: fresh_generation(),
        }
    }

    /// Compile a query under the frozen options — the plan cache's
    /// compile path, and the same plan [`Engine::compile`] makes.
    pub fn compile(&self, query: &str) -> Result<Plan, QueryError> {
        compile::compile(parse_query(query)?, &self.core.options)
    }

    /// The frozen evaluation state: what a [`QueryProfile`] of a query
    /// run on this corpus (by a [`Session`] or an executor) is rendered
    /// against.
    pub fn state(&self) -> &EngineState {
        &self.core
    }
}

/// A per-thread query evaluation session over a [`SharedEngine`].
///
/// Sessions are cheap to create, own their per-query mutable state
/// (constructed documents, lazily built region indexes), and share the
/// immutable corpus with every sibling session. A session is `Send` but
/// deliberately not `Sync` — one worker drives it at a time.
pub struct Session {
    state: EngineState,
    /// Shared documents at session creation; everything at or beyond
    /// this id is session-local (query-constructed).
    base_docs: usize,
}

impl Session {
    /// Parse and evaluate a query.
    pub fn run(&mut self, query: &str) -> Result<QueryResult, QueryError> {
        self.state.run(query)
    }

    /// Evaluate a previously compiled plan (the batch executor's hot
    /// path — compilation happened once, in the shared plan cache).
    pub fn execute_plan(&mut self, plan: &Plan) -> Result<QueryResult, QueryError> {
        self.state.execute_plan(plan)
    }

    /// Drop session-local constructed documents and their cached
    /// indexes, returning the session to its post-creation state. Call
    /// between queries to keep long-lived worker sessions from
    /// accumulating constructed results.
    pub fn reset(&mut self) {
        self.state.drop_constructed(self.base_docs);
    }

    /// The session's store view (shared base + session-local documents).
    pub fn store(&self) -> &Store {
        &self.state.store
    }

    /// The metrics registry — shared with the engine this session came
    /// from and all of its sibling sessions.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.state.metrics
    }

    /// Enable/disable per-operator execution profiling for this session
    /// (see [`EngineOptions::profile`]).
    pub fn set_profile(&mut self, enabled: bool) {
        self.state.options.profile = enabled;
    }

    /// Install (or clear) the governance budget for subsequent queries
    /// in this session (see [`Engine::set_budget`]). The governed
    /// executor sets a fresh budget per request; keep a clone to
    /// [`Budget::cancel`] from another thread.
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.state.budget = budget;
    }

    /// The per-operator profile of the most recent profiled run in this
    /// session, consuming it (`None` unless profiling was on).
    pub fn take_last_profile(&mut self) -> Option<PlanProfile> {
        self.state.take_last_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::config_from_options;

    /// A deadline that passes while the fused `[@k = "lit"]` filter is
    /// walking its rows is the same categorized error the generic
    /// predicate reports for the same table under the same deadline.
    /// The table is one node repeated — cheap to build, long to filter —
    /// so the budget is live when the filter is entered and the only
    /// place left to notice the deadline is the filter's own poll.
    #[test]
    fn deadline_inside_the_attr_filter_is_the_generic_timeout() {
        use crate::plan::{Atom, PlanExpr};
        use standoff_algebra::{NodeTest, TreeAxis};
        use standoff_core::BudgetLimits;
        use std::time::Duration;

        let mut engine = Engine::new();
        let doc = engine.load_document("f", r#"<r><x k="a"/></r>"#).unwrap();
        let x = Item::Node(standoff_xml::NodeRef::tree(doc, 2));
        let rows = 400_000;
        let table = LlSeq::from_columns(vec![0; rows], vec![x; rows]);
        let fused = PlanExpr::AttrEquals {
            name: "k".into(),
            value: "a".into(),
        };
        let generic = PlanExpr::Comparison(
            crate::plan::CompOp::Eq,
            Box::new(PlanExpr::TreeStep {
                input: None,
                axis: TreeAxis::Attribute,
                test: NodeTest::named("k"),
                predicates: Vec::new(),
            }),
            Box::new(PlanExpr::Const(Atom::str("a"))),
        );
        let mut filter = |predicate: &PlanExpr, deadline: Option<Duration>| {
            let input = table.clone();
            engine.state.budget = deadline.map(|d| {
                Budget::new(BudgetLimits {
                    deadline: Some(d),
                    ..BudgetLimits::default()
                })
            });
            Evaluator::new(&mut engine.state, StandoffConfig::default(), Vec::new())
                .apply_predicate(input, predicate)
                .map(|kept| kept.len())
        };
        assert_eq!(filter(&fused, None), Ok(rows));
        assert_eq!(filter(&generic, None), Ok(rows));
        let tight = Some(Duration::from_micros(200));
        assert_eq!(filter(&fused, tight), Err(QueryError::Timeout));
        assert_eq!(filter(&generic, tight), filter(&fused, tight));
    }

    #[test]
    fn options_default_to_loop_lifted() {
        let engine = Engine::new();
        assert_eq!(
            engine.options().strategy,
            StandoffStrategy::LoopLiftedMergeJoin
        );
        assert!(engine.options().candidate_pushdown);
    }

    #[test]
    fn prolog_standoff_options() {
        let options = crate::parser::parse_query(
            r#"declare option standoff-start "from";
               declare option standoff-end "to";
               declare option standoff-region "span";
               1"#,
        )
        .unwrap()
        .options;
        let config = config_from_options(&options).unwrap();
        assert_eq!(config.start_name, "from");
        assert_eq!(config.end_name, "to");
        assert_eq!(config.region_name.as_deref(), Some("span"));
    }

    #[test]
    fn invalid_standoff_type_rejected() {
        let options =
            crate::parser::parse_query(r#"declare option standoff-type "xs:duration"; 1"#)
                .unwrap()
                .options;
        assert!(config_from_options(&options).is_err());
    }

    #[test]
    fn shared_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<SharedEngine>();
        assert_send::<Session>();
        assert_send::<QueryResult>();
    }

    #[test]
    fn sessions_share_documents_but_not_constructions() {
        let mut engine = Engine::new();
        engine.load_document("d.xml", "<a><b/><b/></a>").unwrap();
        let shared = engine.into_shared();
        let mut s1 = shared.session();
        let mut s2 = shared.session();
        // A constructor adds a session-local document…
        let r1 = s1.run(r#"<wrap>{count(doc("d.xml")//b)}</wrap>"#).unwrap();
        assert_eq!(r1.as_xml(), "<wrap>2</wrap>");
        assert_eq!(s1.store().len(), shared.store().len() + 1);
        // …invisible to the sibling session and the shared corpus.
        assert_eq!(s2.store().len(), shared.store().len());
        let r2 = s2.run(r#"count(doc("d.xml")//b)"#).unwrap();
        assert_eq!(r2.as_strings(), ["2"]);
        // Reset drops the construction.
        s1.reset();
        assert_eq!(s1.store().len(), shared.store().len());
    }

    #[test]
    fn generation_changes_on_mutation() {
        let mut engine = Engine::new();
        engine.load_document("a", "<a/>").unwrap();
        let g0 = engine.generation();
        engine.load_document("b", "<b/>").unwrap();
        assert_ne!(g0, engine.generation());
        let other = Engine::new();
        // Stamps are process-unique, never reused across engines.
        assert_ne!(other.generation(), engine.generation());
    }
}
