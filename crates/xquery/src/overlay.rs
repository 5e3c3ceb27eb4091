//! The writer handle over a mounted corpus.
//!
//! [`WritableEngine`] pairs a checkpoint [`LayerSet`] with its pending
//! [`DeltaSet`] — the durable truth, what the sidecar and the WAL hold —
//! and the [`SharedEngine`] currently serving readers. Readers never
//! see the delta itself: they mount its compaction, the *view*, so an
//! overlaid corpus is an ordinary compacted layer set and answers every
//! query exactly as its compaction does, serialization and every axis
//! included. Mutation is copy-on-write at corpus granularity:
//!
//! * [`WritableEngine::apply`] validates a whole op batch against the
//!   checkpoint, folds it into the view (`standoff_store::fold`: each
//!   layer the batch touches is spliced once, the others are shared),
//!   mounts the new view behind a **fresh store generation**, journals
//!   the batch if a WAL is attached, and only then swaps the shared
//!   handle — either every op of the batch lands or none does, and
//!   nothing is persisted that does not mount;
//! * readers never block and never see a half-applied batch: a
//!   [`Session`] stamped out before the swap keeps its `Arc`'d corpus
//!   alive and consistent until dropped, while new sessions (and plan
//!   caches keyed by [`SharedEngine::generation`]) pick up the new view;
//! * [`WritableEngine::compact`] has nothing left to fold: the view
//!   becomes the checkpoint, the delta empties, and readers keep the
//!   corpus (and the generation) they had.
//!
//! What a write costs, per batch: O(batch · log layer) to resolve its
//! retract keys through the region index, one O(layer) copy of each
//! layer it touches (its columns moved run by run, its region index
//! renumbered, nothing re-validated in release builds), an O(pending)
//! clone of the delta, and one WAL fsync when a journal is attached.
//! The copy is what a write to a *large* layer pays: ~0.1 ms for an
//! 8 k-annotation layer, 2–4 ms for a 164 k-annotation token layer,
//! where merge-on-read paid O(pending) ≈ 0.2 ms.
//!
//! Every generation mounts into an engine that shares the first one's
//! metrics registry, so `shared().metrics()` accumulates across writes.
//!
//! With a [`DeltaWal`] attached ([`WritableEngine::set_wal`]), `apply`
//! journals the validated batch to the write-ahead log — fsync'd —
//! *before* the swap makes it visible, so a batch that `apply` reported
//! as committed survives SIGKILL: recovery
//! (`standoff_store::recover_delta`) replays the WAL on top of the
//! sidecar checkpoint. [`WritableEngine::truncate_wal`] resets the
//! journal once the pending delta has been made durable elsewhere (a
//! compacted snapshot; a sidecar checkpoint truncates by itself).

use standoff_core::fault;
use standoff_store::{compact, fold, ops_to_text, DeltaOp, DeltaSet, DeltaWal, LayerSet};

use crate::engine::{Engine, EngineOptions, Session, SharedEngine};
use crate::error::QueryError;

/// A mounted corpus that accepts annotation-layer mutations.
pub struct WritableEngine {
    /// The checkpoint every pending op validates against.
    set: LayerSet,
    delta: DeltaSet,
    /// `compact(set, delta)`: what `shared` serves.
    view: LayerSet,
    shared: SharedEngine,
    wal: Option<DeltaWal>,
}

impl WritableEngine {
    /// Mount `set` writable, with an empty delta, under `options`.
    pub fn mount(set: LayerSet, options: EngineOptions) -> Result<WritableEngine, QueryError> {
        WritableEngine::mount_with_delta(set, DeltaSet::new(), options)
    }

    /// Mount `set` with mutations already pending (e.g. a delta sidecar
    /// replayed from disk): readers get their compaction.
    pub fn mount_with_delta(
        set: LayerSet,
        delta: DeltaSet,
        options: EngineOptions,
    ) -> Result<WritableEngine, QueryError> {
        let view = compact(&set, &delta).map_err(store_err)?;
        let shared = remount(Engine::with_options(options), &view)?;
        Ok(WritableEngine {
            set,
            delta,
            view,
            shared,
            wal: None,
        })
    }

    /// Attach (or detach, with `None`) a delta write-ahead log. Returns
    /// the previously attached handle. Once attached, every successful
    /// [`WritableEngine::apply`] journals its batch durably before the
    /// swap; the caller is responsible for having replayed the WAL into
    /// the mounted delta first (`standoff_store::recover_delta_for_write`
    /// does both).
    pub fn set_wal(&mut self, wal: Option<DeltaWal>) -> Option<DeltaWal> {
        std::mem::replace(&mut self.wal, wal)
    }

    /// Reset the attached WAL to its empty (header-only) state. Call
    /// only after the pending delta has been made durable elsewhere —
    /// an atomic sidecar rewrite or a compacted snapshot — otherwise
    /// committed batches are lost on the next crash. A no-op without an
    /// attached WAL.
    pub fn truncate_wal(&mut self) -> Result<(), QueryError> {
        if let Some(wal) = self.wal.as_mut() {
            wal.truncate().map_err(store_err)?;
        }
        Ok(())
    }

    /// The shared read handle over the current corpus view. Clone it
    /// freely; it stays valid (and consistent) across later mutations.
    pub fn shared(&self) -> SharedEngine {
        self.shared.clone()
    }

    /// A fresh session over the current view.
    pub fn session(&self) -> Session {
        self.shared.session()
    }

    /// The current store-generation stamp; bumps on every successful
    /// [`WritableEngine::apply`].
    pub fn generation(&self) -> u64 {
        self.shared.generation()
    }

    /// The checkpoint layer set the pending delta applies to.
    pub fn layer_set(&self) -> &LayerSet {
        &self.set
    }

    /// The pending mutations; empty right after mount or compaction.
    pub fn delta(&self) -> &DeltaSet {
        &self.delta
    }

    /// Apply a batch of mutations atomically.
    ///
    /// The batch validates against a copy of the pending delta first;
    /// any rejected op (unknown layer, base-layer write, retract that
    /// matches nothing, ...) fails the whole call and leaves the mounted
    /// view — and the pending delta — untouched. On success the batch is
    /// folded into the view, which remounts under a fresh generation,
    /// and `apply` returns the number of ops recorded.
    ///
    /// The order is validate → build the next view → journal → swap.
    /// The view every later reader will mount is built *before* the
    /// batch is persisted, so a batch that cannot mount is never
    /// journaled. With a WAL attached, the batch is appended and
    /// fsync'd *before* the swap: if `apply` returns `Ok`, the batch
    /// survives a crash; if the process dies between journal and swap,
    /// recovery replays the batch and converges on the same state.
    pub fn apply(&mut self, ops: impl IntoIterator<Item = DeltaOp>) -> Result<usize, QueryError> {
        let batch: Vec<DeltaOp> = ops.into_iter().collect();
        let mut next = self.delta.clone();
        let n = next
            .apply_all(batch.iter().cloned(), &self.set)
            .map_err(store_err)?;
        if n == 0 {
            return Ok(0);
        }
        fault::point("engine.apply.build_view");
        let view = fold(&self.view, &self.delta, &batch).map_err(store_err)?;
        let shared = remount(self.shared.successor(), &view)?;
        if let Some(wal) = self.wal.as_mut() {
            wal.append(&ops_to_text(&batch)).map_err(store_err)?;
        }
        fault::point("engine.apply.before_swap");
        self.shared = shared;
        self.view = view;
        self.delta = next;
        Ok(n)
    }

    /// Make the view the checkpoint: the pending delta empties and the
    /// compacted set — typically handed to `standoff_store::save_snapshot`
    /// next — is returned. Readers already see exactly this set, so
    /// nothing is remounted and the generation stays.
    ///
    /// Compaction does **not** touch an attached WAL: truncate it with
    /// [`WritableEngine::truncate_wal`] once the compacted state has
    /// been written out durably.
    pub fn compact(&mut self) -> Result<LayerSet, QueryError> {
        self.set = self.view.clone();
        self.delta = DeltaSet::new();
        Ok(self.view.clone())
    }
}

fn store_err(e: standoff_store::StoreError) -> QueryError {
    QueryError::stat(e.to_string())
}

fn remount(mut engine: Engine, view: &LayerSet) -> Result<SharedEngine, QueryError> {
    engine.mount_store(view.clone())?;
    Ok(engine.into_shared())
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_core::StandoffConfig;
    use standoff_xml::parse_document;

    fn writable() -> WritableEngine {
        let base = parse_document(r#"<text>hello stand-off world</text>"#).unwrap();
        let mut set = LayerSet::build("mem://w", base, StandoffConfig::default()).unwrap();
        let tokens = parse_document(
            r#"<tokens>
                 <w start="0" end="4"/>
                 <w start="6" end="14"/>
                 <w start="16" end="20"/>
               </tokens>"#,
        )
        .unwrap();
        set.add_layer("tokens", tokens, StandoffConfig::default())
            .unwrap();
        WritableEngine::mount(set, EngineOptions::default()).unwrap()
    }

    fn count(engine: &WritableEngine, query: &str) -> usize {
        engine.session().run(query).unwrap().len()
    }

    const ALL_W: &str = r#"count(layer("mem://w", "tokens")//w)"#;

    #[test]
    fn apply_bumps_generation_and_changes_results() {
        let mut w = writable();
        let g0 = w.generation();
        assert_eq!(w.session().run(ALL_W).unwrap().as_xml(), "3");
        let n = w
            .apply([DeltaOp::Insert {
                layer: "tokens".into(),
                name: "w".into(),
                start: 5,
                end: 5,
                attrs: vec![],
            }])
            .unwrap();
        assert_eq!(n, 1);
        assert_ne!(w.generation(), g0);
        assert_eq!(w.session().run(ALL_W).unwrap().as_xml(), "4");
    }

    #[test]
    fn failed_batch_leaves_view_untouched() {
        let mut w = writable();
        let g0 = w.generation();
        let err = w.apply([
            DeltaOp::Insert {
                layer: "tokens".into(),
                name: "w".into(),
                start: 5,
                end: 5,
                attrs: vec![],
            },
            DeltaOp::Retract {
                layer: "tokens".into(),
                name: "w".into(),
                start: 99,
                end: 100,
            },
        ]);
        assert!(err.is_err());
        assert_eq!(w.generation(), g0, "failed batch must not swap the view");
        assert!(w.delta().is_empty());
        assert_eq!(w.session().run(ALL_W).unwrap().as_xml(), "3");
    }

    #[test]
    fn root_retract_is_refused_before_journal_and_swap() {
        let dir =
            std::env::temp_dir().join(format!("standoff-overlay-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal_file = dir.join("delta.ops.wal");

        let base = parse_document("<text>hello world!</text>").unwrap();
        let mut set = LayerSet::build("mem://w", base, StandoffConfig::default()).unwrap();
        let tokens =
            parse_document(r#"<tokens start="0" end="12"><w start="0" end="4"/></tokens>"#)
                .unwrap();
        set.add_layer("tokens", tokens, StandoffConfig::default())
            .unwrap();
        let mut w = WritableEngine::mount(set, EngineOptions::default()).unwrap();
        let (wal, _) = DeltaWal::open(&wal_file).unwrap();
        w.set_wal(Some(wal));
        let insert = DeltaOp::Insert {
            layer: "tokens".into(),
            name: "w".into(),
            start: 6,
            end: 11,
            attrs: vec![],
        };
        w.apply([insert.clone()]).unwrap();
        let generation = w.generation();
        let pending = w.delta().to_ops();
        let wal_len = std::fs::metadata(&wal_file).unwrap().len();

        let err = w
            .apply([
                insert,
                DeltaOp::Retract {
                    layer: "tokens".into(),
                    name: "tokens".into(),
                    start: 0,
                    end: 12,
                },
            ])
            .unwrap_err();
        assert!(err.to_string().contains("root element"), "{err}");
        assert_eq!(w.generation(), generation);
        assert_eq!(w.delta().to_ops(), pending);
        assert_eq!(std::fs::metadata(&wal_file).unwrap().len(), wal_len);
        // The layer still folds.
        let folded = w.compact().unwrap();
        assert_eq!(folded.layer("tokens").unwrap().annotation_count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_survive_every_generation() {
        let mut w = writable();
        let mut old = w.session();
        let metric = |w: &WritableEngine, name: &str| {
            let snapshot = w.shared().metrics().snapshot();
            snapshot.counters.get(name).copied().unwrap_or(0)
        };
        assert_eq!(metric(&w, "engine.mounts"), 1);
        assert_eq!(w.session().run(ALL_W).unwrap().as_xml(), "3");
        assert_eq!(metric(&w, "query.executions"), 1);

        w.apply([DeltaOp::Retract {
            layer: "tokens".into(),
            name: "w".into(),
            start: 0,
            end: 4,
        }])
        .unwrap();
        assert_eq!(metric(&w, "query.executions"), 1, "apply keeps the count");
        assert_eq!(metric(&w, "engine.mounts"), 2);
        assert_eq!(w.session().run(ALL_W).unwrap().as_xml(), "2");
        assert_eq!(metric(&w, "query.executions"), 2);

        w.compact().unwrap();
        assert_eq!(metric(&w, "query.executions"), 2, "compact keeps the count");
        assert_eq!(metric(&w, "engine.mounts"), 2, "one mount per generation");
        // A session stamped out before the swaps feeds the same registry.
        assert_eq!(old.run(ALL_W).unwrap().as_xml(), "3");
        assert_eq!(metric(&w, "query.executions"), 3);
    }

    #[test]
    fn old_sessions_survive_mutation() {
        let mut w = writable();
        let mut old = w.session();
        w.apply([DeltaOp::Retract {
            layer: "tokens".into(),
            name: "w".into(),
            start: 0,
            end: 4,
        }])
        .unwrap();
        // The pre-mutation session still sees the pre-mutation corpus.
        assert_eq!(old.run(ALL_W).unwrap().as_xml(), "3");
        assert_eq!(w.session().run(ALL_W).unwrap().as_xml(), "2");
    }

    #[test]
    fn compact_clears_delta_and_preserves_results() {
        let mut w = writable();
        w.apply([
            DeltaOp::Insert {
                layer: "tokens".into(),
                name: "ner".into(),
                start: 6,
                end: 14,
                attrs: vec![("class".into(), "MISC".into())],
            },
            DeltaOp::Retract {
                layer: "tokens".into(),
                name: "w".into(),
                start: 0,
                end: 4,
            },
        ])
        .unwrap();
        let before_w = count(&w, r#"layer("mem://w", "tokens")//w"#);
        let before_ner = count(&w, r#"layer("mem://w", "tokens")//ner"#);
        let g = w.generation();
        let folded = w.compact().unwrap();
        assert_eq!(w.generation(), g, "readers already had the compacted view");
        assert!(w.delta().is_empty());
        assert_eq!(folded.layer("tokens").unwrap().annotation_count(), 3);
        assert_eq!(count(&w, r#"layer("mem://w", "tokens")//w"#), before_w);
        assert_eq!(count(&w, r#"layer("mem://w", "tokens")//ner"#), before_ner);
        // Compacting again is a no-op.
        let again = w.compact().unwrap();
        assert_eq!(again.layer("tokens").unwrap().annotation_count(), 3);
    }

    #[test]
    fn wal_attached_apply_journals_before_swap_and_replays() {
        let dir = std::env::temp_dir().join(format!("standoff-overlay-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sidecar = dir.join("delta.ops");
        let wal_file = standoff_store::wal_path(&sidecar);

        let mut w = writable();
        let (wal, replayed) = DeltaWal::open(&wal_file).unwrap();
        assert!(replayed.is_empty());
        w.set_wal(Some(wal));
        w.apply([DeltaOp::Insert {
            layer: "tokens".into(),
            name: "w".into(),
            start: 5,
            end: 5,
            attrs: vec![],
        }])
        .unwrap();
        assert_eq!(w.session().run(ALL_W).unwrap().as_xml(), "4");

        // A fresh process (simulated: fresh mount) recovers the journal
        // and converges on the committed state.
        let (set, mut delta) = (w.layer_set().clone(), DeltaSet::new());
        drop(w);
        let (wal, report) =
            standoff_store::recover_delta_for_write(&sidecar, &set, &mut delta).unwrap();
        assert_eq!(report.replayed, 1);
        let mut w2 =
            WritableEngine::mount_with_delta(set, delta, EngineOptions::default()).unwrap();
        w2.set_wal(Some(wal));
        assert_eq!(w2.session().run(ALL_W).unwrap().as_xml(), "4");

        // Checkpoint elsewhere, then truncate: the journal is empty on
        // the next open.
        w2.truncate_wal().unwrap();
        let (_, replayed) = DeltaWal::open(&wal_file).unwrap();
        assert!(replayed.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
