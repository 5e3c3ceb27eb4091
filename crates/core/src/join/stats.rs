//! The StandOff join counter set, declared once.
//!
//! Every place that enumerates the counters — [`JoinStats::merge`], the
//! `join.*` names of the metrics registry, the per-operator profile JSON
//! and the `explain --analyze` suffix — walks [`JoinStats::COUNTERS`]
//! or [`JoinStats::counters`], so adding a counter is one row of the
//! `join_counters!` invocation below and nothing else.

/// One row of the counter declaration.
#[derive(Clone, Copy, Debug)]
pub struct JoinCounter {
    /// The field name; the registry key is `join.<name>` and the
    /// profile JSON key is `<name>`.
    pub name: &'static str,
    /// `explain --analyze` token, `{}` standing for the value.
    pub label: &'static str,
    /// Printed by `explain --analyze` even when zero (kernel-detail
    /// counters are shown only when they fired).
    pub always: bool,
}

macro_rules! join_counters {
    (@show always) => { true };
    (@show nonzero) => { false };
    ($($(#[$doc:meta])* $field:ident: $label:literal $show:ident,)*) => {
        /// Counters of the StandOff join executor's fast-path decisions.
        /// They exist so tests (and curious operators) can assert
        /// *mechanism*, not just timing: that a pushdown-guaranteed step
        /// really skipped its trailing self-axis pass, that a join result
        /// was emitted directly, merged or put in document order, and
        /// how an operator derived its candidates.
        ///
        /// # Where they accumulate
        ///
        /// One join's counts fold into two places: the engine's metrics
        /// registry under `join.<name>` (cumulative engine-wide, shared
        /// by every session; what `stats` prints), and — when profiling
        /// — the operator's entry of the query profile. To meter one
        /// query, take the delta of two registry snapshots around it.
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct JoinStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl JoinStats {
            /// The declaration, in field (and display) order.
            pub const COUNTERS: &'static [JoinCounter] = &[
                $(JoinCounter {
                    name: stringify!($field),
                    label: $label,
                    always: join_counters!(@show $show),
                },)*
            ];

            /// Every declared counter with its current value.
            pub fn counters(&self) -> impl Iterator<Item = (&'static JoinCounter, u64)> {
                Self::COUNTERS.iter().zip([$(self.$field,)*])
            }

            /// Fold another counter set into this one.
            pub fn merge(&mut self, other: JoinStats) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

join_counters! {
    /// Explicit candidate sequences intersected with their reach through
    /// the node view (gather), one per derivation.
    candidate_node_view: "node-view={}" always,
    /// Candidate derivations that read their reach of a pushed name's
    /// posting ([`RegionIndex::posting`](crate::RegionIndex::posting)).
    candidate_posting: "posting={}" always,
    /// Join results that [`post`](crate::join::post) put in document
    /// order — by its bitset pass or by a comparison sort — because the
    /// target layer's start order is not its document order (nested
    /// annotations, or one iteration's rows spread across others').
    result_sorts: "sorts={}" always,
    /// Join results emitted as they left the kernel: no target layer's
    /// rows were reordered and at most one layer answered.
    result_sorts_elided: "(elided {})" always,
    /// Join results that were a k-way merge of several target layers'
    /// sorted outputs.
    result_merges: "merges={}" nonzero,
    /// Trailing `self::test` passes executed.
    post_filters: "post={}" always,
    /// Trailing `self::test` passes skipped (plan-guaranteed tests).
    post_filters_elided: "(elided {})" always,
    /// Always zero: the bitset scan kernel it counted is gone, since a
    /// pushed name reads its posting. The key stays because the
    /// benchmark ledger reads it.
    candidate_repr_dense: "repr dense={}" nonzero,
    /// 64-entry blocks the merge join emitted branch-free (its
    /// single-active emission runs).
    candidate_dense_blocks: "blocks={}" nonzero,
    /// Candidate derivations that borrowed their reach of the index:
    /// no restriction, or candidates that are every annotated node.
    candidate_borrowed: "borrowed={}" nonzero,
    /// Entries inside the reaches of all candidate derivations, summed:
    /// of the posting where a name is pushed, of the index otherwise.
    /// `{E}` in the label stands for the entries of the target layers
    /// the operator joined (the analyze detail's `reach=R of E`).
    candidate_reach_entries: "reach={} of {E}" nonzero,
    /// Context annotation × inner node pairs the nested-loop strategies
    /// compared (Figures 2 and 3): their work, as the reach entries are
    /// the merge joins'.
    naive_pairs: "pairs={}" nonzero,
    /// Target layers a `count`, `exists` or `empty` was answered for
    /// from the index, without producing the join's rows.
    counts_from_index: "from-index={}" nonzero,
}

impl JoinStats {
    /// Return the current counts and zero them — the "delta since last
    /// take" primitive profiling runs use so they never inherit stale
    /// counts.
    pub fn take_delta(&mut self) -> JoinStats {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_walk_the_declaration_in_order() {
        let stats = JoinStats {
            candidate_node_view: 1,
            candidate_dense_blocks: 8,
            ..JoinStats::default()
        };
        let pairs: Vec<(&str, u64)> = stats.counters().map(|(c, v)| (c.name, v)).collect();
        assert_eq!(pairs.len(), 13);
        assert_eq!(pairs[0], ("candidate_node_view", 1));
        assert_eq!(pairs[1], ("candidate_posting", 0));
        assert_eq!(pairs[8], ("candidate_dense_blocks", 8));
        assert_eq!(pairs[10], ("candidate_reach_entries", 0));
        assert_eq!(pairs[11], ("naive_pairs", 0));
        assert_eq!(pairs[12], ("counts_from_index", 0));
        let mut sum = stats;
        sum.merge(stats);
        assert_eq!(sum.candidate_dense_blocks, 16);
        assert_eq!(sum.take_delta().candidate_node_view, 2);
        assert_eq!(sum, JoinStats::default());
    }
}
