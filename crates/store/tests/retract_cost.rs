//! Cost of resolving retract keys, counted — never timed.
//!
//! `store.delta.retract_probes` counts the region-index entries
//! `Layer::annotations_at` examines. Resolving R pending retract keys
//! against an N-annotation layer must stay within
//! `c · (R · ⌈log₂ N⌉ + matches)` probes in each of the places that
//! resolve them — `DeltaSet::apply`, `compact`, and `fold` of the same
//! keys as one batch over a view — where the postings scan this
//! replaced examined R · N.
//!
//! The counter is process-global and additive, so this file holds this
//! one test and nothing else.

use standoff_core::{MetricsRegistry, StandoffConfig};
use standoff_store::{compact, fold, DeltaOp, DeltaSet, LayerSet};
use standoff_xml::parse_document;

const N: usize = 50_000;
const R: usize = 4_096;

fn probes() -> u64 {
    let snapshot = MetricsRegistry::global().snapshot();
    snapshot
        .counters
        .get("store.delta.retract_probes")
        .copied()
        .unwrap_or(0)
}

#[test]
fn retract_resolution_probes_stay_logarithmic_in_the_layer() {
    // N annotations: N/2 extents, each carried by a <w> and an <e>, so
    // every lookup also examines (and rejects) a same-extent neighbour.
    let mut xml = String::from("<tokens>");
    for i in 0..N / 2 {
        let (s, e) = (10 * i, 10 * i + 6);
        xml.push_str(&format!(
            r#"<w start="{s}" end="{e}"/><e start="{s}" end="{e}"/>"#
        ));
    }
    xml.push_str("</tokens>");
    let base = parse_document("<text/>").unwrap();
    let mut set = LayerSet::build("mem://cost", base, StandoffConfig::default()).unwrap();
    set.add_layer(
        "tokens",
        parse_document(&xml).unwrap(),
        StandoffConfig::default(),
    )
    .unwrap();
    let layer = set.layer("tokens").unwrap();
    assert_eq!(layer.annotation_count(), N);

    // Retract every sixth <w>, spread over the whole column.
    let ops: Vec<DeltaOp> = (0..R)
        .map(|k| {
            let i = 6 * k as i64;
            DeltaOp::Retract {
                layer: "tokens".into(),
                name: "w".into(),
                start: 10 * i,
                end: 10 * i + 6,
            }
        })
        .collect();

    let log_n = N.next_power_of_two().ilog2() as u64; // ⌈log₂ N⌉
    let matches = 2 * R as u64; // the <w> and its <e> twin, per key
    let bound = 3 * (R as u64 * log_n + matches);
    let scan = (R * N / 2) as u64; // what walking the <w> postings cost

    let before = probes();
    let mut delta = DeltaSet::new();
    assert_eq!(delta.apply_all(ops.iter().cloned(), &set).unwrap(), R);
    let applied = probes() - before;

    let before = probes();
    let view = fold(&set, &DeltaSet::new(), &ops).unwrap();
    let batch = probes() - before;

    let before = probes();
    let folded = compact(&set, &delta).unwrap();
    let folding = probes() - before;
    let tokens = folded.layer("tokens").unwrap();
    assert_eq!(tokens.doc().elements_named("w").len(), N / 2 - R);
    assert_eq!(tokens.doc().elements_named("e").len(), N / 2);
    assert_eq!(
        view.layer("tokens").unwrap().annotation_count(),
        tokens.annotation_count()
    );

    for (phase, spent) in [("apply", applied), ("fold", batch), ("compact", folding)] {
        assert!(
            spent >= matches,
            "{phase}: counter not wired ({spent} probes)"
        );
        assert!(
            spent <= bound,
            "{phase}: {spent} probes for {R} keys over {N} annotations exceeds {bound}"
        );
        assert!(
            spent * 100 < scan,
            "{phase}: {spent} is scan-sized ({scan})"
        );
    }
}
