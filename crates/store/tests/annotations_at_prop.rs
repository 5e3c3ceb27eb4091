//! `Layer::annotations_at` — the region → annotation lookup behind
//! retract validation, the overlay's hidden-pre set and compaction —
//! against the scan it replaced, kept here as the oracle: walk the
//! name's postings and ask the node view whether the element carries the
//! region.

use proptest::prelude::*;

use standoff_core::StandoffConfig;
use standoff_store::Layer;
use standoff_xml::parse_document;

/// Few names and a cramped coordinate space, so identical extents under
/// different names, zero-width regions and touching regions are the
/// common case rather than the lucky one.
const NAMES: [&str; 3] = ["a", "b", "c"];
const SPACE: i64 = 14;

fn oracle(layer: &Layer, name: &str, start: i64, end: i64) -> Vec<u32> {
    layer
        .doc()
        .elements_named(name)
        .iter()
        .copied()
        .filter(|&pre| {
            layer
                .index()
                .regions_of(pre)
                .iter()
                .any(|r| r.start == start && r.end == end)
        })
        .collect()
}

/// Every `(name, start, end)` over the coordinate space — including a
/// name the layer never uses and one it uses only for scaffolding.
fn assert_matches_oracle(layer: &Layer) -> Result<(), TestCaseError> {
    for name in NAMES.iter().copied().chain(["layer", "region", "nope"]) {
        for start in -1..=SPACE {
            for end in start..=SPACE + 1 {
                let got: Vec<u32> = layer.annotations_at(name, start, end).collect();
                prop_assert_eq!(
                    &got,
                    &oracle(layer, name, start, end),
                    "<{}> at {}..{}",
                    name,
                    start,
                    end
                );
                prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending ids");
            }
        }
    }
    Ok(())
}

/// One generated annotation: nesting depth wish, name, and its regions.
type Item = (usize, usize, Vec<(i64, i64)>);

/// Serialize items as a forest under `<layer>`: an item nests inside the
/// previous one when its depth wish allows, so annotated subtrees nest.
fn layer_xml(items: &[Item], render: impl Fn(&str, &[(i64, i64)]) -> (String, String)) -> String {
    let mut xml = String::from("<layer>");
    let mut open: Vec<&str> = Vec::new();
    for (depth, name, regions) in items {
        let depth = (*depth).min(open.len());
        while open.len() > depth {
            xml.push_str(&format!("</{}>", open.pop().unwrap()));
        }
        let name = NAMES[*name];
        let (head, body) = render(name, regions);
        xml.push_str(&head);
        xml.push_str(&body);
        open.push(name);
    }
    while let Some(name) = open.pop() {
        xml.push_str(&format!("</{name}>"));
    }
    xml.push_str("</layer>");
    xml
}

fn single_region_items() -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec((0usize..4, 0usize..3, 0..SPACE, 0i64..4), 0..40).prop_map(|raw| {
        raw.into_iter()
            .map(|(depth, name, start, len)| (depth, name, vec![(start, (start + len).min(SPACE))]))
            .collect()
    })
}

/// Areas of one to three regions, separated by gaps so they neither
/// overlap nor touch (`Area::try_new` would refuse them otherwise).
fn multi_region_items() -> impl Strategy<Value = Vec<Item>> {
    let area =
        (0i64..5, prop::collection::vec((0i64..3, 2i64..4), 1..4)).prop_map(|(first, parts)| {
            let mut at = first;
            let mut regions = Vec::new();
            for (len, gap) in parts {
                if at + len > SPACE {
                    break;
                }
                regions.push((at, at + len));
                at += len + gap;
            }
            regions
        });
    prop::collection::vec((0usize..3, 0usize..3, area), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Attribute representation: one region per annotation, arbitrary
    /// nesting, every key of the coordinate space.
    #[test]
    fn attribute_layers_match_the_scan(items in single_region_items()) {
        let xml = layer_xml(&items, |name, regions| {
            let (s, e) = regions[0];
            (format!(r#"<{name} start="{s}" end="{e}">"#), String::new())
        });
        let layer = Layer::build("l", parse_document(&xml).unwrap(), StandoffConfig::default())
            .unwrap();
        assert_matches_oracle(&layer)?;
    }

    /// Element representation (`region_name`): multi-region areas match
    /// on any one of their regions; region-less elements never match.
    #[test]
    fn element_repr_layers_match_the_scan(items in multi_region_items()) {
        let xml = layer_xml(&items, |name, regions| {
            let body = regions
                .iter()
                .map(|(s, e)| format!("<region><start>{s}</start><end>{e}</end></region>"))
                .collect();
            (format!("<{name}>"), body)
        });
        let layer = Layer::build("l", parse_document(&xml).unwrap(), StandoffConfig::element_repr())
            .unwrap();
        assert_matches_oracle(&layer)?;
    }
}
