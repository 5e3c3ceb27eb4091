//! The configurable StandOff representation (paper §2).
//!
//! Applications choose how regions attach to annotation elements:
//!
//! * **attribute representation** (default) — compact, one region:
//!   `<foo start="1" end="10"/>`;
//! * **element representation** — supports non-contiguous areas:
//!   `<foo><region><start>1</start><end>2</end></region>…</foo>`.
//!
//! The names `start`, `end` and `region`, and the position type, are
//! run-time settings configured in the query preamble:
//!
//! ```xquery
//! declare option standoff-type   "xs:integer"
//! declare option standoff-start  "from"
//! declare option standoff-end    "to"
//! declare option standoff-region "span"   (: switches to element repr :)
//! ```

use standoff_xml::{Document, NodeKind};

use crate::error::StandoffError;
use crate::region::{Area, Region};

/// Which syntactic representation carries the regions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionRepr {
    /// `start`/`end` attributes on the annotation element (single region).
    Attributes,
    /// `<region>` child elements (one or more regions per annotation).
    Elements,
}

/// The `declare option standoff-*` settings of a query.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StandoffConfig {
    /// `standoff-type`: position datatype. Only integer types are
    /// machine-representable in this implementation (the paper's
    /// implementation makes the same choice: 64-bit integers cover file
    /// offsets, word positions and time codes).
    pub position_type: String,
    /// `standoff-start`: attribute name (attribute repr) or element name
    /// (element repr) of the region start.
    pub start_name: String,
    /// `standoff-end`: likewise for the region end.
    pub end_name: String,
    /// `standoff-region`: if set, the element representation is used and
    /// this is the region element's name.
    pub region_name: Option<String>,
    /// Skip malformed annotations instead of failing the whole index
    /// build. Off by default: annotation databases are machine-generated,
    /// and silent data loss is worse than a load error.
    pub lenient: bool,
}

impl Default for StandoffConfig {
    /// The paper's defaults: `xs:integer`, `start`, `end`, attribute
    /// representation.
    fn default() -> Self {
        StandoffConfig {
            position_type: "xs:integer".to_string(),
            start_name: "start".to_string(),
            end_name: "end".to_string(),
            region_name: None,
            lenient: false,
        }
    }
}

impl StandoffConfig {
    /// Element representation with the default names
    /// (`region`/`start`/`end`).
    pub fn element_repr() -> Self {
        StandoffConfig {
            region_name: Some("region".to_string()),
            ..Default::default()
        }
    }

    /// Which representation is active.
    pub fn repr(&self) -> RegionRepr {
        if self.region_name.is_some() {
            RegionRepr::Elements
        } else {
            RegionRepr::Attributes
        }
    }

    /// Validate the configured position type.
    pub fn validate(&self) -> Result<(), StandoffError> {
        match self.position_type.as_str() {
            "xs:integer" | "xs:int" | "xs:long" | "integer" => Ok(()),
            other => Err(StandoffError::UnsupportedType(other.to_string())),
        }
    }

    /// Extract the area of the element at `pre`, if it is an
    /// area-annotation under this configuration. `Ok(None)` means "not an
    /// area-annotation" (no region markup at all); malformed region markup
    /// is an error unless `lenient`.
    pub fn area_of(&self, doc: &Document, pre: u32) -> Result<Option<Area>, StandoffError> {
        if doc.kind(pre) != NodeKind::Element {
            return Ok(None);
        }
        let result = match self.repr() {
            RegionRepr::Attributes => self.area_from_attributes(doc, pre),
            RegionRepr::Elements => self.area_from_elements(doc, pre),
        };
        match result {
            Err(e) if self.lenient && !matches!(e, StandoffError::Corrupt(_)) => Ok(None),
            other => other,
        }
    }

    fn area_from_attributes(
        &self,
        doc: &Document,
        pre: u32,
    ) -> Result<Option<Area>, StandoffError> {
        let start = doc.attribute(pre, &self.start_name)?;
        let end = doc.attribute(pre, &self.end_name)?;
        match (start, end) {
            (None, None) => Ok(None),
            (Some(s), Some(e)) => {
                let context =
                    || format!("<{}> at pre {pre}", doc.names().lexical(doc.name_id(pre)));
                let start = parse_position(&s, &context)?;
                let end = parse_position(&e, &context)?;
                Ok(Some(Area::single(start, end)?))
            }
            _ => Err(StandoffError::IncompleteRegion {
                context: format!(
                    "element at pre {pre} has only one of @{}/@{}",
                    self.start_name, self.end_name
                ),
            }),
        }
    }

    fn area_from_elements(&self, doc: &Document, pre: u32) -> Result<Option<Area>, StandoffError> {
        let region_name = self.region_name.as_deref().expect("element repr");
        let mut regions = Vec::new();
        let tree = doc.tree()?;
        for child in tree.children(pre) {
            if doc.kind(child) != NodeKind::Element {
                continue;
            }
            if doc.names().lexical(doc.name_id(child)) != region_name {
                continue;
            }
            let mut start = None;
            let mut end = None;
            for grand in tree.children(child) {
                if doc.kind(grand) != NodeKind::Element {
                    continue;
                }
                let name = doc.names().lexical(doc.name_id(grand));
                let text = tree.string_value(grand);
                let context = || format!("<{region_name}> at pre {child}");
                if name == self.start_name {
                    start = Some(parse_position(text.trim(), &context)?);
                } else if name == self.end_name {
                    end = Some(parse_position(text.trim(), &context)?);
                }
            }
            match (start, end) {
                (Some(s), Some(e)) => regions.push(Region::new(s, e)?),
                _ => {
                    return Err(StandoffError::IncompleteRegion {
                        context: format!("<{region_name}> at pre {child}"),
                    })
                }
            }
        }
        if regions.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Area::try_new(regions)?))
        }
    }
}

fn parse_position(s: &str, context: &dyn Fn() -> String) -> Result<i64, StandoffError> {
    s.trim().parse().map_err(|_| StandoffError::BadPosition {
        value: s.to_string(),
        context: context(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_xml::parse_document;

    #[test]
    fn attribute_representation_default_names() {
        let doc = parse_document(r#"<a><foo start="1" end="10">bar</foo><plain/></a>"#).unwrap();
        let cfg = StandoffConfig::default();
        let foo = doc.elements_named("foo")[0];
        let area = cfg.area_of(&doc, foo).unwrap().unwrap();
        assert_eq!(area.regions(), &[Region::new(1, 10).unwrap()]);
        let plain = doc.elements_named("plain")[0];
        assert_eq!(cfg.area_of(&doc, plain).unwrap(), None);
    }

    #[test]
    fn custom_attribute_names() {
        let doc = parse_document(r#"<a><foo from="5" to="7"/></a>"#).unwrap();
        let cfg = StandoffConfig {
            start_name: "from".into(),
            end_name: "to".into(),
            ..Default::default()
        };
        let area = cfg.area_of(&doc, 2).unwrap().unwrap();
        assert_eq!(area.bounding(), Region::new(5, 7).unwrap());
        // Default names find nothing in this document.
        assert_eq!(StandoffConfig::default().area_of(&doc, 2).unwrap(), None);
    }

    #[test]
    fn element_representation_paper_example() {
        // The exact markup from §2 of the paper.
        let doc =
            parse_document("<foo><region>\n<start>1</start>\n<end>2</end>\n</region>\nbar\n</foo>")
                .unwrap();
        let cfg = StandoffConfig::element_repr();
        let area = cfg.area_of(&doc, 1).unwrap().unwrap();
        assert_eq!(area.regions(), &[Region::new(1, 2).unwrap()]);
    }

    #[test]
    fn element_representation_non_contiguous() {
        let doc = parse_document(
            "<file>\
               <region><start>0</start><end>511</end></region>\
               <region><start>2048</start><end>4095</end></region>\
             </file>",
        )
        .unwrap();
        let cfg = StandoffConfig::element_repr();
        let area = cfg.area_of(&doc, 1).unwrap().unwrap();
        assert_eq!(area.region_count(), 2);
        assert!(!area.is_contiguous());
    }

    #[test]
    fn incomplete_attribute_region_errors() {
        let doc = parse_document(r#"<a><foo start="1"/></a>"#).unwrap();
        let cfg = StandoffConfig::default();
        assert!(matches!(
            cfg.area_of(&doc, 2),
            Err(StandoffError::IncompleteRegion { .. })
        ));
    }

    #[test]
    fn lenient_mode_skips_malformed() {
        let doc = parse_document(r#"<a><foo start="1"/><bar start="x" end="y"/></a>"#).unwrap();
        let cfg = StandoffConfig {
            lenient: true,
            ..Default::default()
        };
        assert_eq!(cfg.area_of(&doc, 2).unwrap(), None);
        assert_eq!(cfg.area_of(&doc, 3).unwrap(), None);
    }

    #[test]
    fn non_numeric_position_errors() {
        let doc = parse_document(r#"<a><foo start="one" end="10"/></a>"#).unwrap();
        assert!(matches!(
            StandoffConfig::default().area_of(&doc, 2),
            Err(StandoffError::BadPosition { .. })
        ));
    }

    #[test]
    fn region_repr_switch() {
        assert_eq!(StandoffConfig::default().repr(), RegionRepr::Attributes);
        assert_eq!(StandoffConfig::element_repr().repr(), RegionRepr::Elements);
    }

    #[test]
    fn type_validation() {
        assert!(StandoffConfig::default().validate().is_ok());
        let cfg = StandoffConfig {
            position_type: "xs:dateTime".into(),
            ..Default::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(StandoffError::UnsupportedType(_))
        ));
    }

    #[test]
    fn negative_positions_are_valid() {
        let doc = parse_document(r#"<a><foo start="-100" end="-1"/></a>"#).unwrap();
        let area = StandoffConfig::default().area_of(&doc, 2).unwrap().unwrap();
        assert_eq!(area.bounding(), Region::new(-100, -1).unwrap());
    }
}
