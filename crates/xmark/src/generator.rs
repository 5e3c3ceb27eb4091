//! XMark auction-site document generator.
//!
//! Reimplements the structure of `xmlgen` (Schmidt et al., "XMark: A
//! Benchmark for XML Data Management", VLDB 2002): an auction site with
//! regions/items, categories, a category graph, people, open auctions
//! (with bidder histories) and closed auctions. Entity counts scale
//! linearly with the scale factor exactly as in `xmlgen` (factor 1.0 ≈
//! 100 MB ≈ 21 750 items, 25 500 people, 12 000 open auctions); text is
//! drawn from a fixed word list with `xmlgen`-like sentence shapes.
//! Generation is fully deterministic given the seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use standoff_xml::{Document, DocumentBuilder, SerializeOptions};

use crate::words::WORDS;

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct XmarkConfig {
    /// XMark scale factor; 1.0 ≈ 100 MB of XML text.
    pub scale: f64,
    /// RNG seed (the default is the generator's canonical seed).
    pub seed: u64,
}

impl Default for XmarkConfig {
    fn default() -> Self {
        XmarkConfig {
            scale: 0.001,
            seed: 20060630, // the workshop date
        }
    }
}

impl XmarkConfig {
    pub fn with_scale(scale: f64) -> Self {
        XmarkConfig {
            scale,
            ..Default::default()
        }
    }

    // Entity counts from xmlgen's tables, linear in the scale factor.
    pub fn n_items(&self) -> usize {
        ((21750.0 * self.scale) as usize).max(6)
    }
    pub fn n_people(&self) -> usize {
        ((25500.0 * self.scale) as usize).max(4)
    }
    pub fn n_open_auctions(&self) -> usize {
        ((12000.0 * self.scale) as usize).max(3)
    }
    pub fn n_closed_auctions(&self) -> usize {
        ((9750.0 * self.scale) as usize).max(2)
    }
    pub fn n_categories(&self) -> usize {
        ((1000.0 * self.scale) as usize).max(2)
    }
}

/// The six continental regions and their item shares (following
/// `xmlgen`'s distribution).
const REGIONS: &[(&str, f64)] = &[
    ("africa", 0.05),
    ("asia", 0.10),
    ("australia", 0.10),
    ("europe", 0.30),
    ("namerica", 0.35),
    ("samerica", 0.10),
];

/// Generate an XMark document.
pub fn generate(config: &XmarkConfig) -> Document {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut g = Gen {
        rng: &mut rng,
        b: DocumentBuilder::with_capacity((config.n_items() + config.n_people()) * 24),
        config: *config,
    };
    g.site();
    g.b.finish().expect("generator produces balanced documents")
}

/// Size of a document's serialized XML text in bytes (the unit of the
/// paper's Figure 6 x-axis), for a document built in memory.
pub fn serialized_size(doc: &Document) -> usize {
    standoff_xml::serialize_document(doc, SerializeOptions::default()).len()
}

struct Gen<'r> {
    rng: &'r mut SmallRng,
    b: DocumentBuilder,
    config: XmarkConfig,
}

impl Gen<'_> {
    fn site(&mut self) {
        self.b.start_element("site");
        self.regions();
        self.categories();
        self.catgraph();
        self.people();
        self.open_auctions();
        self.closed_auctions();
        self.b.end_element();
    }

    // ----- text helpers -----

    fn word(&mut self) -> &'static str {
        WORDS[self.rng.gen_range(0..WORDS.len())]
    }

    fn sentence(&mut self, min_words: usize, max_words: usize) -> String {
        let n = self.rng.gen_range(min_words..=max_words);
        let mut s = String::with_capacity(n * 8);
        for k in 0..n {
            if k > 0 {
                s.push(' ');
            }
            s.push_str(self.word());
        }
        s
    }

    fn text_elem(&mut self, name: &str, min_words: usize, max_words: usize) {
        self.b.start_element(name);
        let s = self.sentence(min_words, max_words);
        self.b.text(&s);
        self.b.end_element();
    }

    /// `<text>` with occasional inline keyword/bold/emph markup, like
    /// xmlgen's mixed-content paragraphs.
    fn rich_text(&mut self) {
        self.b.start_element("text");
        let chunks = self.rng.gen_range(1..=3);
        for _ in 0..chunks {
            let s = self.sentence(4, 18);
            self.b.text(&s);
            self.b.text(" ");
            if self.rng.gen_bool(0.3) {
                let inline = ["keyword", "bold", "emph"][self.rng.gen_range(0..3)];
                self.b.start_element(inline);
                let s = self.sentence(1, 3);
                self.b.text(&s);
                self.b.end_element();
                self.b.text(" ");
            }
        }
        self.b.end_element();
    }

    /// `<description>`: either a plain `<text>` or a `<parlist>` of
    /// `<listitem>`s.
    fn description(&mut self) {
        self.b.start_element("description");
        if self.rng.gen_bool(0.7) {
            self.rich_text();
        } else {
            self.b.start_element("parlist");
            let n = self.rng.gen_range(2..=4);
            for _ in 0..n {
                self.b.start_element("listitem");
                self.rich_text();
                self.b.end_element();
            }
            self.b.end_element();
        }
        self.b.end_element();
    }

    fn date(&mut self) -> String {
        format!(
            "{:02}/{:02}/{}",
            self.rng.gen_range(1..=12),
            self.rng.gen_range(1..=28),
            self.rng.gen_range(1998..=2001)
        )
    }

    // ----- sections -----

    fn regions(&mut self) {
        let total = self.config.n_items();
        self.b.start_element("regions");
        let mut item_id = 0usize;
        for (k, (region, share)) in REGIONS.iter().enumerate() {
            self.b.start_element(region);
            let count = if k + 1 == REGIONS.len() {
                total - item_id // remainder keeps the exact total
            } else {
                ((total as f64) * share) as usize
            };
            for _ in 0..count {
                self.item(item_id);
                item_id += 1;
            }
            self.b.end_element();
        }
        self.b.end_element();
    }

    fn item(&mut self, id: usize) {
        self.b.start_element("item");
        self.b.attribute("id", &format!("item{id}"));
        self.text_elem("location", 1, 3);
        let q = self.rng.gen_range(1..=10).to_string();
        self.b.start_element("quantity");
        self.b.text(&q);
        self.b.end_element();
        self.text_elem("name", 1, 4);
        self.text_elem("payment", 2, 6);
        self.description();
        self.text_elem("shipping", 2, 6);
        let n_cats = self.rng.gen_range(1..=3);
        for _ in 0..n_cats {
            let cat = self.rng.gen_range(0..self.config.n_categories());
            self.b
                .empty_element("incategory", &[("category", &format!("category{cat}"))]);
        }
        if self.rng.gen_bool(0.8) {
            self.b.start_element("mailbox");
            let n_mails = self.rng.gen_range(0..=3);
            for _ in 0..n_mails {
                self.b.start_element("mail");
                self.text_elem("from", 2, 3);
                self.text_elem("to", 2, 3);
                let d = self.date();
                self.b.start_element("date");
                self.b.text(&d);
                self.b.end_element();
                self.rich_text();
                self.b.end_element();
            }
            self.b.end_element();
        }
        self.b.end_element();
    }

    fn categories(&mut self) {
        self.b.start_element("categories");
        for id in 0..self.config.n_categories() {
            self.b.start_element("category");
            self.b.attribute("id", &format!("category{id}"));
            self.text_elem("name", 1, 3);
            self.description();
            self.b.end_element();
        }
        self.b.end_element();
    }

    fn catgraph(&mut self) {
        let n = self.config.n_categories();
        self.b.start_element("catgraph");
        for _ in 0..n {
            let from = self.rng.gen_range(0..n);
            let to = self.rng.gen_range(0..n);
            self.b.empty_element(
                "edge",
                &[
                    ("from", &format!("category{from}")),
                    ("to", &format!("category{to}")),
                ],
            );
        }
        self.b.end_element();
    }

    fn people(&mut self) {
        self.b.start_element("people");
        for id in 0..self.config.n_people() {
            self.person(id);
        }
        self.b.end_element();
    }

    fn person(&mut self, id: usize) {
        self.b.start_element("person");
        self.b.attribute("id", &format!("person{id}"));
        self.text_elem("name", 2, 2);
        self.b.start_element("emailaddress");
        let addr = format!("mailto:{}@{}.com", self.word(), self.word());
        self.b.text(&addr);
        self.b.end_element();
        if self.rng.gen_bool(0.5) {
            let phone = format!(
                "+{} ({}) {}",
                self.rng.gen_range(1..=99),
                self.rng.gen_range(100..=999),
                self.rng.gen_range(1_000_000..=9_999_999)
            );
            self.b.start_element("phone");
            self.b.text(&phone);
            self.b.end_element();
        }
        if self.rng.gen_bool(0.4) {
            self.b.start_element("address");
            self.text_elem("street", 2, 3);
            self.text_elem("city", 1, 1);
            self.text_elem("country", 1, 1);
            let zip = self.rng.gen_range(10000..99999).to_string();
            self.b.start_element("zipcode");
            self.b.text(&zip);
            self.b.end_element();
            self.b.end_element();
        }
        if self.rng.gen_bool(0.3) {
            let page = format!("http://www.{}.com/~{}", self.word(), self.word());
            self.b.start_element("homepage");
            self.b.text(&page);
            self.b.end_element();
        }
        if self.rng.gen_bool(0.5) {
            let card = format!(
                "{} {} {} {}",
                self.rng.gen_range(1000..9999),
                self.rng.gen_range(1000..9999),
                self.rng.gen_range(1000..9999),
                self.rng.gen_range(1000..9999)
            );
            self.b.start_element("creditcard");
            self.b.text(&card);
            self.b.end_element();
        }
        if self.rng.gen_bool(0.7) {
            self.b.start_element("profile");
            let income = format!("{:.2}", self.rng.gen_range(9876.0..99999.0));
            self.b.attribute("income", &income);
            let n_interests = self.rng.gen_range(0..=4);
            for _ in 0..n_interests {
                let cat = self.rng.gen_range(0..self.config.n_categories());
                self.b
                    .empty_element("interest", &[("category", &format!("category{cat}"))]);
            }
            if self.rng.gen_bool(0.5) {
                self.text_elem("education", 1, 2);
            }
            if self.rng.gen_bool(0.5) {
                let g = if self.rng.gen_bool(0.5) {
                    "male"
                } else {
                    "female"
                };
                self.b.start_element("gender");
                self.b.text(g);
                self.b.end_element();
            }
            self.b.start_element("business");
            self.b
                .text(if self.rng.gen_bool(0.5) { "Yes" } else { "No" });
            self.b.end_element();
            if self.rng.gen_bool(0.6) {
                let age = self.rng.gen_range(18..=80).to_string();
                self.b.start_element("age");
                self.b.text(&age);
                self.b.end_element();
            }
            self.b.end_element();
        }
        if self.rng.gen_bool(0.4) {
            self.b.start_element("watches");
            let n = self.rng.gen_range(1..=4);
            for _ in 0..n {
                let a = self.rng.gen_range(0..self.config.n_open_auctions());
                self.b
                    .empty_element("watch", &[("open_auction", &format!("open_auction{a}"))]);
            }
            self.b.end_element();
        }
        self.b.end_element();
    }

    fn open_auctions(&mut self) {
        self.b.start_element("open_auctions");
        for id in 0..self.config.n_open_auctions() {
            self.open_auction(id);
        }
        self.b.end_element();
    }

    fn open_auction(&mut self, id: usize) {
        self.b.start_element("open_auction");
        self.b.attribute("id", &format!("open_auction{id}"));
        let initial = self.rng.gen_range(1.0..100.0);
        let t = format!("{initial:.2}");
        self.b.start_element("initial");
        self.b.text(&t);
        self.b.end_element();
        if self.rng.gen_bool(0.4) {
            let r = format!("{:.2}", initial * self.rng.gen_range(1.1..3.0));
            self.b.start_element("reserve");
            self.b.text(&r);
            self.b.end_element();
        }
        // Bidder history: xmlgen's skewed distribution — many auctions
        // with few bids, some with many. Q2 selects bidder[1].
        let n_bidders = match self.rng.gen_range(0..10) {
            0..=3 => self.rng.gen_range(0..=1),
            4..=7 => self.rng.gen_range(1..=5),
            _ => self.rng.gen_range(5..=12),
        };
        let mut current = initial;
        for _ in 0..n_bidders {
            self.b.start_element("bidder");
            let d = self.date();
            self.b.start_element("date");
            self.b.text(&d);
            self.b.end_element();
            let time = format!(
                "{:02}:{:02}:{:02}",
                self.rng.gen_range(0..24),
                self.rng.gen_range(0..60),
                self.rng.gen_range(0..60)
            );
            self.b.start_element("time");
            self.b.text(&time);
            self.b.end_element();
            let p = self.rng.gen_range(0..self.config.n_people());
            self.b
                .empty_element("personref", &[("person", &format!("person{p}"))]);
            let inc = self.rng.gen_range(1.5..30.0);
            current += inc;
            let inc_s = format!("{inc:.2}");
            self.b.start_element("increase");
            self.b.text(&inc_s);
            self.b.end_element();
            self.b.end_element();
        }
        let cur = format!("{current:.2}");
        self.b.start_element("current");
        self.b.text(&cur);
        self.b.end_element();
        if self.rng.gen_bool(0.2) {
            self.b.start_element("privacy");
            self.b.text("Yes");
            self.b.end_element();
        }
        let item = self.rng.gen_range(0..self.config.n_items());
        self.b
            .empty_element("itemref", &[("item", &format!("item{item}"))]);
        let seller = self.rng.gen_range(0..self.config.n_people());
        self.b
            .empty_element("seller", &[("person", &format!("person{seller}"))]);
        self.annotation();
        let q = self.rng.gen_range(1..=10).to_string();
        self.b.start_element("quantity");
        self.b.text(&q);
        self.b.end_element();
        self.b.start_element("type");
        self.b.text(if self.rng.gen_bool(0.7) {
            "Regular"
        } else {
            "Featured"
        });
        self.b.end_element();
        self.b.start_element("interval");
        let d1 = self.date();
        self.b.start_element("start");
        self.b.text(&d1);
        self.b.end_element();
        let d2 = self.date();
        self.b.start_element("end");
        self.b.text(&d2);
        self.b.end_element();
        self.b.end_element();
        self.b.end_element();
    }

    fn annotation(&mut self) {
        self.b.start_element("annotation");
        self.text_elem("author", 2, 2);
        self.description();
        self.b.start_element("happiness");
        let h = self.rng.gen_range(1..=10).to_string();
        self.b.text(&h);
        self.b.end_element();
        self.b.end_element();
    }

    fn closed_auctions(&mut self) {
        self.b.start_element("closed_auctions");
        for _ in 0..self.config.n_closed_auctions() {
            self.b.start_element("closed_auction");
            let seller = self.rng.gen_range(0..self.config.n_people());
            self.b
                .empty_element("seller", &[("person", &format!("person{seller}"))]);
            let buyer = self.rng.gen_range(0..self.config.n_people());
            self.b
                .empty_element("buyer", &[("person", &format!("person{buyer}"))]);
            let item = self.rng.gen_range(0..self.config.n_items());
            self.b
                .empty_element("itemref", &[("item", &format!("item{item}"))]);
            let price = format!("{:.2}", self.rng.gen_range(5.0..500.0));
            self.b.start_element("price");
            self.b.text(&price);
            self.b.end_element();
            let d = self.date();
            self.b.start_element("date");
            self.b.text(&d);
            self.b.end_element();
            let q = self.rng.gen_range(1..=10).to_string();
            self.b.start_element("quantity");
            self.b.text(&q);
            self.b.end_element();
            self.b.start_element("type");
            self.b.text("Regular");
            self.b.end_element();
            self.annotation();
            self.b.end_element();
        }
        self.b.end_element();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_xml::NodeId;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&XmarkConfig::with_scale(0.001));
        let b = generate(&XmarkConfig::with_scale(0.001));
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(
            standoff_xml::serialize_document(&a, Default::default()),
            standoff_xml::serialize_document(&b, Default::default())
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&XmarkConfig {
            scale: 0.001,
            seed: 1,
        });
        let b = generate(&XmarkConfig {
            scale: 0.001,
            seed: 2,
        });
        assert_ne!(
            standoff_xml::serialize_document(&a, Default::default()),
            standoff_xml::serialize_document(&b, Default::default())
        );
    }

    #[test]
    fn entity_counts_match_config() {
        let config = XmarkConfig::with_scale(0.002);
        let doc = generate(&config);
        doc.check_invariants().unwrap();
        assert_eq!(doc.elements_named("item").len(), config.n_items());
        assert_eq!(doc.elements_named("person").len(), config.n_people());
        assert_eq!(
            doc.elements_named("open_auction").len(),
            config.n_open_auctions()
        );
        assert_eq!(
            doc.elements_named("closed_auction").len(),
            config.n_closed_auctions()
        );
        assert_eq!(doc.elements_named("category").len(), config.n_categories());
        assert_eq!(doc.elements_named("site").len(), 1);
        // All six continents present.
        for (region, _) in REGIONS {
            assert_eq!(doc.elements_named(region).len(), 1, "{region}");
        }
    }

    #[test]
    fn ids_are_sequential_and_referenced() {
        let config = XmarkConfig::with_scale(0.001);
        let doc = generate(&config);
        let people = doc.elements_named("person");
        assert_eq!(
            doc.attribute(people[0], "id").unwrap().as_deref(),
            Some("person0")
        );
        let last = people[people.len() - 1];
        assert_eq!(
            doc.attribute(last, "id").unwrap().as_deref(),
            Some(format!("person{}", config.n_people() - 1).as_str())
        );
        // References point inside the id spaces.
        for &r in doc.elements_named("itemref") {
            let target = doc.attribute(r, "item").unwrap().unwrap();
            let n: usize = target["item".len()..].parse().unwrap();
            assert!(n < config.n_items());
        }
    }

    #[test]
    fn size_scales_roughly_linearly() {
        let small = serialized_size(&generate(&XmarkConfig::with_scale(0.001)));
        let large = serialized_size(&generate(&XmarkConfig::with_scale(0.004)));
        let ratio = large as f64 / small as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "expected ~4x growth, got {ratio:.2} ({small} -> {large})"
        );
    }

    #[test]
    fn scale_calibration_near_xmark() {
        // xmlgen: factor 1.0 ≈ 100 MB. Check our 0.002 is within a loose
        // band of 200 KB (document structure differs slightly in prose
        // length, not in element counts).
        let size = serialized_size(&generate(&XmarkConfig::with_scale(0.002)));
        assert!(
            (80_000..500_000).contains(&size),
            "scale 0.002 gave {size} bytes"
        );
    }

    #[test]
    fn auctions_have_bidders_with_increases() {
        let doc = generate(&XmarkConfig::with_scale(0.002));
        let bidders = doc.elements_named("bidder");
        assert!(!bidders.is_empty());
        let with_increase = bidders
            .iter()
            .filter(|&&b| {
                doc.tree()
                    .unwrap()
                    .children(b)
                    .any(|c| doc.node_name(NodeId::tree(c)).unwrap() == "increase")
            })
            .count();
        assert_eq!(with_increase, bidders.len(), "every bidder has an increase");
    }
}
