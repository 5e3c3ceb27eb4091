//! The application scenarios from the paper's introduction (multimedia
//! retrieval, digital forensics, NLP, and §6's bioinformatics outlook),
//! as executable assertions. These mirror the `examples/` binaries so
//! their behaviour is CI-checked.

use standoff::prelude::*;

#[test]
fn forensics_fragmented_files() {
    let mut engine = Engine::new();
    engine
        .load_document(
            "case.xml",
            r#"<case>
              <file name="archive.zip">
                <region><start>16384</start><end>20479</end></region>
                <region><start>40960</start><end>45055</end></region>
              </file>
              <hit kind="email"><region><start>17000</start><end>17030</end></region></hit>
              <hit kind="ccn"><region><start>42000</start><end>42015</end></region></hit>
              <hit kind="gap"><region><start>30000</start><end>30015</end></region></hit>
            </case>"#,
        )
        .unwrap();
    let prolog = r#"declare option standoff-region "region";"#;
    // Hits inside either fragment count; the one between fragments does
    // not (non-contiguous area containment).
    let r = engine
        .run(&format!(
            r#"{prolog} doc("case.xml")//file/select-narrow::hit/@kind"#
        ))
        .unwrap();
    assert_eq!(r.as_strings(), ["email", "ccn"]);
    let r = engine
        .run(&format!(
            r#"{prolog} doc("case.xml")//file/reject-narrow::hit/@kind"#
        ))
        .unwrap();
    assert_eq!(r.as_strings(), ["gap"]);
}

#[test]
fn nlp_overlapping_hierarchies() {
    let mut engine = Engine::new();
    engine
        .load_document(
            "corpus.xml",
            r#"<corpus>
              <np start="0" end="7"/>
              <vp start="8" end="16"/>
              <quote start="4" end="9"/>
              <org start="1" end="5"/>
            </corpus>"#,
        )
        .unwrap();
    // The quote crosses the NP/VP boundary: overlaps both, contained in
    // neither — representable only with stand-off regions.
    let r = engine
        .run(r#"count(doc("corpus.xml")//quote/select-wide::np | doc("corpus.xml")//quote/select-wide::vp)"#)
        .unwrap();
    assert_eq!(r.as_strings(), ["2"]);
    let r = engine
        .run(r#"count((doc("corpus.xml")//np | doc("corpus.xml")//vp)/select-narrow::quote)"#)
        .unwrap();
    assert_eq!(r.as_strings(), ["0"]);
    // The org is inside the NP.
    let r = engine
        .run(r#"count(doc("corpus.xml")//np/select-narrow::org)"#)
        .unwrap();
    assert_eq!(r.as_strings(), ["1"]);
}

#[test]
fn genomics_spliced_reads() {
    let mut engine = Engine::new();
    engine
        .load_document(
            "genome.xml",
            r#"<genome>
              <gene name="ALPHA">
                <exon><start>100</start><end>199</end></exon>
                <exon><start>300</start><end>449</end></exon>
              </gene>
              <read id="spliced">
                <exon><start>180</start><end>199</end></exon>
                <exon><start>300</start><end>329</end></exon>
              </read>
              <read id="dangling">
                <exon><start>190</start><end>230</end></exon>
              </read>
            </genome>"#,
        )
        .unwrap();
    let prolog = r#"declare option standoff-region "exon";"#;
    // The spliced read's two segments each land in an exon of the SAME
    // gene → contained (∀∃). The dangling read pokes into the intron →
    // overlap only.
    let narrow = engine
        .run(&format!(
            r#"{prolog} doc("genome.xml")//gene/select-narrow::read/@id"#
        ))
        .unwrap();
    assert_eq!(narrow.as_strings(), ["spliced"]);
    let wide = engine
        .run(&format!(
            r#"{prolog} doc("genome.xml")//gene/select-wide::read/@id"#
        ))
        .unwrap();
    assert_eq!(wide.as_strings(), ["spliced", "dangling"]);
}

#[test]
fn multimedia_temporal_composition() {
    // MPEG-7/SMIL-style temporal query: scenes fully covered by any
    // music, expressed compositionally.
    let mut engine = standoff::fixtures::engine_with_figure1();
    let r = engine
        .run(
            r#"for $s in doc("sample.xml")//shot
               where exists(doc("sample.xml")//music/select-narrow::shot[. is $s])
               return $s/@id"#,
        )
        .unwrap();
    assert_eq!(r.as_strings(), ["Intro", "Outro"]);
}
