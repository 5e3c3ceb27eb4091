//! The paper's complexity claims as shapes of work, not time.
//!
//! Figure 6 plots one result: the loop-lifted StandOff MergeJoin (§4.5)
//! grows linearly with the number of iterations, while the Basic
//! MergeJoin (§4.4), which re-derives its candidates from the whole
//! region index once per iteration, and the nested-loop XQuery
//! functions (Figures 2 and 3), which compare every context annotation
//! with every inner node, grow quadratically. This test runs StandOff
//! XMark Q2 (Figure 5) at three document sizes under each strategy and
//! fits the log–log slope of the join work against the size:
//!
//! * the merge joins' work is `join.candidate_reach_entries`, the index
//!   entries their candidate derivations read;
//! * the nested loops' work is `join.naive_pairs`, the pairs compared.
//!
//! Counters make the shape deterministic and cheap: three small scales
//! suffice where timings would need large ones and repeats. Q2 has no
//! `count`, so no aggregate shortcut can skip the joins it measures.

use standoff::core::StandoffStrategy;
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::Engine;

const URI: &str = "xmark-standoff.xml";
const SCALES: [f64; 3] = [0.001, 0.002, 0.004];

/// Each strategy with the band its slope must fall in: ≈ 1 for
/// loop-lifting, ≈ 2 for everything that pays iterations × candidates.
const BANDS: [(StandoffStrategy, f64, f64); 4] = [
    (StandoffStrategy::LoopLiftedMergeJoin, 0.8, 1.25),
    (StandoffStrategy::BasicMergeJoin, 1.6, 2.4),
    (StandoffStrategy::NaiveWithCandidates, 1.6, 2.4),
    (StandoffStrategy::NaiveNoCandidates, 1.6, 2.4),
];

/// Least-squares slope of `ln y` against `ln x`.
fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let var: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    cov / var
}

#[test]
fn q2_join_work_has_the_paper_shapes() {
    let query = XmarkQuery::Q2.standoff(URI);
    let mut work = vec![Vec::new(); BANDS.len()];
    for scale in SCALES {
        let so = standoffify(&generate(&XmarkConfig::with_scale(scale)), 7);
        let mut engine = Engine::new();
        engine.add_document(so.doc, Some(URI));
        let mut answers = Vec::new();
        for (k, &(strategy, ..)) in BANDS.iter().enumerate() {
            engine.set_strategy(strategy);
            engine.reset_join_stats();
            let result = engine.run(&query).unwrap();
            answers.push(result.as_serialized().to_vec());
            let stats = engine.take_join_stats();
            work[k].push((scale, stats.candidate_reach_entries + stats.naive_pairs));
        }
        assert!(
            answers.iter().all(|a| *a == answers[0]),
            "strategies disagree on Q2 at scale {scale}"
        );
    }
    let mut misses = Vec::new();
    for (&(strategy, low, high), work) in BANDS.iter().zip(&work) {
        assert!(
            work.iter().all(|&(_, w)| w > 0),
            "{strategy:?} counted no join work: {work:?}"
        );
        let points: Vec<(f64, f64)> = work.iter().map(|&(s, w)| (s, w as f64)).collect();
        let slope = log_log_slope(&points);
        println!("{strategy:?}: work {work:?}, slope {slope:.2}");
        if !(low..=high).contains(&slope) {
            misses.push(format!(
                "{strategy:?}: slope {slope:.2} outside [{low}, {high}] (work {work:?})"
            ));
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}
