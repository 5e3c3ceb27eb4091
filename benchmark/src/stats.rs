//! Percentile and spread arithmetic.
//!
//! Every reported number is computed on the pooled samples of a run's
//! five rounds; `spread` = (max − min) / median of the five per-round
//! values travels beside it as its error bar.

/// Rounds every workload's timed phase is split into.
pub const ROUNDS: usize = 5;

/// Failure descriptions a [`Tally`] keeps (its counts are always exact).
const MAX_NOTES: usize = 8;

/// Operations attempted and failed, with the first few failures kept
/// for the human reading the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Record the failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(why.into());
        }
    }

    /// Count one attempt and, unless `ok`, its failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Fold another tally's counts and notes into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks. `samples` need not be sorted. `None` when
/// empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// (max − min) / median of per-round values; `None` for fewer than two
/// rounds or a zero median.
pub fn spread(per_round: &[f64]) -> Option<f64> {
    if per_round.len() < 2 {
        return None;
    }
    let med = median(per_round)?;
    if med == 0.0 {
        return None;
    }
    let max = per_round.iter().copied().fold(f64::MIN, f64::max);
    let min = per_round.iter().copied().fold(f64::MAX, f64::min);
    Some((max - min) / med.abs())
}

/// A pooled value with its round-to-round error bar.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    /// `None` when the metric has no per-round decomposition (exact
    /// counts, sizes, single-shot timings).
    pub spread: Option<f64>,
    pub samples: usize,
}

impl Measured {
    /// A single exact observation (a size, a count, one timing).
    pub fn exact(value: f64) -> Measured {
        Measured {
            value,
            spread: None,
            samples: 1,
        }
    }

    /// Reduce `rounds` of samples with `f` (e.g. a percentile): the
    /// value is `f` over the pooled samples, the spread compares `f`
    /// over each non-empty round.
    pub fn pooled(rounds: &[Vec<f64>], f: impl Fn(&[f64]) -> Option<f64>) -> Option<Measured> {
        let pool: Vec<f64> = rounds.iter().flatten().copied().collect();
        let value = f(&pool)?;
        let per_round: Vec<f64> = rounds.iter().filter_map(|r| f(r)).collect();
        Some(Measured {
            value,
            spread: spread(&per_round),
            samples: pool.len(),
        })
    }
}

/// The `q`-quantile of a class-balanced mix: the mean over classes of
/// each class's own quantile. `latency` is `[class][round]` samples.
///
/// A quantile over the *pooled* samples of classes that differ by an
/// order of magnitude sits in the gap between two classes and jumps
/// with every small shift of either; the mean of per-class quantiles
/// moves smoothly with each class and is additive across stages.
pub fn class_mean(latency: &[Vec<Vec<f64>>], q: f64) -> Option<Measured> {
    let mean = |per_class: Vec<Option<f64>>| -> Option<f64> {
        let values: Vec<f64> = per_class.into_iter().collect::<Option<_>>()?;
        (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
    };
    let pooled = |class: &Vec<Vec<f64>>| percentile(&class.concat(), q);
    let value = mean(latency.iter().map(pooled).collect())?;
    let rounds = latency.iter().map(Vec::len).max().unwrap_or(0);
    let per_round: Vec<f64> = (0..rounds)
        .filter_map(|r| {
            mean(
                latency
                    .iter()
                    .map(|class| percentile(class.get(r)?, q))
                    .collect(),
            )
        })
        .collect();
    Some(Measured {
        value,
        spread: spread(&per_round),
        samples: latency.iter().flatten().map(Vec::len).sum(),
    })
}

/// Least-squares slope of ln(y) over ln(x): the exponent `k` of a cost
/// shape y ∝ xᵏ fitted through the given points.
pub fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 || points.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
        return None;
    }
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), &(x, y)| (sx + x.ln(), sy + y.ln()));
    let (mx, my) = (sx / n, sy / n);
    let (mut num, mut den) = (0.0, 0.0);
    for &(x, y) in points {
        num += (x.ln() - mx) * (y.ln() - my);
        den += (x.ln() - mx).powi(2);
    }
    (den > 0.0).then(|| num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), Some(96.0));
    }

    #[test]
    fn tally_counts_exactly_and_keeps_the_first_notes() {
        let mut tally = Tally::default();
        tally.check(true, || unreachable!("not asked when ok"));
        for i in 0..MAX_NOTES + 3 {
            tally.check(false, || format!("failure {i}"));
        }
        assert_eq!(
            (tally.attempted, tally.failed),
            (MAX_NOTES as u64 + 4, MAX_NOTES as u64 + 3)
        );
        assert_eq!(tally.notes.len(), MAX_NOTES);
        assert_eq!(tally.notes[0], "failure 0");
        let mut sum = Tally::default();
        sum.absorb(tally);
        assert_eq!(sum.failed, MAX_NOTES as u64 + 3);
        assert_eq!(sum.failed_share(), sum.failed as f64 / sum.attempted as f64);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0, 12.0, 11.0, 10.0, 13.0]), Some(3.0 / 11.0));
        assert_eq!(spread(&[5.0]), None);
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn pooled_value_and_per_round_spread() {
        let rounds = vec![vec![1.0, 3.0], vec![5.0, 7.0], vec![]];
        let m = Measured::pooled(&rounds, median).unwrap();
        assert_eq!(m.value, 4.0);
        assert_eq!(m.samples, 4);
        // Round medians 2 and 6; the empty round is skipped.
        assert_eq!(m.spread, Some(1.0));
        assert!(Measured::pooled(&[vec![], vec![]], median).is_none());
    }

    #[test]
    fn class_mean_averages_per_class_quantiles() {
        // Two classes an order of magnitude apart, two rounds each.
        let latency = vec![
            vec![vec![1.0, 1.0], vec![3.0]],
            vec![vec![10.0], vec![30.0, 30.0]],
        ];
        let m = class_mean(&latency, 0.5).unwrap();
        assert_eq!(
            m.value,
            (1.0 + 30.0) / 2.0,
            "mean of the class medians 1 and 30"
        );
        assert_eq!(m.samples, 6);
        // Per round: (1 + 10) / 2 and (3 + 30) / 2.
        assert_eq!(m.spread, spread(&[5.5, 16.5]));
        assert!(
            class_mean(&[vec![vec![1.0]], vec![vec![]]], 0.5).is_none(),
            "an empty class has no quantile"
        );
    }

    #[test]
    fn loglog_slope_recovers_the_exponent() {
        let quadratic: Vec<(f64, f64)> = [1.0, 10.0, 40.0]
            .iter()
            .map(|&x| (x, 3.0 * x * x))
            .collect();
        assert!((loglog_slope(&quadratic).unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(loglog_slope(&[(1.0, 1.0)]), None);
        assert_eq!(loglog_slope(&[(1.0, 0.0), (2.0, 1.0)]), None);
    }
}
