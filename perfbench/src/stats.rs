//! Sample statistics and the serving ladder's pass rule.

/// Samples that must lie beyond a reported percentile. A tail figure
/// resting on fewer is one outlier, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank `ceil(q * n)`. `None` on an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank_of(sorted.len(), q);
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of quantile `q` in a sample of `n >= 1`.
fn rank_of(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// [`nearest_rank`], but only when at least [`MIN_BEYOND`] samples lie
/// beyond the percentile's rank.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || sorted.len() - rank_of(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, q)
}

/// Samples per slice when a run's latency percentiles are taken slice by
/// slice: the fewest that support a p99.
pub const SLICE_SAMPLES: usize = 100 * MIN_BEYOND;

/// Time-ordered `samples` cut into consecutive slices of at least
/// [`SLICE_SAMPLES`] (the last slice takes the remainder), with each
/// slice's (p50, p90, p99). Reporting the median over slices keeps one burst
/// of interference from setting a run's figure. Empty when the sample
/// cannot fill one slice.
pub fn sliced_percentiles(samples: &[f64]) -> Vec<(f64, f64, f64)> {
    let slices = samples.len() / SLICE_SAMPLES;
    (0..slices)
        .map(|k| {
            let end = if k + 1 == slices {
                samples.len()
            } else {
                (k + 1) * SLICE_SAMPLES
            };
            let slice = sorted(samples[k * SLICE_SAMPLES..end].to_vec());
            let p50 = nearest_rank(&slice, 0.5).expect("non-empty slice");
            let p90 = nearest_rank(&slice, 0.9).expect("non-empty slice");
            let p99 = supported_percentile(&slice, 0.99).expect("a full slice supports p99");
            (p50, p90, p99)
        })
        .collect()
}

/// A per-layer percentile: supported when the sample allows, else the
/// nearest rank (the run record states the sample count); 0 on an
/// empty sample.
pub fn layer_percentile(sorted: &[f64], q: f64) -> f64 {
    supported_percentile(sorted, q)
        .or_else(|| nearest_rank(sorted, q))
        .unwrap_or(0.0)
}

/// Sorts a sample ascending (NaN-free by construction: every sample is
/// a measured duration or size).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Median of a sample (nearest rank), `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(values.to_vec()), 0.5)
}

/// The spread a run record keeps for one metric over its reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub p90: f64,
    pub reps: usize,
}

/// Min, median and p90 of a metric's per-rep values, `None` without reps.
pub fn spread(values: &[f64]) -> Option<Spread> {
    let s = sorted(values.to_vec());
    Some(Spread {
        min: *s.first()?,
        median: nearest_rank(&s, 0.5)?,
        p90: nearest_rank(&s, 0.9)?,
        reps: s.len(),
    })
}

/// What one rate rung of the serving ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// The rung's nominal request rate.
    pub rate_rps: f64,
    /// Requests over the span of their drawn schedule.
    pub offered_rps: f64,
    /// Requests answered within that same span, over it: falls short of
    /// `offered_rps` as a backlog builds.
    pub achieved_rps: f64,
    /// Supported p99 latency, `None` when the sample was too small.
    pub p99_ms: Option<f64>,
    /// Failed requests (wrong, refused, late or unanswered).
    pub failed: u64,
    /// The generator kept to its schedule.
    pub generator_on_time: bool,
}

/// Largest shortfall of achieved under offered rate a rung may show
/// and still count as keeping up; beyond it the backlog is growing.
pub const BACKLOG_MARGIN: f64 = 0.1;

/// A rung passes when nothing failed, the generator kept its schedule,
/// its p99 is supported and within `limit_ms`, and the server kept up
/// with the offered rate within [`BACKLOG_MARGIN`].
pub fn rung_passes(rung: &Rung, limit_ms: f64) -> bool {
    rung.failed == 0
        && rung.generator_on_time
        && rung.p99_ms.is_some_and(|p99| p99 <= limit_ms)
        && rung.achieved_rps >= rung.offered_rps * (1.0 - BACKLOG_MARGIN)
}

/// The highest passing rung, `None` when none passed.
pub fn slo_max(rungs: &[Rung], limit_ms: f64) -> Option<&Rung> {
    rungs
        .iter()
        .filter(|r| rung_passes(r, limit_ms))
        .max_by(|a, b| a.rate_rps.total_cmp(&b.rate_rps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_takes_the_ceiling_rank() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&s, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(supported_percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(supported_percentile(&ramp(999), 0.99), None);
        assert_eq!(supported_percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(supported_percentile(&ramp(99), 0.9), None);
        assert_eq!(supported_percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn slices_each_support_their_p99() {
        assert!(sliced_percentiles(&ramp(999)).is_empty());
        assert_eq!(sliced_percentiles(&ramp(1000)), [(500.0, 900.0, 990.0)]);
        // 2,500 samples: a 1,000 slice and a 1,500 remainder slice.
        let slices = sliced_percentiles(&ramp(2500));
        assert_eq!(slices, [(500.0, 900.0, 990.0), (1750.0, 2350.0, 2485.0)]);
    }

    #[test]
    fn spread_reports_min_median_p90() {
        let s = spread(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.min, s.median, s.p90, s.reps), (1.0, 3.0, 5.0, 5));
        assert!(spread(&[]).is_none());
    }

    fn rung(rate: f64, p99: Option<f64>, achieved: f64) -> Rung {
        Rung {
            rate_rps: rate,
            offered_rps: rate,
            achieved_rps: achieved,
            p99_ms: p99,
            failed: 0,
            generator_on_time: true,
        }
    }

    #[test]
    fn rung_pass_needs_latency_throughput_schedule_and_no_failures() {
        assert!(rung_passes(&rung(1000.0, Some(5.0), 1000.0), 20.0));
        assert!(rung_passes(&rung(1000.0, Some(20.0), 901.0), 20.0));
        // Tail over the limit, or too few samples to know the tail.
        assert!(!rung_passes(&rung(1000.0, Some(20.1), 1000.0), 20.0));
        assert!(!rung_passes(&rung(1000.0, None, 1000.0), 20.0));
        // Growing backlog: the server fell behind the offered rate.
        assert!(!rung_passes(&rung(1000.0, Some(5.0), 899.0), 20.0));
        let failed = Rung {
            failed: 1,
            ..rung(1000.0, Some(5.0), 1000.0)
        };
        assert!(!rung_passes(&failed, 20.0));
        let late_generator = Rung {
            generator_on_time: false,
            ..rung(1000.0, Some(5.0), 1000.0)
        };
        assert!(!rung_passes(&late_generator, 20.0));
    }

    #[test]
    fn slo_max_is_the_highest_passing_rung() {
        let ladder = [
            rung(1000.0, Some(2.0), 1000.0),
            rung(2000.0, Some(30.0), 2000.0),
            rung(3000.0, Some(4.0), 3000.0),
            rung(4000.0, Some(90.0), 3100.0),
        ];
        assert_eq!(slo_max(&ladder, 20.0).map(|r| r.rate_rps), Some(3000.0));
        assert!(slo_max(&ladder[1..2], 20.0).is_none());
    }
}
