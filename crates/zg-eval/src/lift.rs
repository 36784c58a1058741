//! Lift and gains analysis — the decile tables risk teams actually read.
//! A gains table sorts the population by model score, cuts it into
//! equal-size bands, and reports per-band capture of the positive class;
//! cumulative lift at depth `d` is capture rate divided by `d`.

use serde::{Deserialize, Serialize};

/// One band (decile) of a gains table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GainsBand {
    /// 1-based band index (1 = highest scores).
    pub band: usize,
    /// Observations in the band.
    pub count: usize,
    /// Positives in the band.
    pub positives: usize,
    /// Cumulative fraction of all positives captured through this band.
    pub cumulative_capture: f64,
    /// Cumulative lift: capture / population depth.
    pub cumulative_lift: f64,
}

/// Build a gains table with `n_bands` equal-size score-ordered bands.
pub fn gains_table(scores: &[f64], labels: &[bool], n_bands: usize) -> Vec<GainsBand> {
    assert_eq!(scores.len(), labels.len());
    assert!(
        n_bands >= 1 && scores.len() >= n_bands,
        "too few observations"
    );
    let total_pos = labels.iter().filter(|&&l| l).count();
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            // INVARIANT: NaN scores are a caller bug; fail loudly rather than mis-rank.
            .expect("finite scores")
            .then(a.cmp(&b))
    });
    let n = scores.len();
    let mut bands = Vec::with_capacity(n_bands);
    let mut cum_pos = 0usize;
    let mut cursor = 0usize;
    for band in 1..=n_bands {
        // Equal-size bands with the remainder spread over the first bands.
        let size = n / n_bands + usize::from(band <= n % n_bands);
        let slice = &idx[cursor..cursor + size];
        cursor += size;
        let positives = slice.iter().filter(|&&i| labels[i]).count();
        cum_pos += positives;
        let depth = cursor as f64 / n as f64;
        let capture = if total_pos == 0 {
            0.0
        } else {
            cum_pos as f64 / total_pos as f64
        };
        bands.push(GainsBand {
            band,
            count: size,
            positives,
            cumulative_capture: capture,
            cumulative_lift: if depth == 0.0 { 0.0 } else { capture / depth },
        });
    }
    bands
}

/// Precision among the top-`k` highest-scoring observations.
pub fn precision_at_k(scores: &[f64], labels: &[bool], k: usize) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let k = k.min(scores.len());
    if k == 0 {
        return 0.0;
    }
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            // INVARIANT: NaN scores are a caller bug; fail loudly rather than mis-rank.
            .expect("finite scores")
            .then(a.cmp(&b))
    });
    idx[..k].iter().filter(|&&i| labels[i]).count() as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_model_top_band_captures_all() {
        // 10 obs, 2 positives with the highest scores.
        let scores: Vec<f64> = (0..10).map(|i| 1.0 - i as f64 * 0.1).collect();
        let labels: Vec<bool> = (0..10).map(|i| i < 2).collect();
        let table = gains_table(&scores, &labels, 5);
        assert_eq!(table[0].positives, 2);
        assert!((table[0].cumulative_capture - 1.0).abs() < 1e-12);
        assert!((table[0].cumulative_lift - 5.0).abs() < 1e-12);
        assert!((table[4].cumulative_lift - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_model_lift_near_one() {
        // Alternating labels with score == index parity noise.
        let scores: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
        let labels: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let table = gains_table(&scores, &labels, 10);
        // Final band lift is always exactly 1.
        assert!((table[9].cumulative_lift - 1.0).abs() < 1e-12);
        // Top-band lift should be near 1 for an uninformative model.
        assert!(table[0].cumulative_lift < 1.5);
    }

    #[test]
    fn band_sizes_partition() {
        let scores: Vec<f64> = (0..23).map(|i| i as f64).collect();
        let labels = vec![false; 23];
        let table = gains_table(&scores, &labels, 5);
        let total: usize = table.iter().map(|b| b.count).sum();
        assert_eq!(total, 23);
        // Remainder 3 spread over the first bands: sizes 5,5,5,4,4.
        assert_eq!(
            table.iter().map(|b| b.count).collect::<Vec<_>>(),
            vec![5, 5, 5, 4, 4]
        );
    }

    #[test]
    fn precision_at_top_k() {
        let scores = vec![0.9, 0.8, 0.7, 0.2, 0.1];
        let labels = vec![true, false, true, false, true];
        assert!((precision_at_k(&scores, &labels, 2) - 0.5).abs() < 1e-12);
        assert!((precision_at_k(&scores, &labels, 3) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_no_positives() {
        let scores = vec![0.5, 0.4];
        let labels = vec![false, false];
        let table = gains_table(&scores, &labels, 2);
        assert_eq!(table[1].cumulative_capture, 0.0);
    }
}
