//! Output numerical modeling (paper Sec. 4.2).
//!
//! Continuous targets are decomposed into progressive digit-wise
//! classification tasks: a value is encoded MSB-first in base `D` with fixed
//! width `L`, each position predicted as an independent `D`-way
//! classification. Per-position probability distributions give explicit
//! confidence. Because the heads are independent per position, the best
//! digit string is found greedily ([`DigitDistribution::greedy`]);
//! [`beam_search`] ranks the runner-up strings on demand, exposing where a
//! high-order digit is uncertain.
//!
//! The base trade-off the paper analyzes — encoding length
//! `L = ceil(log_D N)` versus per-digit complexity `D` — is captured by
//! [`DigitCodec::encoding_length`].

use llmulator_sim::Metric;
use serde::{Deserialize, Serialize};

/// Fixed-width positional codec for prediction targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigitCodec {
    /// Radix `D` (the paper defaults to decimal).
    pub base: u32,
    /// Number of digit positions `L` (MSB first, leading zeros included).
    pub width: usize,
}

impl DigitCodec {
    /// Decimal codec with the given width.
    pub fn decimal(width: usize) -> DigitCodec {
        DigitCodec { base: 10, width }
    }

    /// The default codec used throughout the reproduction: base 10, width 8
    /// (covers values up to 10^8 − 1).
    pub fn standard() -> DigitCodec {
        DigitCodec::decimal(8)
    }

    /// Largest encodable value.
    pub fn max_value(&self) -> u64 {
        (self.base as u64).pow(self.width as u32) - 1
    }

    /// Encodes a value MSB-first, saturating at [`DigitCodec::max_value`].
    pub fn encode(&self, value: u64) -> Vec<u8> {
        let mut v = value.min(self.max_value());
        let mut digits = vec![0u8; self.width];
        for slot in digits.iter_mut().rev() {
            *slot = (v % self.base as u64) as u8;
            v /= self.base as u64;
        }
        digits
    }

    /// Decodes MSB-first digits back into a value.
    ///
    /// # Panics
    ///
    /// Panics if a digit is out of range for the base.
    pub fn decode(&self, digits: &[u8]) -> u64 {
        let mut v: u64 = 0;
        for &d in digits {
            assert!(
                (d as u32) < self.base,
                "digit {d} out of base {}",
                self.base
            );
            v = v * self.base as u64 + d as u64;
        }
        v
    }

    /// Minimal encoding length for `value` in this base
    /// (`L = ceil(log_D N)`; 1 for zero).
    pub fn encoding_length(&self, value: u64) -> usize {
        if value == 0 {
            return 1;
        }
        let mut len = 0;
        let mut v = value;
        while v > 0 {
            v /= self.base as u64;
            len += 1;
        }
        len
    }
}

/// Per-position probability distributions over digit classes, MSB first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DigitDistribution {
    base: u32,
    /// `width` rows of `base` probabilities each.
    probs: Vec<Vec<f32>>,
}

impl DigitDistribution {
    /// Wraps per-position probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `base`.
    pub fn new(base: u32, probs: Vec<Vec<f32>>) -> DigitDistribution {
        for row in &probs {
            assert_eq!(row.len(), base as usize, "one probability per class");
        }
        DigitDistribution { base, probs }
    }

    /// Number of digit positions.
    pub fn width(&self) -> usize {
        self.probs.len()
    }

    /// Probability row for one position (MSB first).
    pub fn position(&self, j: usize) -> &[f32] {
        &self.probs[j]
    }

    /// Greedy digits: the decode every prediction uses.
    ///
    /// Walks the positions MSB first with a running `f32` log-probability
    /// `s` (from `0.0`) and takes the lowest digit `d` maximising
    /// `s + p_d.max(1e-9).ln()` under [`f32::total_cmp`]. This is exactly
    /// `beam_search(self, k)[0].digits` for every `k`: each term is
    /// NaN-free and never `-inf`, `f32` addition is monotone, and the beam's
    /// stable sort keeps the top hypothesis' lowest maximising digit first.
    /// A NaN probability counts as `1e-9`, so an all-NaN row decodes to
    /// digit 0.
    pub fn greedy(&self) -> Vec<u8> {
        let mut s = 0.0f32;
        self.probs
            .iter()
            .map(|row| {
                let (d, v) = row
                    .iter()
                    .map(|p| s + p.max(1e-9).ln())
                    .enumerate()
                    // `min_by` on the reversed order keeps the first maximum.
                    .min_by(|a, b| b.1.total_cmp(&a.1))
                    .unwrap_or((0, s));
                s = v;
                d as u8
            })
            .collect()
    }

    /// Per-position confidence: the probability of the chosen digit.
    pub fn confidences(&self, digits: &[u8]) -> Vec<f32> {
        digits
            .iter()
            .enumerate()
            .map(|(j, &d)| self.probs[j][d as usize])
            .collect()
    }

    /// Scalar confidence: the final-position (LSB) logit probability, the
    /// quantity the paper reports for its confidence/MSE correlation
    /// (Table 6) "due to its relevance in causal inference".
    ///
    /// Returns `0.0` for an empty digit string (there is no last position
    /// to read; the previous implementation indexed `digits[0]` and
    /// panicked).
    pub fn final_confidence(&self, digits: &[u8]) -> f32 {
        match digits.split_last() {
            None => 0.0,
            Some((&last_digit, rest)) => self
                .probs
                .get(rest.len())
                .and_then(|row| row.get(last_digit as usize))
                .copied()
                .unwrap_or(0.0),
        }
    }

    /// Geometric-mean confidence across positions.
    pub fn mean_confidence(&self, digits: &[u8]) -> f32 {
        let c = self.confidences(digits);
        if c.is_empty() {
            return 0.0;
        }
        let log_sum: f32 = c.iter().map(|p| p.max(1e-9).ln()).sum();
        (log_sum / c.len() as f32).exp()
    }
}

/// One beam-search hypothesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeamHypothesis {
    /// Digit string, MSB first.
    pub digits: Vec<u8>,
    /// Sum of per-position log probabilities.
    pub log_prob: f32,
}

/// Beam search over the digit lattice (paper's error-control mechanism):
/// returns the top-`k` digit strings by joint probability, best first.
///
/// With independent per-position heads the best hypothesis equals
/// [`DigitDistribution::greedy`], which is what predictions decode with;
/// this search is the on-demand top-`k` view (and the greedy decode's test
/// oracle), where lower-ranked hypotheses expose an uncertain high-order
/// digit.
pub fn beam_search(dist: &DigitDistribution, k: usize) -> Vec<BeamHypothesis> {
    let k = k.max(1);
    let mut beams = vec![BeamHypothesis {
        digits: Vec::new(),
        log_prob: 0.0,
    }];
    for j in 0..dist.width() {
        let row = dist.position(j);
        let mut next = Vec::with_capacity(beams.len() * row.len());
        for beam in &beams {
            for (d, &p) in row.iter().enumerate() {
                let mut digits = beam.digits.clone();
                digits.push(d as u8);
                next.push(BeamHypothesis {
                    digits,
                    log_prob: beam.log_prob + p.max(1e-9).ln(),
                });
            }
        }
        // `total_cmp` keeps the sort total when NaN log-probs leak in from
        // degenerate logits (NaN orders above +inf, so poisoned hypotheses
        // sort first deterministically instead of panicking the eval).
        next.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        next.truncate(k);
        beams = next;
    }
    beams
}

/// Converts a metric's continuous ground truth into the integer domain the
/// digit codec operates on (power is predicted in centi-milliwatts so the
/// fractional part survives; the other metrics are naturally integral).
pub fn metric_to_int(metric: Metric, value: f64) -> u64 {
    let v = match metric {
        Metric::Power => value * 100.0,
        Metric::Area | Metric::FlipFlops | Metric::Cycles => value,
    };
    v.max(0.0).round() as u64
}

/// Inverse of [`metric_to_int`].
pub fn int_to_metric(metric: Metric, value: u64) -> f64 {
    match metric {
        Metric::Power => value as f64 / 100.0,
        Metric::Area | Metric::FlipFlops | Metric::Cycles => value as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let codec = DigitCodec::standard();
        for v in [0u64, 1, 9, 10, 655, 99_999_999] {
            assert_eq!(codec.decode(&codec.encode(v)), v, "value {v}");
        }
    }

    #[test]
    fn encode_saturates_at_max() {
        let codec = DigitCodec::decimal(3);
        assert_eq!(codec.encode(5_000), vec![9, 9, 9]);
        assert_eq!(codec.max_value(), 999);
    }

    #[test]
    fn paper_example_655_msb_first() {
        let codec = DigitCodec::decimal(3);
        assert_eq!(codec.encode(655), vec![6, 5, 5]);
    }

    #[test]
    fn binary_base_matches_paper_length_analysis() {
        // Paper: N = 128 → decimal L = 3, binary L = 8 when width fixed;
        // minimal lengths are 3 and 8 respectively.
        let dec = DigitCodec::decimal(3);
        assert_eq!(dec.encoding_length(128), 3);
        let bin = DigitCodec { base: 2, width: 8 };
        assert_eq!(bin.encoding_length(128), 8);
        assert_eq!(bin.encode(128), vec![1, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn greedy_takes_argmax_per_position() {
        let dist =
            DigitDistribution::new(10, vec![one_hot(6, 0.8), one_hot(5, 0.9), one_hot(5, 0.7)]);
        assert_eq!(dist.greedy(), vec![6, 5, 5]);
        let conf = dist.confidences(&[6, 5, 5]);
        assert!((conf[0] - 0.8).abs() < 1e-5);
    }

    #[test]
    fn beam_search_top1_is_greedy() {
        let dist = DigitDistribution::new(10, vec![one_hot(7, 0.5), one_hot(2, 0.6)]);
        let beams = beam_search(&dist, 4);
        assert_eq!(beams[0].digits, dist.greedy());
        assert!(beams.windows(2).all(|w| w[0].log_prob >= w[1].log_prob));
    }

    #[test]
    fn beam_search_exposes_bimodal_uncertainty() {
        // Paper Fig. 2: "4:0.8, 1:0.6" style bimodal MSB — the runner-up
        // hypothesis flips the uncertain high-order digit.
        let mut msb = vec![0.01f32; 10];
        msb[4] = 0.5;
        msb[1] = 0.4;
        let dist = DigitDistribution::new(10, vec![msb, one_hot(6, 0.95)]);
        let beams = beam_search(&dist, 2);
        assert_eq!(beams[0].digits, vec![4, 6]);
        assert_eq!(beams[1].digits, vec![1, 6]);
    }

    #[test]
    fn final_confidence_reads_lsb() {
        let dist = DigitDistribution::new(10, vec![one_hot(1, 0.9), one_hot(2, 0.4)]);
        let d = dist.greedy();
        assert!((dist.final_confidence(&d) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn final_confidence_empty_digits_is_zero() {
        // Regression: indexed `digits[0]` on an empty slice and panicked.
        let dist = DigitDistribution::new(10, vec![one_hot(1, 0.9)]);
        assert_eq!(dist.final_confidence(&[]), 0.0);
        let empty = DigitDistribution::new(10, Vec::new());
        assert_eq!(empty.final_confidence(&[]), 0.0);
        assert_eq!(empty.mean_confidence(&[]), 0.0);
    }

    #[test]
    fn nan_logits_decode_gracefully() {
        // Regression: `partial_cmp(..).expect("finite")` panicked the whole
        // eval when a degenerate forward pass produced NaN probabilities.
        let mut poisoned = vec![0.1f32; 10];
        poisoned[3] = f32::NAN;
        let dist = DigitDistribution::new(10, vec![poisoned, vec![f32::NAN; 10], one_hot(4, 0.9)]);
        let digits = dist.greedy();
        assert_eq!(digits.len(), 3);
        assert!(digits.iter().all(|&d| (d as u32) < 10), "digits in base");
        assert_eq!(digits[2], 4, "healthy positions still decode by argmax");
        let beams = beam_search(&dist, 4);
        assert_eq!(beams.len(), 4);
        for hyp in &beams {
            assert_eq!(hyp.digits.len(), 3);
            assert!(hyp.digits.iter().all(|&d| (d as u32) < 10));
        }
        // Confidence accessors stay total too.
        let _ = dist.final_confidence(&digits);
        let _ = dist.mean_confidence(&digits);
    }

    #[test]
    fn mean_confidence_is_geometric() {
        let dist = DigitDistribution::new(10, vec![one_hot(0, 0.25), one_hot(0, 1.0)]);
        let m = dist.mean_confidence(&[0, 0]);
        assert!((m - 0.5).abs() < 1e-3);
    }

    #[test]
    fn greedy_is_exactly_the_beam_top1_on_edge_rows() {
        // Ties, uniform rows, an empty lattice and NaN/inf probabilities:
        // the greedy decode must equal the top beam at every width.
        let mut tie = vec![0.0f32; 10];
        tie[2] = 0.5;
        tie[7] = 0.5;
        let dists = [
            DigitDistribution::new(10, vec![one_hot(6, 0.8), one_hot(5, 0.9), one_hot(5, 0.7)]),
            DigitDistribution::new(10, vec![one_hot(0, 0.4); 5]),
            DigitDistribution::new(10, vec![vec![0.1; 10]; 2]),
            DigitDistribution::new(10, vec![tie.clone(), tie]),
            DigitDistribution::new(10, Vec::new()),
            DigitDistribution::new(10, vec![vec![f32::NAN; 10], one_hot(3, 0.6)]),
            DigitDistribution::new(10, vec![vec![f32::INFINITY; 10], one_hot(8, 0.6)]),
        ];
        for dist in &dists {
            for k in [1usize, 2, 4, 7] {
                assert_eq!(
                    dist.greedy(),
                    beam_search(dist, k)[0].digits,
                    "k={k} width={}",
                    dist.width()
                );
            }
        }
        assert_eq!(dists[5].greedy(), vec![0, 3], "NaN row decodes to 0");
        assert_eq!(dists[3].greedy(), vec![2, 2], "ties take the lowest digit");
        // Eight near-zero rows drive the running sum to about -166, where a
        // 2e-7 log gap rounds away: digit 3's tiny edge is a tie the beam
        // (and so the greedy decode) breaks towards digit 0.
        let mut near_tie = vec![0.5f32; 10];
        near_tie[3] = 0.5 + 1e-7;
        let mut rows = vec![vec![1e-12f32; 10]; 8];
        rows.push(near_tie);
        let dist = DigitDistribution::new(10, rows);
        assert_eq!(dist.greedy()[8], 0);
        assert_eq!(dist.greedy(), beam_search(&dist, 4)[0].digits);
    }

    #[test]
    fn metric_scaling_round_trips_power() {
        let p = 12.34f64;
        let i = metric_to_int(Metric::Power, p);
        assert!((int_to_metric(Metric::Power, i) - p).abs() < 0.005);
        assert_eq!(metric_to_int(Metric::Cycles, 1000.0), 1000);
    }

    fn one_hot(idx: usize, p: f32) -> Vec<f32> {
        let rest = (1.0 - p) / 9.0;
        (0..10).map(|i| if i == idx { p } else { rest }).collect()
    }
}
