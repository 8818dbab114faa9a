//! Distance kernels over embedding vectors.
//!
//! TASTI's embeddings are L2-normalized, so Euclidean distance is the default
//! (and on the unit sphere it is monotone in cosine distance); L1 and cosine
//! are provided for experimentation. Inner loops run over contiguous slices.

use serde::{Deserialize, Serialize};

/// Distance metric over embedding vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Metric {
    /// Euclidean (L2) distance — the default for TASTI embeddings.
    #[default]
    L2,
    /// Squared Euclidean distance (same ordering as L2, cheaper; do not mix
    /// with radii computed under L2).
    SquaredL2,
    /// Manhattan (L1) distance.
    L1,
    /// Cosine distance `1 − cos(a, b)`, clamped to `[0, 2]`; 0 for
    /// identical directions.
    Cosine,
}

impl Metric {
    /// Distance between two equal-length vectors.
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::L2 => squared_l2(a, b).sqrt(),
            Metric::SquaredL2 => squared_l2(a, b),
            Metric::L1 => a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).sum(),
            Metric::Cosine => {
                let mut dot = 0.0f32;
                let mut na = 0.0f32;
                let mut nb = 0.0f32;
                for (&x, &y) in a.iter().zip(b) {
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                let denom = (na.sqrt() * nb.sqrt()).max(1e-12);
                // fp rounding can push |dot| a hair past ‖a‖·‖b‖, which
                // would make the distance slightly negative (or > 2) and
                // break callers that assume non-negativity (FPF cover
                // radii, min-k heaps). Clamp to the metric's true range.
                (1.0 - dot / denom).clamp(0.0, 2.0)
            }
        }
    }

    /// Whether the metric satisfies the triangle inequality (SquaredL2 and
    /// Cosine do not; callers relying on metric-space bounds — e.g. the IVF
    /// router's geometric-completeness safeguard — must check this).
    pub fn is_metric(self) -> bool {
        matches!(self, Metric::L2 | Metric::L1)
    }
}

#[inline]
fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_basics() {
        assert_eq!(Metric::L2.distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(Metric::SquaredL2.distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(Metric::L1.distance(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
    }

    #[test]
    fn cosine_identical_direction_is_zero() {
        let d = Metric::Cosine.distance(&[1.0, 2.0], &[2.0, 4.0]);
        assert!(d.abs() < 1e-6);
    }

    #[test]
    fn cosine_opposite_direction_is_two() {
        let d = Metric::Cosine.distance(&[1.0, 0.0], &[-1.0, 0.0]);
        assert!((d - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_is_clamped_to_valid_range_for_near_parallel_vectors() {
        // Near-parallel (and exactly scaled) vectors whose unclamped
        // cosine distance lands a few ulps outside [0, 2] under f32
        // rounding. The clamp must keep every result in range, and
        // anti-parallel pairs must stay in range too.
        let base = [
            0.31f32, -0.47, 0.113, 0.9992, -0.2718, 0.5772, 0.141, -0.662,
        ];
        for scale in [1.0f32, 3.0, 7.77, 1e-3, 1e3] {
            let scaled: Vec<f32> = base.iter().map(|&x| x * scale).collect();
            let d = Metric::Cosine.distance(&base, &scaled);
            assert!((0.0..=2.0).contains(&d), "scale {scale}: d = {d}");
            assert!(
                d < 1e-6,
                "scale {scale}: parallel vectors should be ~0, got {d}"
            );
            let flipped: Vec<f32> = scaled.iter().map(|&x| -x).collect();
            let d2 = Metric::Cosine.distance(&base, &flipped);
            assert!((0.0..=2.0).contains(&d2), "scale {scale}: d = {d2}");
            assert!(
                (d2 - 2.0).abs() < 1e-6,
                "scale {scale}: anti-parallel should be ~2"
            );
        }
        // Tiny perturbations of a common direction: still within range.
        for i in 0..base.len() {
            let mut nudged = base;
            nudged[i] += 1e-6;
            let d = Metric::Cosine.distance(&base, &nudged);
            assert!((0.0..=2.0).contains(&d), "nudge {i}: d = {d}");
        }
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        let d = Metric::Cosine.distance(&[1.0, 0.0], &[0.0, 1.0]);
        assert!((d - 1.0).abs() < 1e-6);
    }

    #[test]
    fn metric_flags() {
        assert!(Metric::L2.is_metric());
        assert!(Metric::L1.is_metric());
        assert!(!Metric::SquaredL2.is_metric());
        // Cosine distance violates the triangle inequality in general.
        assert!(!Metric::Cosine.is_metric());
    }

    #[test]
    fn triangle_inequality_holds_for_l2_l1_on_samples() {
        let pts = [
            vec![0.1f32, -0.4, 0.9],
            vec![1.0, 2.0, -0.5],
            vec![-0.3, 0.7, 0.2],
        ];
        for metric in [Metric::L2, Metric::L1] {
            for a in &pts {
                for b in &pts {
                    for c in &pts {
                        let ab = metric.distance(a, b);
                        let bc = metric.distance(b, c);
                        let ac = metric.distance(a, c);
                        assert!(ac <= ab + bc + 1e-5);
                    }
                }
            }
        }
    }
}
