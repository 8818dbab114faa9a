//! Index construction configuration (the inputs of §2.2 and Algorithm 1).

use serde::{Deserialize, Serialize};
use tasti_cluster::{AssignStrategy, Metric, SelectionStrategy};
use tasti_nn::TripletConfig;

/// Configuration for building a [`crate::TastiIndex`].
///
/// Field names follow the paper: `n_train` is Algorithm 1's `N₁` (training
/// points mined for the triplet loss), `n_reps` is `N₂` (cluster
/// representatives, "buckets" in §6.8), `k` the number of distances retained
/// per record. The `mining` / `clustering` / `train_embedding` switches
/// implement the factor analysis and lesion study of §6.7: the paper's full
/// configuration is FPF mining + triplet training + FPF clustering with a
/// small random mix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TastiConfig {
    /// Number of training records annotated for triplet mining (`N₁`).
    pub n_train: usize,
    /// Number of cluster representatives (`N₂`).
    pub n_reps: usize,
    /// Distances retained per record; §5.3: the default is `k = 5`.
    pub k: usize,
    /// Embedding dimension (the paper's default is 128).
    pub embedding_dim: usize,
    /// Train the embedding with the triplet loss (TASTI-T) or use the
    /// pre-trained embedding as-is (TASTI-PT).
    pub train_embedding: bool,
    /// How training records are mined (paper: FPF over pre-trained
    /// embeddings; ablation: random).
    pub mining: SelectionStrategy,
    /// How cluster representatives are selected (paper: FPF with a small
    /// random mix; ablation: random).
    pub clustering: SelectionStrategy,
    /// Triplet-training hyperparameters.
    #[serde(skip)]
    pub triplet: TripletConfig,
    /// Distance metric over embeddings.
    pub metric: Metric,
    /// Seed for all randomness in construction (weight init, triplet
    /// sampling, random representative mix).
    pub seed: u64,
    /// Worker threads for the distance/embedding kernels during
    /// construction (`0` = the machine's available parallelism). One knob
    /// governs the `mining`, `embed`, `cluster`, and `distances` stages;
    /// results are identical at any setting.
    #[serde(default)]
    pub threads: usize,
    /// How the `distances` stage assigns records to their `k` nearest
    /// representatives: exact blocked scan, IVF candidate stage with exact
    /// refinement, or size-based auto selection (the default; small builds
    /// stay bit-identical to exact). Configs serialized before the knob
    /// existed deserialize to `Auto`.
    #[serde(default)]
    pub assign_strategy: AssignStrategy,
}

impl Default for TastiConfig {
    fn default() -> Self {
        Self {
            n_train: 300,
            n_reps: 700,
            k: 5,
            embedding_dim: 32,
            train_embedding: true,
            mining: SelectionStrategy::Fpf,
            clustering: SelectionStrategy::FpfWithRandomMix {
                random_fraction: 0.1,
            },
            triplet: TripletConfig::default(),
            metric: Metric::L2,
            seed: 0x7A57,
            threads: 0,
            assign_strategy: AssignStrategy::Auto,
        }
    }
}

impl TastiConfig {
    /// The paper's full TASTI-T configuration scaled to a dataset of `n`
    /// records: the paper used `N₁ = 3000`, `N₂ = 7000` on ~10⁶-frame
    /// videos (§6.3); we keep the same ~0.3% / 0.7% ratios.
    pub fn scaled_to(n: usize) -> Self {
        Self {
            n_train: (n / 300).clamp(50, 3000),
            n_reps: (n / 130).clamp(100, 7000),
            ..Self::default()
        }
    }

    /// TASTI-PT: identical but without triplet training.
    pub fn pretrained_only(mut self) -> Self {
        self.train_embedding = false;
        self
    }

    /// Total labeler budget implied by this configuration (training points
    /// plus representatives; overlap reduces the realized count).
    pub fn labeler_budget(&self) -> usize {
        let train = if self.train_embedding {
            self.n_train
        } else {
            0
        };
        train + self.n_reps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_shape() {
        let c = TastiConfig::default();
        assert_eq!(c.k, 5);
        assert!(c.train_embedding);
        assert!(matches!(c.mining, SelectionStrategy::Fpf));
        assert!(matches!(
            c.clustering,
            SelectionStrategy::FpfWithRandomMix { random_fraction } if random_fraction > 0.0
        ));
    }

    #[test]
    fn scaled_config_keeps_paper_ratios() {
        let c = TastiConfig::scaled_to(1_000_000);
        assert_eq!(c.n_train, 3000);
        assert_eq!(c.n_reps, 7000);
        let small = TastiConfig::scaled_to(30_000);
        assert_eq!(small.n_train, 100);
        assert!(small.n_reps >= 100);
    }

    #[test]
    fn threads_knob_defaults_to_auto_and_tolerates_legacy_configs() {
        let c = TastiConfig::default();
        assert_eq!(c.threads, 0);
        let json = serde_json::to_string(&c).unwrap();
        // Configs serialized before the knob existed lack the field; the
        // serde default must fill in 0 (= auto).
        let legacy = json
            .replace(",\"threads\":0", "")
            .replace("\"threads\":0,", "");
        let back: TastiConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.threads, 0);
    }

    #[test]
    fn assign_strategy_defaults_to_auto_and_tolerates_legacy_configs() {
        let c = TastiConfig::default();
        assert_eq!(c.assign_strategy, AssignStrategy::Auto);
        let json = serde_json::to_string(&c).unwrap();
        // Configs serialized before the knob existed lack the field.
        let legacy = json
            .replace(",\"assign_strategy\":\"Auto\"", "")
            .replace("\"assign_strategy\":\"Auto\",", "");
        assert!(!legacy.contains("assign_strategy"));
        let back: TastiConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.assign_strategy, AssignStrategy::Auto);

        // A config written by an `--assign ivf --nprobe 2` build from when
        // `IvfParams` had a `quant` codec field: the unknown key is ignored.
        let old = r#"{"Ivf":{"nprobe":2,"min_pool":0,"recall_target":0.99,"quant":"Int8","widen_ratio":0.15,"audit_sample":0}}"#;
        let with_quant = json.replace("\"Auto\"", old);
        assert!(with_quant.contains(old), "literal not spliced");
        let back: TastiConfig = serde_json::from_str(&with_quant).unwrap();
        let expected = tasti_cluster::IvfParams {
            nprobe: 2,
            ..Default::default()
        };
        assert_eq!(back.assign_strategy, AssignStrategy::Ivf(expected));
    }

    #[test]
    fn budget_excludes_training_when_pretrained() {
        let c = TastiConfig::default();
        let pt = c.clone().pretrained_only();
        assert_eq!(pt.labeler_budget() + c.n_train, c.labeler_budget());
    }
}
