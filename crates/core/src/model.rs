//! Similarity models: how window contents are reduced to a similarity
//! value in `[0, 1]`.

use core::fmt;

/// The model policy of the framework (Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ModelPolicy {
    /// Unweighted (working-set) model with asymmetric weighting: the
    /// percentage of distinct CW elements that also occur in the TW.
    /// Biased toward the CW, which combines well with the adaptive
    /// trailing window.
    UnweightedSet,
    /// Weighted set model with symmetric weighting: the sum over
    /// elements of the minimum relative weight in each window.
    WeightedSet,
    /// Pearson correlation of the windows' site-count vectors, clamped
    /// to `[0, 1]` — the model used (per region) by Das et al.
    /// (CGO 2006), expressible as another instantiation of this
    /// framework (see Section 6 of the paper).
    Pearson,
}

impl ModelPolicy {
    /// The paper's two models, in its presentation order.
    pub const ALL: [ModelPolicy; 2] = [ModelPolicy::UnweightedSet, ModelPolicy::WeightedSet];

    /// All models, including the related-work Pearson model.
    pub const ALL_EXTENDED: [ModelPolicy; 3] = [
        ModelPolicy::UnweightedSet,
        ModelPolicy::WeightedSet,
        ModelPolicy::Pearson,
    ];
}

impl fmt::Display for ModelPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ModelPolicy::UnweightedSet => "unweighted",
            ModelPolicy::WeightedSet => "weighted",
            ModelPolicy::Pearson => "pearson",
        })
    }
}

/// The final arithmetic of every similarity model, shared by the SWAR
/// kernel's dense and rank modes and by the executable spec.
///
/// Each of them reduces its window representation to the *same exact
/// integer quantities* (distinct counts, the weighted integer
/// min-sum, Pearson's moment sums) and hands them to these functions,
/// so similarity values are bit-identical by construction: integer
/// summation is order-independent, and the floating-point tail here is
/// the single shared code path.
pub(crate) mod exact {
    /// Unweighted similarity from the distinct-site counts.
    #[inline]
    pub(crate) fn unweighted(shared: u64, distinct_cw: u64) -> f64 {
        if distinct_cw == 0 {
            0.0
        } else {
            shared as f64 / distinct_cw as f64
        }
    }

    /// Weighted similarity from the exact integer min-sum
    /// `Σ_s min(cw_s · tw_len, tw_s · cw_len)`: dividing by
    /// `cw_len · tw_len` yields `Σ_s min(cw_s/cw_len, tw_s/tw_len)`
    /// with one rounding step instead of one per site.
    #[inline]
    pub(crate) fn weighted(min_sum: u64, cw_len: usize, tw_len: usize) -> f64 {
        min_sum as f64 / (cw_len as u64 * tw_len as u64) as f64
    }

    /// Pearson correlation (clamped to `[0, 1]`) from exact integer
    /// moment sums over the union of the windows' supports: `n` is
    /// the union size, `shared` the sites present in both windows.
    /// Sites outside the union contribute zero to every sum, so a
    /// kernel may accumulate over any superset of the union.
    #[inline]
    pub(crate) fn pearson(n: u64, sums: PearsonSums, shared: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let PearsonSums {
            sa,
            sb,
            saa,
            sbb,
            sab,
        } = sums;
        // Cauchy-Schwarz keeps both variances non-negative in exact
        // arithmetic; the covariance can be negative, hence i128.
        let var_a = u128::from(n) * u128::from(saa) - u128::from(sa) * u128::from(sa);
        let var_b = u128::from(n) * u128::from(sbb) - u128::from(sb) * u128::from(sb);
        if var_a == 0 || var_b == 0 {
            // Zero variance: undefined correlation. Full support
            // overlap is trivially similar, anything else is not.
            return if shared == n { 1.0 } else { 0.0 };
        }
        let cov =
            (u128::from(n) * u128::from(sab)) as i128 - (u128::from(sa) * u128::from(sb)) as i128;
        let r = cov as f64 / ((var_a as f64).sqrt() * (var_b as f64).sqrt());
        r.clamp(0.0, 1.0)
    }

    /// The five moment sums Pearson needs, accumulated as exact
    /// integers (`a` = CW count, `b` = TW count per site).
    #[derive(Debug, Clone, Copy, Default)]
    pub(crate) struct PearsonSums {
        pub sa: u64,
        pub sb: u64,
        pub saa: u64,
        pub sbb: u64,
        pub sab: u64,
    }

    impl PearsonSums {
        /// Folds one site's counts into the sums.
        #[inline]
        pub(crate) fn add(&mut self, a: u32, b: u32) {
            let (a, b) = (u64::from(a), u64::from(b));
            self.sa += a;
            self.sb += b;
            self.saa += a * a;
            self.sbb += b * b;
            self.sab += a * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(ModelPolicy::UnweightedSet.to_string(), "unweighted");
        assert_eq!(ModelPolicy::WeightedSet.to_string(), "weighted");
        assert_eq!(ModelPolicy::Pearson.to_string(), "pearson");
    }

    #[test]
    fn extended_list_contains_all_models() {
        assert_eq!(ModelPolicy::ALL.len(), 2);
        assert_eq!(ModelPolicy::ALL_EXTENDED.len(), 3);
    }
}
