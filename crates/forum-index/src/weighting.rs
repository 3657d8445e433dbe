//! The term-weighting formulas of Section 7.

/// The log-scaled term frequency used by Eqs. 7 and 8: `log10(f) + 1` for
/// `f ≥ 1`, 0 for `f = 0`.
#[inline]
pub fn log_tf(f: u32) -> f64 {
    if f == 0 {
        0.0
    } else {
        f64::from(f).log10() + 1.0
    }
}

/// Term frequencies below this are served from [`LOG_TF`]; nearly every
/// posting of a segment-sized unit has a tf in single digits.
const LOG_TF_TABLE_LEN: usize = 256;

/// `log_tf(f)` for `f < LOG_TF_TABLE_LEN`, filled by calling [`log_tf`]
/// itself so every entry has exactly its bits.
static LOG_TF: std::sync::LazyLock<[f64; LOG_TF_TABLE_LEN]> =
    std::sync::LazyLock::new(|| std::array::from_fn(|f| log_tf(f as u32)));

/// [`log_tf`] without the `log10` for small `f`: a table lookup that is
/// bit-identical to the direct call, falling back to it for large `f`.
#[inline]
pub(crate) fn log_tf_cached(f: u32) -> f64 {
    match LOG_TF.get(f as usize) {
        Some(&v) => v,
        None => log_tf(f),
    }
}

/// The probabilistic inverse document frequency of Eq. 9, adjusted for
/// intention clusters: `log10((|I| − |I_t|) / |I_t|)` where `|I|` is the
/// cluster's unit count and `|I_t|` the number of units containing the
/// term.
///
/// Guards follow BM25 practice: terms absent from the cluster get 0 (they
/// cannot contribute anyway) and terms in at least half the units are
/// floored at 0 rather than going negative.
#[inline]
pub fn probabilistic_idf(cluster_size: usize, containing: usize) -> f64 {
    if containing == 0 || cluster_size <= containing {
        return 0.0;
    }
    let n = cluster_size as f64;
    let nt = containing as f64;
    ((n - nt) / nt).log10().max(0.0)
}

/// The unit-length normalization `NU` of Eqs. 7 and 8: units with more
/// unique terms than the collection average are penalized
/// proportionally; shorter units are not rewarded.
///
/// `NU = max(1, unique_terms / avg_unique_terms)`.
#[inline]
pub fn length_normalization(unique_terms: usize, avg_unique_terms: f64) -> f64 {
    if avg_unique_terms <= 0.0 {
        return 1.0;
    }
    (unique_terms as f64 / avg_unique_terms).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_tf_values() {
        assert_eq!(log_tf(0), 0.0);
        assert!((log_tf(1) - 1.0).abs() < 1e-12);
        assert!((log_tf(10) - 2.0).abs() < 1e-12);
        assert!(log_tf(5) > log_tf(2));
    }

    #[test]
    fn log_tf_table_is_bit_identical() {
        for f in (0..2 * LOG_TF_TABLE_LEN as u32).chain([u32::MAX - 1, u32::MAX]) {
            assert_eq!(log_tf_cached(f).to_bits(), log_tf(f).to_bits(), "tf {f}");
        }
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        let rare = probabilistic_idf(1000, 5);
        let common = probabilistic_idf(1000, 300);
        assert!(rare > common, "{rare} <= {common}");
    }

    #[test]
    fn idf_guards() {
        assert_eq!(probabilistic_idf(100, 0), 0.0);
        assert_eq!(probabilistic_idf(100, 100), 0.0);
        assert_eq!(probabilistic_idf(0, 0), 0.0);
        // Term in >half the units: floored at zero, never negative.
        assert_eq!(probabilistic_idf(100, 80), 0.0);
    }

    #[test]
    fn idf_midpoint_is_zero() {
        // (N - n) / n == 1 exactly at n = N/2.
        assert_eq!(probabilistic_idf(100, 50), 0.0);
        assert!(probabilistic_idf(100, 49) > 0.0);
    }

    #[test]
    fn length_normalization_penalizes_long_units() {
        assert_eq!(length_normalization(10, 20.0), 1.0); // shorter than avg
        assert_eq!(length_normalization(20, 20.0), 1.0); // at avg
        assert!((length_normalization(40, 20.0) - 2.0).abs() < 1e-12);
        assert_eq!(length_normalization(5, 0.0), 1.0); // degenerate avg
    }
}
