//! Descriptive statistics: quantiles and five-number summaries.
//!
//! Figure 10 of the paper reports per-link and per-link-sequence performance
//! as boxplots; [`FiveNumber`] is the exact data a boxplot renders.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted data.
///
/// # Panics
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile must be within [0, 1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The five numbers a boxplot renders: min, first quartile, median, third
/// quartile, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl FiveNumber {
    /// Computes the five-number summary of a non-empty sample.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> FiveNumber {
        FiveNumber {
            min: quantile(xs, 0.0),
            q1: quantile(xs, 0.25),
            median: quantile(xs, 0.5),
            q3: quantile(xs, 0.75),
            max: quantile(xs, 1.0),
        }
    }

    /// Renders as the compact `min/q1/med/q3/max` text form used by the
    /// experiment binaries.
    pub fn render(&self) -> String {
        format!(
            "{:.3}/{:.3}/{:.3}/{:.3}/{:.3}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_sample_is_middle() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn five_number_summary_ordered() {
        let f = FiveNumber::of(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        assert!(f.min <= f.q1 && f.q1 <= f.median && f.median <= f.q3 && f.q3 <= f.max);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.max, 9.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        quantile(&[], 0.5);
    }
}
