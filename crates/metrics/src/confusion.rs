//! Confusion counts and the precision / recall / F1 triple.

/// True positive / false positive / false negative counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionCounts {
    /// Predicted and correct.
    pub tp: usize,
    /// Predicted but wrong.
    pub fp: usize,
    /// Missed.
    pub fn_: usize,
}

/// Precision, recall and F1 score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// `tp / (tp + fp)`; 1.0 when nothing was predicted.
    pub precision: f64,
    /// `tp / (tp + fn)`; 1.0 when there was nothing to find.
    pub recall: f64,
    /// Harmonic mean of precision and recall (0.0 when both are 0).
    pub f1: f64,
}

impl ConfusionCounts {
    /// Creates counts directly.
    pub fn new(tp: usize, fp: usize, fn_: usize) -> Self {
        ConfusionCounts { tp, fp, fn_ }
    }

    /// Adds another set of counts (micro-averaging across datasets).
    pub fn add(&mut self, other: &ConfusionCounts) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    /// Derives precision / recall / F1.
    ///
    /// Degenerate cases follow the usual conventions: an empty prediction set
    /// has precision 1, an empty gold set has recall 1, and F1 is 0 whenever
    /// precision + recall is 0.
    pub fn scores(&self) -> PrecisionRecall {
        let precision =
            if self.tp + self.fp == 0 { 1.0 } else { self.tp as f64 / (self.tp + self.fp) as f64 };
        let recall = if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PrecisionRecall { precision, recall, f1 }
    }
}

impl PrecisionRecall {
    /// The arithmetic mean of several score triples (macro-averaging), or
    /// `None` for an empty slice.
    pub fn macro_average(scores: &[PrecisionRecall]) -> Option<PrecisionRecall> {
        if scores.is_empty() {
            return None;
        }
        let n = scores.len() as f64;
        Some(PrecisionRecall {
            precision: scores.iter().map(|s| s.precision).sum::<f64>() / n,
            recall: scores.iter().map(|s| s.recall).sum::<f64>() / n,
            f1: scores.iter().map(|s| s.f1).sum::<f64>() / n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_scores() {
        let s = ConfusionCounts::new(10, 0, 0).scores();
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
    }

    #[test]
    fn mixed_scores() {
        let s = ConfusionCounts::new(8, 2, 4).scores();
        assert!((s.precision - 0.8).abs() < 1e-12);
        assert!((s.recall - 8.0 / 12.0).abs() < 1e-12);
        let expected_f1 = 2.0 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0);
        assert!((s.f1 - expected_f1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        // Nothing predicted, nothing to find.
        let s = ConfusionCounts::new(0, 0, 0).scores();
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        // Nothing predicted, something to find.
        let s = ConfusionCounts::new(0, 0, 5).scores();
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.f1, 0.0);
        // Everything predicted was wrong.
        let s = ConfusionCounts::new(0, 3, 0).scores();
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 0.0);
    }

    #[test]
    fn add_accumulates_micro_counts() {
        let mut total = ConfusionCounts::default();
        total.add(&ConfusionCounts::new(1, 2, 3));
        total.add(&ConfusionCounts::new(4, 5, 6));
        assert_eq!(total, ConfusionCounts::new(5, 7, 9));
    }

    #[test]
    fn macro_average() {
        let a = ConfusionCounts::new(1, 0, 0).scores();
        let b = ConfusionCounts::new(0, 1, 1).scores();
        let avg = PrecisionRecall::macro_average(&[a, b]).unwrap();
        assert!((avg.precision - 0.5).abs() < 1e-12);
        assert!((avg.recall - 0.5).abs() < 1e-12);
        assert!(PrecisionRecall::macro_average(&[]).is_none());
    }

    #[test]
    fn f1_is_between_min_and_max_of_p_r() {
        for (tp, fp, fn_) in [(5, 2, 1), (3, 7, 2), (1, 1, 9)] {
            let s = ConfusionCounts::new(tp, fp, fn_).scores();
            let lo = s.precision.min(s.recall);
            let hi = s.precision.max(s.recall);
            assert!(s.f1 >= lo - 1e-12 && s.f1 <= hi + 1e-12);
        }
    }
}
