//! Order statistics for the report: medians and the tail rule.
//!
//! A timing is reported as its median and its *tail*: the highest
//! percentile on a fixed ladder that still has at least
//! [`TAIL_MIN_BEYOND`] samples strictly ranked beyond it. The ladder
//! keeps the chosen percentile stable while the sample count drifts
//! between runs; the report states which rung was used and how many
//! samples it rests on.

/// Percentile rungs the tail may land on, ascending, in hundredths of
/// a percent (so nearest ranks are computed in exact integers).
pub const TAIL_LADDER_BP: &[u64] = &[5000, 7500, 9000, 9500, 9900, 9990, 9999];

/// Samples that must rank beyond the tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank position (1-based) of the percentile `bp` (hundredths
/// of a percent) among `n` samples: `ceil(bp * n / 10000)`.
fn nearest_rank(bp: u64, n: usize) -> usize {
    let n = n as u64;
    let rank = (bp * n).div_ceil(10_000);
    rank.clamp(1, n.max(1)) as usize
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples ranked beyond it, or `None` when `n` is too small for even
/// the median to qualify.
pub fn tail_percentile(n: usize) -> Option<f64> {
    tail_rung(n).map(|bp| bp as f64 / 100.0)
}

fn tail_rung(n: usize) -> Option<u64> {
    TAIL_LADDER_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| n > 0 && n - nearest_rank(bp, n) >= TAIL_MIN_BEYOND)
}

/// A timing distribution condensed for the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile (the maximum when no rung
    /// qualifies).
    pub tail: f64,
    /// The tail percentile, or `None` when the sample was too small and
    /// `tail` is the maximum.
    pub tail_pct: Option<f64>,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Dist {
    /// Condenses `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Dist> {
        let p50 = median(values)?;
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rung = tail_rung(n);
        let tail = match rung {
            Some(bp) => sorted[nearest_rank(bp, n) - 1],
            None => sorted[n - 1],
        };
        let tail_pct = rung.map(|bp| bp as f64 / 100.0);
        Some(Dist {
            n,
            p50,
            tail,
            tail_pct,
            mean: sorted.iter().sum::<f64>() / n as f64,
        })
    }

    /// `p75 of n=70`-style label for the report.
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            Some(pct) => format!("p{pct} of n={} (mean {:.6})", self.n, self.mean),
            None => format!(
                "max of n={} (too few samples for a percentile; mean {:.6})",
                self.n, self.mean
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
