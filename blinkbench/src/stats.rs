//! Statistics helpers: the percentile rule, medians, geometric means and
//! per-span self time.

/// The percentiles a timing tail is reported at, highest first, in tenths
/// of a percent so that ranks are computed exactly.
const TAIL_PERMILLE: [u64; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Samples needed before the p99 has [`TAIL_BEYOND`] samples beyond it.
pub const MIN_SAMPLES_FOR_P99: usize = 100 * TAIL_BEYOND;

/// Nearest rank (1-based) of the `permille`-th per-mille point of `n`
/// samples.
fn rank(n: usize, permille: u64) -> usize {
    (n as u64 * permille).div_ceil(1000) as usize
}

/// The percentile at `permille` tenths of a percent (nearest rank) of
/// `sorted`, which must be sorted ascending and non-empty.
fn percentile_permille(sorted: &[f64], permille: u64) -> f64 {
    sorted[rank(sorted.len(), permille).clamp(1, sorted.len()) - 1]
}

/// The highest of the standard tail percentiles that leaves at least
/// [`TAIL_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&pm| n - rank(n, pm) >= TAIL_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// Median and p99 of a timing distribution plus its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
    /// The highest percentile with [`TAIL_BEYOND`] samples beyond it.
    pub tail_pct: Option<f64>,
}

/// Summarises `samples` (any order). Empty input gives zeros.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return Summary {
            p50: 0.0,
            p99: 0.0,
            samples: 0,
            tail_pct: None,
        };
    }
    Summary {
        p50: percentile_permille(&sorted, 500),
        p99: percentile_permille(&sorted, 990),
        samples: sorted.len(),
        tail_pct: tail_percentile(sorted.len()),
    }
}

/// Median of `xs` (nearest rank); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).p50
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values; 0 for an empty slice or when any
/// value is not a positive finite number.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded span: `parent` indexes the span it is attributed to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the durations of the spans
/// attributed to it as children, floored at 0. A child is usually nested
/// inside its parent's interval; a re-invoked lower layer is attributed to
/// the call whose work it replays even though it runs afterwards.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            out[p] = out[p].saturating_sub(span.duration_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(MIN_SAMPLES_FOR_P99), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_permille(&xs, 500), 500.0);
        assert_eq!(percentile_permille(&xs, 990), 990.0);
        assert_eq!(percentile_permille(&xs, 1000), 1000.0);
        assert_eq!(percentile_permille(&[7.0], 990), 7.0);
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.p99, s.samples), (2.0, 3.0, 3));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[1.0, f64::INFINITY]), 0.0);
    }

    #[test]
    fn self_time_subtracts_attributed_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("comm.run", None, 0, 100),
            span("codegen.build", Some(0), 10, 40),
            span("engine.run", Some(0), 40, 90),
            // a re-invoked layer attributed to the call, run after it
            span("oracle.check", Some(0), 120, 125),
            span("graph.pack", Some(1), 15, 35),
        ];
        assert_eq!(self_times(&spans), vec![15, 10, 50, 5, 20]);
        // children longer than the parent floor it at zero
        let spans = vec![span("a", None, 0, 10), span("b", Some(0), 0, 30)];
        assert_eq!(self_times(&spans), vec![0, 30]);
    }
}
