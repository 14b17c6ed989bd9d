//! The check/record harness the six `bench_*` gate bins share.
//!
//! Each gate bin measures once and then either records or checks:
//!
//! * without arguments it writes its report to `BENCH_<name>.json` in the
//!   working directory and prints it ([`record`]);
//! * with `--check` ([`check_mode`]) it measures in quick mode, reads the
//!   recording ([`Recorded`]) and collects failures into a [`Verdict`], which
//!   prints every `REGRESSION:` line and exits 1, or prints the bin's pass
//!   line.
//!
//! A [`Verdict`] keeps two kinds of failure apart. Hard failures come from
//! gates that hold on any runner, such as conformance, determinism and
//! simulated timings. Latency failures come from wall-clock gates that are
//! noise on a single-worker runner, so they are armed only at two or more
//! workers; below that the verdict prints a SKIPPED banner instead, and a
//! single-core runner is never mistaken for a passing gate.
//!
//! The tolerances, floors and arming conditions themselves belong to each
//! bin; this module only compares.

use serde::Value;

/// Wall-clock gates arm only on runners exposing at least this many workers
/// (`std::thread::available_parallelism`); on fewer, timings of the planning
/// paths are noise-dominated.
const LATENCY_MIN_WORKERS: usize = 2;

/// Whether the bin was started with `--check`, which is also quick mode.
pub fn check_mode() -> bool {
    std::env::args().any(|a| a == "--check")
}

fn recording_path(name: &str) -> String {
    format!("BENCH_{name}.json")
}

/// Writes `report` to `BENCH_<name>.json` in the working directory and prints
/// the same JSON to stdout.
pub fn record<T: serde::Serialize>(name: &str, report: &T) {
    let path = recording_path(name);
    let json = serde_json::to_string_pretty(report).expect("bench reports serialize");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{json}");
}

/// The recorded trajectory a `--check` run compares against. A value missing
/// from it reads as `None`: nothing to regress against, so no gate applies.
pub struct Recorded(Value);

impl Recorded {
    /// Reads `BENCH_<name>.json` from the working directory.
    ///
    /// # Panics
    /// If the file is missing or is not JSON: `--check` needs a recording.
    pub fn load(name: &str) -> Self {
        let path = recording_path(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path} exists for --check: {e}"));
        Self::from_json(&text).unwrap_or_else(|e| panic!("{path} parses: {e}"))
    }

    fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde_json::parse(text).map(Self)
    }

    /// The number at a key path, e.g. `["ttfc", "p50_us"]`.
    pub fn at(&self, path: &[&str]) -> Option<f64> {
        let mut v = &self.0;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    }

    /// The number in `field` of the first row of array `table` that
    /// `is_row` accepts (rows are matched by name, not position, so adding a
    /// row to a bin never shifts the others' recordings).
    pub fn row(&self, table: &str, is_row: impl Fn(&Value) -> bool, field: &str) -> Option<f64> {
        self.0
            .get(table)?
            .as_array()?
            .iter()
            .find(|r| is_row(r))?
            .get(field)?
            .as_f64()
    }
}

/// The ceil(n·p)-th smallest sample (1-based) of an ascending slice, or 0 for
/// an empty one. Below 100 samples p99 is therefore the maximum.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    sorted[((n as f64 * p).ceil() as usize).clamp(1, n) - 1]
}

/// Median, tail and mean of a set of wall-clock samples in microseconds.
#[derive(Debug, serde::Serialize)]
pub struct Percentiles {
    /// [`percentile`] at 0.50.
    pub p50_us: f64,
    /// [`percentile`] at 0.99.
    pub p99_us: f64,
    /// Arithmetic mean (0 without samples).
    pub mean_us: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Percentiles {
    /// Summarises `xs` (any order).
    pub fn of(mut xs: Vec<f64>) -> Self {
        xs.sort_by(f64::total_cmp);
        let samples = xs.len();
        Percentiles {
            p50_us: percentile(&xs, 0.50),
            p99_us: percentile(&xs, 0.99),
            mean_us: if samples == 0 {
                0.0
            } else {
                xs.iter().sum::<f64>() / samples as f64
            },
            samples,
        }
    }
}

/// A failure when `measured` is more than `tolerance`× above `recorded`
/// (strictly: exactly `tolerance`× passes); none without a recording.
pub fn above(metric: &str, measured: f64, recorded: Option<f64>, tolerance: f64) -> Option<String> {
    let recorded = recorded?;
    (measured > recorded * tolerance)
        .then(|| trajectory(metric, measured, recorded, tolerance, "above"))
}

/// A failure when `measured` is more than `tolerance`× below `recorded`
/// (strictly: exactly `recorded / tolerance` passes); none without a
/// recording.
pub fn below(metric: &str, measured: f64, recorded: Option<f64>, tolerance: f64) -> Option<String> {
    let recorded = recorded?;
    (measured < recorded / tolerance)
        .then(|| trajectory(metric, measured, recorded, tolerance, "below"))
}

fn trajectory(metric: &str, measured: f64, recorded: f64, tolerance: f64, side: &str) -> String {
    format!(
        "{metric} at {}, more than {tolerance}x {side} the recorded {}",
        show(measured),
        show(recorded)
    )
}

/// Whole numbers for large values (microseconds, rates), three decimals for
/// small ones (ratios, speedups).
fn show(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

/// Prints a SKIPPED banner for `gates`: the bin ran them but does not enforce
/// them, for `reason`.
pub fn skipped(gates: &str, reason: &str) {
    let rule = "=".repeat(65);
    eprintln!("{rule}\nSKIPPED: {gates} NOT enforced: {reason}\n{rule}");
}

/// The failures a `--check` run collected.
#[derive(Debug, Default)]
pub struct Verdict {
    hard: Vec<String>,
    latency: Vec<String>,
}

impl Verdict {
    /// Adds failures of gates that hold on any runner (a `Vec`, or the
    /// `Option` of [`above`] / [`below`]).
    pub fn hard(&mut self, failures: impl IntoIterator<Item = String>) {
        self.hard.extend(failures);
    }

    /// The latency failure list when `workers` arms the wall-clock gates.
    /// Otherwise prints one SKIPPED banner for `gates`, saying why the
    /// timings above cannot be trusted on this runner (`noise`), and returns
    /// `None`.
    pub fn latency(
        &mut self,
        workers: usize,
        gates: &str,
        noise: &str,
    ) -> Option<&mut Vec<String>> {
        if workers >= LATENCY_MIN_WORKERS {
            return Some(&mut self.latency);
        }
        skipped(
            gates,
            &format!(
                "this runner exposes only {workers} worker(s) \
                 (std::thread::available_parallelism), so {noise}. Run --check on a \
                 machine with >= {LATENCY_MIN_WORKERS} cores to arm them."
            ),
        );
        None
    }

    /// Every failure, hard ones first.
    fn regressions(&self) -> impl Iterator<Item = &String> {
        self.hard.iter().chain(&self.latency)
    }

    /// Prints each `REGRESSION:` line and exits 1, or prints `pass`.
    pub fn finish(self, pass: &str) {
        if self.hard.is_empty() && self.latency.is_empty() {
            eprintln!("{pass}");
            return;
        }
        for f in self.regressions() {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_takes_the_ceil_n_p_th_sample() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 5.0);
        // ceil(10 * 0.99) = 10: below 100 samples p99 is the maximum
        assert_eq!(percentile(&xs, 0.99), 10.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);

        let p = Percentiles::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (p.p50_us, p.p99_us, p.mean_us, p.samples),
            (2.0, 4.0, 2.5, 4)
        );
        let empty = Percentiles::of(Vec::new());
        assert_eq!(
            (empty.p50_us, empty.p99_us, empty.mean_us, empty.samples),
            (0.0, 0.0, 0.0, 0)
        );
    }

    #[test]
    fn trajectory_comparisons_are_strict_at_the_tolerance() {
        assert_eq!(above("p50", 40.0, Some(10.0), 4.0), None);
        let fail = above("p50", 40.5, Some(10.0), 4.0).expect("past the band");
        assert!(fail.contains("p50 at 40.500") && fail.contains("4x above the recorded 10.000"));

        assert_eq!(below("speedup", 2.5, Some(10.0), 4.0), None);
        let fail = below("speedup", 2.4, Some(10.0), 4.0).expect("past the band");
        assert!(fail.contains("speedup at 2.400") && fail.contains("4x below the recorded 10.000"));
    }

    #[test]
    fn a_missing_recorded_value_applies_no_gate() {
        let rec = Recorded::from_json(
            r#"{"ttfc": {"p50_us": 47}, "rows": [{"name": "a", "speedup": 1.5}]}"#,
        )
        .expect("valid JSON");
        assert_eq!(rec.at(&["ttfc", "p50_us"]), Some(47.0));
        assert_eq!(rec.at(&["ttfc", "p99_us"]), None);
        assert_eq!(rec.at(&["missing", "p50_us"]), None);
        assert_eq!(
            above("TTFC p99", 1e9, rec.at(&["ttfc", "p99_us"]), 4.0),
            None
        );
        assert_eq!(
            below("plans/sec", 0.0, rec.at(&["plans_per_sec"]), 4.0),
            None
        );

        let named = |name: &'static str| {
            move |r: &Value| r.get("name").and_then(Value::as_str) == Some(name)
        };
        assert_eq!(rec.row("rows", named("a"), "speedup"), Some(1.5));
        assert_eq!(rec.row("rows", named("b"), "speedup"), None);
        assert_eq!(rec.row("scenarios", named("a"), "speedup"), None);
    }

    #[test]
    fn latency_gates_arm_at_two_workers() {
        let mut verdict = Verdict::default();
        assert!(verdict
            .latency(1, "test latency gates", "timings are noise")
            .is_none());
        verdict
            .latency(2, "test latency gates", "timings are noise")
            .expect("armed at two workers")
            .push("slow".to_string());
        verdict.hard(below("rate", 1.0, Some(10.0), 2.0));
        verdict.hard(Vec::<String>::new());
        let lines: Vec<&String> = verdict.regressions().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("rate at 1.000"),
            "hard failures come first"
        );
        assert_eq!(lines[1], "slow");
    }
}
