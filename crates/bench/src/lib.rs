//! # blink-bench
//!
//! The experiment harness over the simulated substrate, in two kinds of
//! binary under `src/bin/`:
//!
//! * `fig*` / `tab*` — one per figure or table of the Blink paper's
//!   evaluation. Each calls one function of [`figures`] and prints its rows
//!   as a table and a JSON dump ([`print_rows`]), e.g.
//!   `cargo run -p blink-bench --release --bin fig15_broadcast_dgx1v`.
//! * `bench_*` — the six perf gates (`packing`, `sim`, `replan`, `overlap`,
//!   `fleet`, `chaos`). Without arguments each records its trajectory to
//!   `BENCH_<name>.json` in the working directory; with `--check` it
//!   re-measures in quick mode and exits non-zero on a regression against
//!   that recording. They share their check/record scaffolding through
//!   [`gate`]; each bin's module docs list its gates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod gate;
pub mod measure;

pub use measure::{blink_collective, nccl_collective, CollectiveMeasurement};

/// Prints a slice of serialisable rows as an aligned text table followed by a
/// JSON dump (so results can be archived / plotted).
pub fn print_rows<T: serde::Serialize>(title: &str, rows: &[T]) {
    println!("== {title} ==");
    for row in rows {
        match serde_json::to_value(row) {
            Ok(serde_json::Value::Object(map)) => {
                let cells: Vec<String> = map
                    .iter()
                    .map(|(k, v)| format!("{k}={}", compact(v)))
                    .collect();
                println!("  {}", cells.join("  "));
            }
            Ok(v) => println!("  {v}"),
            Err(e) => println!("  <serialization error: {e}>"),
        }
    }
    match serde_json::to_string_pretty(rows) {
        Ok(json) => println!("--- json ---\n{json}"),
        Err(e) => println!("--- json unavailable: {e} ---"),
    }
}

fn compact(v: &serde_json::Value) -> String {
    match v {
        serde_json::Value::Number(n) => {
            if let Some(f) = n.as_f64() {
                if f.fract().abs() > 1e-9 {
                    return format!("{f:.2}");
                }
            }
            n.to_string()
        }
        other => other.to_string(),
    }
}
