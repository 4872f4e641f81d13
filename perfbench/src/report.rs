//! The result of one run: metrics with units, op accounting, host tag.
//!
//! Human-readable lines go to stdout first (each median beside its p90
//! and sample count); the last stdout line is the one JSON object the
//! benchmark contract asks for.

use std::fmt::Write as _;
use std::path::Path;

use crate::stats::{Summary, Tally};
use crate::sys::HostTag;

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    tail: Option<Summary>,
}

/// Metrics collected by one run, in the order they were added.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

/// Shortest text that reads back as the same `f64`; non-finite values
/// (an empty ratio) become 0 so the output stays valid JSON.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

impl Report {
    /// Adds a single-valued metric.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            tail: None,
        });
    }

    /// Adds a metric whose value is the median of `summary`; the p90 and
    /// sample count are printed beside it.
    pub fn median(&mut self, name: &'static str, unit: &'static str, summary: Summary) {
        self.metrics.push(Metric {
            name,
            unit,
            value: summary.p50,
            tail: Some(summary),
        });
    }

    /// Puts the metrics in the order of `declared`, adding a 0 for each
    /// declared metric the workload did not measure.
    ///
    /// # Panics
    ///
    /// Panics when a workload reported a metric that is not declared, or
    /// with another unit: a bug in the benchmark itself.
    pub fn complete(&mut self, declared: &[(&'static str, &'static str)]) {
        for m in &self.metrics {
            assert!(
                declared.contains(&(m.name, m.unit)),
                "metric {} [{}] is not declared",
                m.name,
                m.unit
            );
        }
        let mut ordered = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None => ordered.push(Metric {
                    name,
                    unit,
                    value: 0.0,
                    tail: None,
                }),
            }
        }
        self.metrics = ordered;
    }

    /// Prints the report, writes it with the host tag to `out_file`, and
    /// prints the contract's JSON object as the last stdout line.
    pub fn finish(&self, workload: &str, tally: Tally, host: &HostTag, out_file: &Path) {
        println!(
            "perfbench {workload}: {} ops attempted, {} failed",
            tally.attempted, tally.failed
        );
        println!("host {}", host.to_json());
        let mut metrics = String::new();
        let mut detailed = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            match m.tail {
                Some(t) => {
                    println!(
                        "  {:<38} {:>14.4} {:<6} p90 {:.4} n={}",
                        m.name, m.value, m.unit, t.p90, t.n
                    );
                    let _ = write!(
                        detailed,
                        "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"p90\": {}, \"n\": {}}}",
                        m.name,
                        num(m.value),
                        m.unit,
                        num(t.p90),
                        t.n
                    );
                }
                None => {
                    println!("  {:<38} {:>14.4} {}", m.name, m.value, m.unit);
                    let _ = write!(
                        detailed,
                        "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        num(m.value),
                        m.unit
                    );
                }
            }
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        let record = format!(
            "{{\"workload\": \"{workload}\", \"host\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{detailed}}}}}\n",
            host.to_json(),
            tally.correct(),
            tally.attempted,
            tally.failed
        );
        if let Err(e) = std::fs::write(out_file, record) {
            eprintln!("perfbench: cannot write {}: {e}", out_file.display());
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            tally.correct(),
            tally.attempted,
            tally.failed
        );
    }
}
