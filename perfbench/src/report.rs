//! The run result: named metrics with units and sample counts, printed
//! as human-readable lines and then as the one-line JSON result.

use std::fmt::Write as _;

/// One named figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (stable: later comparisons cite it).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `us`, `1/s`, `MB`, `count`, …).
    pub unit: &'static str,
    /// Measurements behind the value (1 for a count or a single
    /// reading).
    pub samples: usize,
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Ops whose output check ran.
    pub attempted: u64,
    /// Ops whose output check failed (wrong outcome, status or body, or
    /// a transport error).
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// Records one metric.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// `true` when every op was attempted and passed its check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Prints one line per metric, then the JSON result as the last
    /// line of standard output.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "metric {:<40} {:>16} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "ops attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        println!("{}", self.to_json());
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Display for f64 never uses exponent notation and prints
            // every digit needed to round-trip; non-finite values are
            // not JSON and are written as null.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
