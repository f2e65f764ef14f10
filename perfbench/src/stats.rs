//! Sample sets and the one result line the benchmark prints last.

use std::fmt::Write as _;

#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, v: impl IntoIterator<Item = f64>) {
        self.0.extend(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &f64> {
        self.0.iter()
    }

    /// Nearest-rank percentile `p` ∈ [0, 100]; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// One named metric with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// The human-readable table: one metric a line with unit and samples.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            writeln!(
                out,
                "  {:<34} {:>16.6} {:<9} (samples: {})",
                m.name, m.value, m.unit, m.samples
            )
            .ok();
        }
        out
    }

    /// The final result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with the metrics named in `keep`, in that order.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: usize,
        failed: usize,
        keep: &[&str],
    ) -> String {
        let mut metrics = Vec::new();
        for name in keep {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                metrics.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                ));
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Every digit of the value; non-finite values become 0 (JSON has no NaN).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        s.extend((1..=100).map(f64::from));
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
