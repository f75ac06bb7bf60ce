//! Metric collection and the run's printed output.

use crate::stats;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How the value was taken (sample counts, the tail percentile, ...).
    pub note: String,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Add the median and tail of a latency sample given in milliseconds.
    pub fn latency(&mut self, prefix: &str, samples_ms: &[f64], what: &str) {
        let n = samples_ms.len();
        self.push(
            &format!("{prefix}_p50_ms"),
            stats::median(samples_ms),
            "ms",
            format!("median of {n} {what}"),
        );
        match stats::tail(samples_ms) {
            Some(t) => self.push(
                &format!("{prefix}_tail_ms"),
                t.value,
                "ms",
                format!(
                    "p{:.1} of {n} {what}: the highest percentile with {} samples beyond it",
                    t.percentile,
                    stats::TAIL_BEYOND
                ),
            ),
            None => self.push(
                &format!("{prefix}_tail_ms"),
                samples_ms.iter().copied().fold(0.0, f64::max),
                "ms",
                format!("max of {n} {what}: too few samples for a percentile with 10 beyond"),
            ),
        }
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Format a float for JSON with all its digits (non-finite values become 0).
pub fn json_number(value: f64) -> String {
    if value == 0.0 {
        "0.0".to_string()
    } else if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escape a string for JSON.
pub fn json_string(text: &str) -> String {
    serde_json::to_string(&text.to_string()).expect("strings render")
}

/// Print every metric as a readable line, then the result object as the last line.
pub fn print_result(metrics: &Metrics, correct: bool, attempted: u64, failed: u64) {
    for m in &metrics.0 {
        println!(
            "metric {} = {} {} ({})",
            m.name,
            json_number(m.value),
            m.unit,
            m.note
        );
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
