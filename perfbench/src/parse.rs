//! The offline phase: `ByteBrainParser` train + match over labelled corpora,
//! scored by grouping accuracy against the generator's labels.

use bytebrain::{resolve_with_threshold, ByteBrainParser, TrainConfig};
use std::time::Instant;

/// Saturation threshold the groups are read at (the accuracy suites' default).
pub const GA_THRESHOLD: f64 = 0.6;

/// Training parallelism: one worker per core of the two-core reference machine.
pub const PARALLELISM: usize = 2;

/// Outcome of parsing one or more corpora.
#[derive(Debug, Clone, Default)]
pub struct ParseTotals {
    /// Records parsed.
    pub records: usize,
    /// Seconds spent in train + match.
    pub busy_s: f64,
    /// Records grouped correctly.
    pub correct: usize,
    /// Records the trained model did not assign to any template.
    pub unassigned: usize,
    /// Corpora parsed.
    pub corpora: usize,
}

impl ParseTotals {
    /// Records per second of train + match.
    pub fn records_per_s(&self) -> f64 {
        self.records as f64 / self.busy_s.max(1e-9)
    }

    /// Add `other`'s counts and time to these.
    pub fn add(&mut self, other: &ParseTotals) {
        self.records += other.records;
        self.busy_s += other.busy_s;
        self.correct += other.correct;
        self.unassigned += other.unassigned;
        self.corpora += other.corpora;
    }

    /// Record-weighted grouping accuracy.
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.records.max(1) as f64
    }
}

/// Train a fresh parser on `records`, match every record against the model, and
/// score the groups at [`GA_THRESHOLD`] against `labels`. Only train + match are
/// timed.
pub fn parse_corpus(records: &[String], labels: &[usize], totals: &mut ParseTotals) {
    let mut parser = ByteBrainParser::new(TrainConfig::default().with_parallelism(PARALLELISM));
    let started = Instant::now();
    parser.train(records);
    let matches = parser.match_batch(records);
    totals.busy_s += started.elapsed().as_secs_f64();
    let groups: Vec<usize> = matches
        .iter()
        .enumerate()
        .map(|(i, m)| match m.node {
            Some(node) => resolve_with_threshold(parser.model(), node, GA_THRESHOLD).0,
            None => {
                totals.unassigned += 1;
                usize::MAX - i // a group of its own: never counted correct
            }
        })
        .collect();
    let report = eval::ga::grouping_report(&groups, labels);
    totals.records += records.len();
    totals.correct += report.correct;
    totals.corpora += 1;
}
