//! Command-line arguments and the untraced run, which measures every end-to-end
//! metric.

use crate::online::{self, IngestPhase};
use crate::parse::{parse_corpus, ParseTotals};
use crate::report::{json_number, print_result, Metrics};
use crate::workload::{make_inputs, parse_cycle_corpora, Inputs, Kind, Spec};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Kind,
    /// Input seed.
    pub seed: u64,
    /// Seconds the measured phase runs.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Seconds-long inputs and set-ups, for the benchmark's own tests.
    pub tiny: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut tiny = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(Kind::from_name(&name).ok_or_else(|| {
                        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                        format!("unknown workload {name:?} (one of {})", names.join(", "))
                    })?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--tiny" => tiny = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            tiny,
        })
    }

    /// The workload spec at the requested scale.
    pub fn spec(&self) -> Spec {
        if self.tiny {
            Spec::tiny(self.workload)
        } else {
            Spec::full(self.workload)
        }
    }
}

/// Resident-set figure `field` (`VmRSS`, `VmHWM`) of this process, in KiB.
pub fn rss_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.split_whitespace().next()?.parse::<f64>().ok()
            })
        })
        .unwrap_or(0.0)
}

/// Scratch directory of this run, inside the benchmark's own directory.
pub fn run_dir(args: &Args, what: &str) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("runs")
        .join(format!(
            "{what}-{}-seed{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Offline parse cycles `cycles`: fresh corpora of the workload's families,
/// one per family per cycle.
pub fn offline_cycles(spec: &Spec, seed: u64, cycles: Range<usize>) -> ParseTotals {
    let mut totals = ParseTotals::default();
    for cycle in cycles {
        for corpus in parse_cycle_corpora(spec, seed, cycle) {
            parse_corpus(&corpus.records, &corpus.labels, &mut totals);
        }
    }
    totals
}

/// Offline parse cycles of round `round`.
pub fn round_cycles(spec: &Spec, seconds: f64, round: usize) -> Range<usize> {
    let per_round = spec.cycles_per_round(seconds);
    round * per_round..(round + 1) * per_round
}

/// What one round measured: its offline slice, its ingest slice and the
/// queries sent beside or after it.
#[derive(Debug)]
pub struct Round {
    /// The offline slice.
    pub parse: ParseTotals,
    /// The ingest slice, with the round's queries.
    pub phase: IngestPhase,
}

/// Run `spec.setup_repeats` set-ups, keeping the server of the last one.
pub fn setups(
    spec: &Spec,
    inputs: &Inputs,
    dir: &Path,
) -> Result<(server::LogServer, PathBuf, Vec<f64>), String> {
    let mut secs = Vec::new();
    for k in 0..spec.setup_repeats.max(1) {
        let root = online::setup_root(dir, k);
        let (server, took) = online::setup(inputs, &root)?;
        secs.push(took);
        if k + 1 == spec.setup_repeats.max(1) {
            return Ok((server, root, secs));
        }
        drop(server.shutdown());
        std::fs::remove_dir_all(&root).map_err(|e| format!("remove set-up root: {e}"))?;
    }
    unreachable!("the loop returns on its last set-up")
}

/// Print the workload descriptor line.
pub fn print_descriptor(args: &Args, spec: &Spec, inputs: &Inputs, records: u64, extra: &str) {
    let d = &inputs.descriptor;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "descriptor {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"fsync\": {}, \
         \"tenants\": {}, \"records\": {records}, \"batch\": {}, \"distinct_raw_ratio\": {}, \
         \"distinct_masked_ratio\": {}, \"ratios_over_records\": {}, \"templates\": {}, \
         \"mean_line_len\": {}{extra}}}",
        spec.kind.name(),
        args.seed,
        service::StorageConfig::default().fsync,
        inputs.tenants.len(),
        spec.batch,
        json_number(d.distinct_raw_ratio),
        json_number(d.distinct_masked_ratio),
        d.sampled_records,
        d.templates,
        json_number(d.mean_line_len),
    );
}

/// Run the workload. Returns whether every check held and no operation failed.
pub fn run(args: &Args) -> Result<bool, String> {
    let spec = args.spec();
    let inputs = make_inputs(&spec, args.seed, args.seconds);
    let rss_base = rss_kib("VmRSS");
    if args.trace {
        return crate::trace::run(args, &spec, &inputs);
    }
    let dir = run_dir(args, "run")?;

    let (server, root, setup_secs) = setups(&spec, &inputs, &dir)?;
    let rounds_n = spec.rounds.max(1);
    let probe = spec.probe_queries.div_ceil(rounds_n);
    let mut rounds = Vec::with_capacity(rounds_n);
    for r in 0..rounds_n {
        let parse = offline_cycles(&spec, args.seed, round_cycles(&spec, args.seconds, r));
        let slots = online::round_slots(&spec, &inputs, r);
        let mut phase = online::ingest_phase(&server, &spec, &inputs, args.seconds, slots)?;
        phase.queries = online::query_probe(&server, &spec, &inputs, r * probe, probe)?;
        rounds.push(Round { parse, phase });
    }
    let mut all = IngestPhase::default();
    let mut parse = ParseTotals::default();
    for round in &rounds {
        all.ingest.extend(round.phase.ingest.iter().cloned());
        all.queries.extend(round.phase.queries.iter().cloned());
        all.window_s += round.phase.window_s;
        parse.add(&round.parse);
    }
    let checked = online::shutdown_and_check(server, &spec, &inputs, &root, &all);
    let peak_rss_mb = (rss_kib("VmHWM") - rss_base) / 1024.0;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove run directory: {e}"))?;

    let metrics = end_to_end(&spec, &rounds, &parse, &setup_secs, &checked, peak_rss_mb);
    let ingest_failed = all.ingest.iter().filter(|s| !s.ok).count() as u64;
    let query_failed = all.queries.iter().filter(|q| !q.result.ok).count() as u64;
    let attempted = all.ingest.len() as u64
        + all.queries.len() as u64
        + parse.records as u64
        + checked.checks as u64;
    let failed =
        ingest_failed + query_failed + parse.unassigned as u64 + checked.failures.len() as u64;
    let records: u64 = all.ingest.iter().map(|s| s.records as u64).sum();
    print_descriptor(
        args,
        &spec,
        &inputs,
        records,
        &format!(
            ", \"rounds\": {}, \"parse_records\": {}, \"retrains\": {}",
            rounds.len(),
            parse.records,
            checked.retrains
        ),
    );
    for failure in &checked.failures {
        println!("check failed: {failure}");
    }
    if parse.unassigned > 0 {
        println!(
            "check failed: {} parsed records got no assignment",
            parse.unassigned
        );
    }
    println!(
        "error_rate = {} ({failed} failed of {attempted} attempted: {ingest_failed} ingest, \
         {query_failed} query, {} parse, {} checks)",
        json_number(failed as f64 / attempted.max(1) as f64),
        parse.unassigned,
        checked.failures.len()
    );
    let correct = checked.failures.is_empty() && failed == 0;
    print_result(&metrics, correct, attempted, failed);
    Ok(correct)
}

fn end_to_end(
    spec: &Spec,
    rounds: &[Round],
    parse: &ParseTotals,
    setup_secs: &[f64],
    checked: &online::Checked,
    peak_rss_mb: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let n = rounds.len();
    m.push(
        "setup_s",
        crate::stats::median(setup_secs),
        "s",
        format!(
            "median of {} set-ups, cold-start training included",
            setup_secs.len()
        ),
    );
    let accepted: u64 = rounds
        .iter()
        .flat_map(|r| &r.phase.ingest)
        .map(|s| s.accepted)
        .sum();
    let window_s: f64 = rounds.iter().map(|r| r.phase.window_s).sum();
    m.push(
        "ingest_rps",
        accepted as f64 / window_s.max(1e-9),
        "1/s",
        format!(
            "{accepted} records acknowledged in {window_s:.2} s over {n} rounds by {} \
             closed-loop connection(s)",
            spec.ingest_connections
        ),
    );
    let ingest_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.phase.ingest)
        .map(|s| s.latency_ms)
        .collect();
    m.latency("ingest", &ingest_ms, "requests of all rounds");
    let query_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.phase.queries)
        .map(|q| q.latency().as_secs_f64() * 1e3)
        .collect();
    m.latency(
        "query",
        &query_ms,
        "open-loop probe queries of all rounds, timed from their due time",
    );
    let parse_rates: Vec<f64> = rounds.iter().map(|r| r.parse.records_per_s()).collect();
    m.push(
        "parse_rps",
        crate::stats::median(&parse_rates),
        "1/s",
        format!(
            "median of {n} rounds; {} records over {} corpora / {:.2} s of train + match in all",
            parse.records, parse.corpora, parse.busy_s
        ),
    );
    m.push(
        "grouping_accuracy",
        parse.accuracy(),
        "ratio",
        format!(
            "record-weighted over {} corpora at threshold 0.6",
            parse.corpora
        ),
    );
    m.push(
        "recovery_s",
        checked.recovery_s,
        "s",
        format!(
            "median of {} ServiceManager::open of {} records",
            spec.recovery_repeats, checked.stored_records
        ),
    );
    m.push(
        "peak_rss_mb",
        peak_rss_mb,
        "MB",
        "VmHWM minus VmRSS after the inputs were generated",
    );
    m
}
