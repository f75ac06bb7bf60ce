//! The traced run: per-layer numbers from spans recorded around calls into each
//! layer's public functions.
//!
//! The run has four parts, all on the same inputs as the untraced run. The
//! service parts send the batches of the first [`TRACE_ROUNDS`] rounds:
//!
//! 1. **HTTP.** The untraced service phase once more (one set-up, the ingest
//!    phase, the queries). It fixes which batches and queries the replays send,
//!    and gives what only the wire shows: health-check round trips, how late
//!    the open-loop generator ran, and how long queries waited beyond their
//!    execution time.
//! 2. **Untraced replay.** A fresh manager receives the same requests in-process,
//!    in order: JSON decode, admission submit / next batch / complete,
//!    [`server::apply_batch`], then the probe queries. Its wall time is the
//!    figure the layers are attributed against.
//! 3. **Traced replay.** The same again with a span around every call. The
//!    difference to part 2 is the tracing overhead.
//! 4. **Twins.** The engine's stages sit behind private functions, so each batch
//!    is also applied to an in-memory and a durable twin topic, preceded by
//!    standalone passes of the masker, tokenizer, compiled matcher, match cache
//!    and WAL over the same records. The twins are checked against the traced
//!    replay. The offline parse phase is traced as preprocess,
//!    `train_from_batch` and compile, and a topic per first-cycle corpus
//!    retrains.
//!
//! Spans are kept in memory and written to `runs/trace-<workload>-seed<n>/`
//! when the run ends, with a per-layer summary.

use crate::online::{self, probe_plan, QuerySample};
use crate::openloop::Timed;
use crate::parse::PARALLELISM;
use crate::report::{json_string, print_result, Metrics};
use crate::run::{print_descriptor, run_dir, Args};
use crate::stats;
use crate::workload::{parse_cycle_corpora, Inputs, Spec, NEVER_RETRAIN, TOPIC};
use bytebrain::{CompiledMatcher, MatchCache, TrainConfig};
use logtok::{Preprocessor, TokenScratch};
use server::{apply_batch, EngineConfig};
use service::api::{self, IngestRequest};
use service::{
    Admission, AdmissionConfig, IngestOutcome, LogTopic, ServiceManager, StorageConfig,
    TopicConfig, TopicMeta, TopicStorage,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request (batch slot or query) the span belongs to.
    pub request: u64,
    /// Which part of the traced run recorded it.
    pub part: &'static str,
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    part: &'static str,
}

impl Tracer {
    fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            part: "",
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span that ran from `start` to now; returns its id.
    fn close(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
    ) -> u64 {
        let end = Instant::now();
        self.push(name, parent, request, self.at(start), self.at(end))
    }

    /// Record a span of an explicit extent.
    fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            part: self.part,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Reserve a parent span now; its extent is fixed by [`Tracer::finish`].
    fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> u64 {
        let at = self.at(Instant::now());
        self.push(name, parent, request, at, at)
    }

    fn finish(&mut self, id: u64) {
        let end = self.at(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Sum of span durations named `name`, in milliseconds.
    fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum();
        ns as f64 / 1e6
    }

    fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// Per-layer totals: spans, total and self time.
#[derive(Debug, Default, Clone)]
struct LayerTotals {
    spans: usize,
    total_ns: u64,
    self_ns: u64,
}

fn layer_totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.ns();
        }
    }
    let mut out: BTreeMap<(&'static str, &'static str), LayerTotals> = BTreeMap::new();
    for span in spans {
        let entry = out.entry((span.part, span.name)).or_default();
        entry.spans += 1;
        entry.total_ns += span.ns();
        entry.self_ns += span.ns().saturating_sub(child_ns[span.id as usize]);
    }
    out
}

/// The request sequence the HTTP part sent: the acknowledged batch slots in
/// order, then the probe plans.
struct Sequence {
    slots: Vec<usize>,
    queries: Vec<usize>,
}

fn sequence_of(phase: &online::IngestPhase) -> Sequence {
    let mut slots: Vec<usize> = phase
        .ingest
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.slot)
        .collect();
    slots.sort_unstable();
    let queries = phase.queries.iter().map(|q| q.result.plan).collect();
    Sequence { slots, queries }
}

/// Run `f`, recorded as span `name` when tracing; untraced, nothing but `f` runs.
fn span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let started = Instant::now();
            let out = f();
            t.close(name, parent, request, started);
            out
        }
    }
}

/// What one replay left behind.
struct Replayed {
    /// Wall seconds of the replay loop.
    wall_s: f64,
    /// The manager the requests were applied to.
    manager: ServiceManager,
    /// Records shed.
    shed: usize,
    /// `apply_batch`'s outcome for each slot of the sequence, in order; `None`
    /// where admission refused the batch.
    outcomes: Vec<Option<IngestOutcome>>,
}

/// Replay the request sequence in-process against a fresh manager, with spans
/// when `tracer` is given.
fn replay(
    inputs: &Inputs,
    seq: &Sequence,
    root: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<Replayed, String> {
    let mut manager = online::build_manager(inputs, root)?;
    let mut admission = Admission::new(AdmissionConfig::default());
    let engine = EngineConfig::default();
    let mut shed = 0usize;
    let mut outcomes = Vec::with_capacity(seq.slots.len());
    let t = &mut tracer;
    let started = Instant::now();
    for &slot in &seq.slots {
        let (tenant_index, index) = online::slot_request(inputs, slot);
        let tenant = &inputs.tenants[tenant_index];
        let request = slot as u64;
        let root_span = t.as_mut().map(|t| t.open("request", None, request));
        let parsed: IngestRequest = span(t, "api.decode", root_span, request, || {
            serde_json::from_str(&tenant.bodies[index])
        })
        .map_err(|e| format!("decode: {e}"))?;
        let submitted = span(t, "admission.submit", root_span, request, || {
            admission.submit(&tenant.tenant, TOPIC, parsed.records, Instant::now())
        });
        if submitted.is_ok() {
            let batch = span(t, "admission.next_batch", root_span, request, || {
                admission.next_batch()
            })
            .ok_or("admitted batch missing")?;
            let applied = span(t, "engine.apply", root_span, request, || {
                apply_batch(
                    &mut manager,
                    &batch.tenant,
                    &batch.topic,
                    batch.records,
                    &engine,
                )
            });
            shed += applied.shed;
            outcomes.push(Some(applied.outcome));
            span(t, "admission.complete", root_span, request, || {
                admission.complete(&batch.tenant, batch.bytes)
            });
        } else {
            shed += tenant.body_records[index];
            outcomes.push(None);
        }
        if let (Some(t), Some(id)) = (t.as_mut(), root_span) {
            t.finish(id);
        }
    }
    for (q, &plan_index) in seq.queries.iter().enumerate() {
        let (tenant, query) = probe_plan(inputs, plan_index);
        let tenant = &inputs.tenants[tenant].tenant;
        let request = (1 << 32) + q as u64;
        let root_span = t.as_mut().map(|t| t.open("query", None, request));
        let planned = span(t, "query.plan", root_span, request, || query.plan())
            .map_err(|e| format!("plan: {e}"))?;
        let value = span(t, "query.exec", root_span, request, || {
            manager.execute(tenant, TOPIC, &planned)
        });
        span(t, "query.render", root_span, request, || {
            value.map(|v| std::hint::black_box(api::query_value_to_json(&v)))
        });
        if let (Some(t), Some(id)) = (t.as_mut(), root_span) {
            t.finish(id);
        }
    }
    Ok(Replayed {
        wall_s: started.elapsed().as_secs_f64(),
        manager,
        shed,
        outcomes,
    })
}

/// Counters the twin part gathers beside its spans.
#[derive(Debug, Default)]
struct TwinCounts {
    records: u64,
    unmatched: u64,
    cache: BTreeMap<String, (u64, u64)>,
    backpressure_waits: u64,
    in_flight_hwm: usize,
    flushes: u64,
    commits: u64,
    dfa_states: usize,
    /// Where the twins diverged from the replayed manager; empty when they
    /// reproduced it.
    failures: Vec<String>,
    /// Checks made against the replay.
    checks: usize,
}

impl TwinCounts {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The topic configuration `ServiceManager` gives a tenant's topic from its
/// [`service::TenantDefaults`], with the volume threshold the benchmark sets.
fn twin_config(name: &str) -> TopicConfig {
    let defaults = service::TenantDefaults::default();
    let mut config = TopicConfig::new(name)
        .with_volume_threshold(NEVER_RETRAIN)
        .with_maintenance(defaults.maintenance)
        .with_match_engine(defaults.match_engine);
    config.train.parallelism = defaults.parallelism;
    config
}

/// Apply a batch to a twin topic down the path `server::apply_batch` takes for
/// it. Returns the outcome and whether the batch was streamed.
fn twin_ingest(
    topic: &mut LogTopic,
    records: Vec<String>,
    engine: &EngineConfig,
    counts: Option<&mut TwinCounts>,
) -> Result<(IngestOutcome, bool), String> {
    if records.len() < engine.stream_threshold {
        return Ok((topic.ingest(&records), false));
    }
    let workers = engine
        .ingest
        .workers
        .min(topic.config().train.parallelism.max(1));
    let config = engine.ingest.clone().with_workers(workers);
    let outcome = topic
        .ingest_stream_bounded(records, &config, engine.engine_wait)
        .map_err(|e| format!("twin stream shed: {e}"))?;
    if let Some(counts) = counts {
        let flushes: u64 = outcome
            .stats
            .shards
            .iter()
            .map(|s| s.size_flushes + s.time_flushes + s.forced_flushes)
            .sum();
        counts.check(flushes > 0, || {
            "a streamed twin batch reported no shard flush in its StreamOutcome".into()
        });
        counts.backpressure_waits += outcome.stats.backpressure_waits;
        counts.in_flight_hwm = counts
            .in_flight_hwm
            .max(outcome.stats.max_in_flight_observed);
        counts.flushes += flushes;
    }
    Ok((outcome.outcome, true))
}

/// Part 4: the twins and the standalone layer passes over the replayed batches.
/// The twins must reproduce the traced replay: the same outcome for every
/// batch, the same record counts, training runs and template distribution at
/// the end. Where they do not, the twins no longer model the engine, and the
/// differences are returned in [`TwinCounts::failures`].
fn twins(
    inputs: &Inputs,
    seq: &Sequence,
    replayed: &Replayed,
    dir: &Path,
    t: &mut Tracer,
) -> Result<TwinCounts, String> {
    let engine = EngineConfig::default();
    let storage = StorageConfig::default();
    let preprocessor = Preprocessor::default_pipeline();
    let masker = preprocessor.masker().clone();
    let tokenizer = logtok::Tokenizer::default_rules();
    let mut counts = TwinCounts::default();
    struct Twin {
        memory: LogTopic,
        durable: LogTopic,
        wal: TopicStorage,
        cache: MatchCache,
    }
    let mut twins = Vec::new();
    for (i, tenant) in inputs.tenants.iter().enumerate() {
        let name = format!("{}/{TOPIC}", tenant.tenant);
        let mut memory = LogTopic::new(twin_config(&name));
        let mut durable = LogTopic::durable(
            twin_config(&name),
            &dir.join(format!("durable-{i}")),
            storage.clone(),
        )
        .map_err(|e| format!("durable twin: {e}"))?;
        let meta = TopicMeta::from_config("", &name, &twin_config(&name));
        let wal = TopicStorage::create(&dir.join(format!("wal-{i}")), storage.clone(), &meta)
            .map_err(|e| format!("wal twin: {e}"))?;
        memory.ingest(&tenant.warmup);
        durable.ingest(&tenant.warmup);
        twins.push(Twin {
            memory,
            durable,
            wal,
            cache: MatchCache::default(),
        });
    }

    let mut scratch = TokenScratch::new();
    let (mut masked, mut swap) = (String::new(), String::new());
    let mut spans_buf = Vec::new();
    for (&slot, replayed_outcome) in seq.slots.iter().zip(&replayed.outcomes) {
        let (tenant_index, index) = online::slot_request(inputs, slot);
        let tenant = &inputs.tenants[tenant_index];
        let twin = &mut twins[tenant_index];
        let request = slot as u64;
        let records: Vec<String> = serde_json::from_str::<IngestRequest>(&tenant.bodies[index])
            .map_err(|e| format!("decode: {e}"))?
            .records;
        let batch_span = t.open("twin.batch", None, request);

        // The matcher the topic will use for this batch, refreshed after the
        // temporary templates the previous batch inserted.
        let s = Instant::now();
        let compiled = twin.memory.compiled_snapshot();
        t.close("compile", Some(batch_span), request, s);
        twin.durable.compiled_snapshot();

        // The twins first, before the standalone passes disturb caches.
        let s = Instant::now();
        let (durable_outcome, _) = twin_ingest(&mut twin.durable, records.clone(), &engine, None)?;
        t.close("durable.ingest", Some(batch_span), request, s);
        let s = Instant::now();
        let (memory_outcome, _) = twin_ingest(
            &mut twin.memory,
            records.clone(),
            &engine,
            Some(&mut counts),
        )?;
        t.close("topic.ingest", Some(batch_span), request, s);
        if let Some(expected) = replayed_outcome {
            for (which, got) in [("in-memory", memory_outcome), ("durable", durable_outcome)] {
                counts.check(got == *expected, || {
                    format!(
                        "{which} twin of {} gave {got:?} for batch slot {slot}, the replay {expected:?}",
                        tenant.tenant
                    )
                });
            }
        }

        // Standalone per-record passes: each span is the summed time of that
        // layer's calls in the batch, laid out from the pass's start.
        let (mut mask_ns, mut token_ns, mut match_ns) = (0u64, 0u64, 0u64);
        let mut nodes = Vec::with_capacity(records.len());
        let pass = t.at(Instant::now());
        for record in &records {
            let a = Instant::now();
            masker.mask_into(record, &mut masked, &mut swap);
            let b = Instant::now();
            tokenizer.tokenize_spans(&masked, &mut spans_buf);
            let c = Instant::now();
            std::hint::black_box(&spans_buf);
            let view = preprocessor.token_view(record, &mut scratch);
            let d = Instant::now();
            let node = match &compiled {
                Some(compiled) => compiled.match_view(&view),
                None => bytebrain::matcher::match_view(twin.memory.model(), &view),
            };
            let e = Instant::now();
            mask_ns += (b - a).as_nanos() as u64;
            token_ns += (c - b).as_nanos() as u64;
            match_ns += (e - d).as_nanos() as u64;
            counts.unmatched += node.is_none() as u64;
            nodes.push(node);
        }
        t.push("mask", Some(batch_span), request, pass, pass + mask_ns);
        t.push("tokenize", Some(batch_span), request, pass, pass + token_ns);
        t.push("match", Some(batch_span), request, pass, pass + match_ns);
        counts.records += records.len() as u64;

        if let Some(compiled) = &compiled {
            let s = Instant::now();
            for record in &records {
                twin.cache
                    .match_record(compiled, &preprocessor, &mut scratch, record);
            }
            t.close("cache", Some(batch_span), request, s);
        }

        let s = Instant::now();
        for (record, node) in records.iter().zip(&nodes) {
            twin.wal
                .append_record(node.is_none(), *node, record)
                .map_err(|e| format!("wal append: {e}"))?;
        }
        t.close("wal.append", Some(batch_span), request, s);
        let s = Instant::now();
        twin.wal
            .commit(|_| Vec::new())
            .map_err(|e| format!("commit: {e}"))?;
        t.close("storage.commit", Some(batch_span), request, s);
        counts.commits += 1;
        t.finish(batch_span);
    }
    for (twin, tenant) in twins.iter().zip(&inputs.tenants) {
        let live = replayed
            .manager
            .topic(&tenant.tenant, TOPIC)
            .ok_or_else(|| format!("replayed manager has no topic for {}", tenant.tenant))?;
        let stats = live.stats();
        let distribution = live.template_distribution(online::CHECK_THRESHOLD);
        for (which, topic) in [("in-memory", &twin.memory), ("durable", &twin.durable)] {
            let got = topic.stats();
            counts.check(
                (got.total_records, got.training_runs)
                    == (stats.total_records, stats.training_runs),
                || {
                    format!(
                        "{which} twin of {} holds {} records after {} training runs, the replayed \
                         topic {} after {}",
                        tenant.tenant,
                        got.total_records,
                        got.training_runs,
                        stats.total_records,
                        stats.training_runs
                    )
                },
            );
            counts.check(
                topic.template_distribution(online::CHECK_THRESHOLD) == distribution,
                || {
                    format!(
                        "{which} twin of {} has another template distribution than the replayed topic",
                        tenant.tenant
                    )
                },
            );
        }
    }
    for (twin, tenant) in twins.iter_mut().zip(&inputs.tenants) {
        counts
            .cache
            .insert(tenant.tenant.clone(), twin.cache.stats());
        if let Some(compiled) = twin.memory.compiled_snapshot() {
            counts.dfa_states += compiled.dfa_states().unwrap_or(0);
        }
    }
    Ok(counts)
}

/// Traced offline phase: preprocess, `train_from_batch` and compile over the
/// same corpora as the untraced offline phase. Each corpus of the first cycle
/// also goes into a durable topic configured as a tenant's: the first half
/// cold-start trains it, the second half is ingested after, and the topic then
/// retrains. That is `LogTopic::run_training`, the inline retrain a tenant runs
/// when it crosses its volume threshold: train on the records since the last
/// training, merge, re-match every stored record, checkpoint.
fn offline(
    spec: &Spec,
    args: &Args,
    dir: &Path,
    t: &mut Tracer,
) -> Result<(u64, u64, usize), String> {
    let config = TrainConfig::default().with_parallelism(PARALLELISM);
    let preprocessor = Preprocessor::new(config.preprocess.clone());
    let (mut records, mut unique, mut templates) = (0u64, 0u64, 0usize);
    let cycles = spec.rounds.max(1) * spec.cycles_per_round(args.seconds);
    for cycle in 0..cycles {
        for corpus in parse_cycle_corpora(spec, args.seed, cycle) {
            let request = (2 << 32) + cycle as u64;
            let root = t.open("offline.corpus", None, request);
            let s = Instant::now();
            let batch = preprocessor.preprocess(&corpus.records);
            t.close("preprocess", Some(root), request, s);
            let s = Instant::now();
            let outcome = bytebrain::train::train_from_batch(&batch, &config);
            t.close("train", Some(root), request, s);
            let s = Instant::now();
            std::hint::black_box(CompiledMatcher::compile(&outcome.model));
            t.close("offline.compile", Some(root), request, s);
            t.finish(root);
            records += batch.stats.total_records;
            unique += batch.stats.unique_records;
            templates += outcome.model.len();
        }
    }
    for (f, corpus) in parse_cycle_corpora(spec, args.seed, 0).iter().enumerate() {
        let name = format!("retrain-{f}/{TOPIC}");
        let mut topic = LogTopic::durable(
            twin_config(&name),
            &dir.join(format!("retrain-{f}")),
            StorageConfig::default(),
        )
        .map_err(|e| format!("retrain topic: {e}"))?;
        let (first, second) = corpus.records.split_at(corpus.records.len() / 2);
        topic.ingest(first);
        topic.ingest(second);
        let request = (3 << 32) + f as u64;
        let s = Instant::now();
        topic.run_training();
        t.close("retrain", None, request, s);
        if topic.stats().training_runs != 2 {
            return Err(format!(
                "the retrain topic of offline corpus {f} ran {} trainings, not a cold start and a retrain",
                topic.stats().training_runs
            ));
        }
    }
    Ok((records, unique, templates))
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"name\": {}, \"part\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"request\": {}}}",
            s.id,
            json_string(s.name),
            json_string(s.part),
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.request
        );
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Mean query execution time the server recorded, from `/metrics`.
fn server_exec_ms(conn: &mut minihttp::ClientConn) -> Option<(f64, u64)> {
    let body = conn.request("GET", "/metrics", b"").ok()?.body_str();
    let value = serde_json::parse_value(&body).ok()?;
    let serde::Value::Object(tenants) = value.get("tenants")? else {
        return None;
    };
    let (mut count, mut total_us) = (0u64, 0u64);
    for (_, fields) in tenants {
        if let Some(latency) = fields.get("query_latency") {
            if let (Some(serde::Value::UInt(c)), Some(serde::Value::UInt(t))) =
                (latency.get("count"), latency.get("total_us"))
            {
                count += c;
                total_us += t;
            }
        }
    }
    (count > 0).then(|| (total_us as f64 / count as f64 / 1e3, count))
}

/// Health-check round trips sampled on an idle server.
const HEALTHZ_SAMPLES: usize = 200;

/// Rounds whose batches the traced run sends: a prefix of the stream. The
/// traced run sends each batch over HTTP, twice in-process and twice more to
/// the twins; over the whole `bulk_ingest` stream that took 132 s on the
/// reference machine, too close to the 180 s a run may take.
const TRACE_ROUNDS: usize = 3;

/// Run the traced workload. Returns whether every step succeeded.
pub fn run(args: &Args, spec: &Spec, inputs: &Inputs) -> Result<bool, String> {
    let dir = run_dir(args, "trace")?;
    let out_dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("runs")
        .join(format!("trace-{}-seed{}", args.workload.name(), args.seed));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    // Part 1: the HTTP service phase.
    let (server, _) = online::setup(inputs, &online::setup_root(&dir, 0))?;
    let last_round = TRACE_ROUNDS.min(spec.rounds.max(1)) - 1;
    let slots = 0..online::round_slots(spec, inputs, last_round).end;
    let mut phase = online::ingest_phase(&server, spec, inputs, args.seconds, slots)?;
    phase.queries = online::query_probe(&server, spec, inputs, 0, spec.probe_queries)?;
    let mut conn = online::connect(&server)?;
    let exec = server_exec_ms(&mut conn);
    let mut rtt_us = Vec::with_capacity(HEALTHZ_SAMPLES);
    for _ in 0..HEALTHZ_SAMPLES {
        let s = Instant::now();
        let ok = conn
            .request("GET", "/healthz", b"")
            .is_ok_and(|r| r.status == 200);
        if !ok {
            return Err("healthz failed".into());
        }
        rtt_us.push(s.elapsed().as_secs_f64() * 1e6);
    }
    drop(conn);
    drop(server.shutdown());
    let http_failed = phase.ingest.iter().filter(|s| !s.ok).count()
        + phase.queries.iter().filter(|q| !q.result.ok).count();
    let seq = sequence_of(&phase);

    // Parts 2 and 3: untraced and traced replays of the same requests.
    let untraced = replay(inputs, &seq, &dir.join("replay-untraced"), None)?;
    let (untraced_s, shed_untraced) = (untraced.wall_s, untraced.shed);
    drop(untraced);
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    t.part = "replay";
    let traced = replay(inputs, &seq, &dir.join("replay-traced"), Some(&mut t))?;
    let (traced_s, shed) = (traced.wall_s, traced.shed);
    let (mut qhits, mut qmisses) = (0, 0);
    for tenant in &inputs.tenants {
        if let Some(topic) = traced.manager.topic(&tenant.tenant, TOPIC) {
            let (h, m) = topic.query_cache_stats();
            qhits += h;
            qmisses += m;
        }
    }

    // Part 4: twins, checked against the traced replay, and the traced
    // offline phase.
    t.part = "twin";
    let counts = twins(inputs, &seq, &traced, &dir.join("twins"), &mut t)?;
    drop(traced);
    t.part = "offline";
    let (pre_records, pre_unique, templates) = offline(spec, args, &dir, &mut t)?;

    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove run directory: {e}"))?;
    write_spans(&out_dir.join("spans.jsonl"), &t.spans)?;

    let m = layer_metrics(
        &t,
        &counts,
        &LayerInputs {
            untraced_s,
            traced_s,
            qhits,
            qmisses,
            exec,
            rtt_us: &rtt_us,
            queries: &phase.queries,
            pre_records,
            pre_unique,
            templates,
            shed: shed + shed_untraced,
        },
    );
    let summary = summary_text(&t, &counts, &m, untraced_s, traced_s);
    std::fs::write(out_dir.join("summary.txt"), &summary)
        .map_err(|e| format!("write summary: {e}"))?;
    let records: u64 = phase.ingest.iter().map(|s| s.records as u64).sum();
    print_descriptor(
        args,
        spec,
        inputs,
        records,
        &format!(
            ", \"replayed_batches\": {}, \"replayed_queries\": {}",
            seq.slots.len(),
            seq.queries.len()
        ),
    );
    print!("{summary}");
    println!("trace files: {}", out_dir.display());
    for failure in &counts.failures {
        println!("check failed: {failure}");
    }
    let attempted = (phase.ingest.len() + phase.queries.len() + HEALTHZ_SAMPLES + counts.checks)
        as u64
        + 2 * seq.slots.len() as u64;
    let failed = (http_failed + shed + shed_untraced + counts.failures.len()) as u64;
    print_result(&m, failed == 0, attempted, failed);
    Ok(failed == 0)
}

struct LayerInputs<'a> {
    untraced_s: f64,
    traced_s: f64,
    qhits: u64,
    qmisses: u64,
    exec: Option<(f64, u64)>,
    rtt_us: &'a [f64],
    queries: &'a [Timed<QuerySample>],
    pre_records: u64,
    pre_unique: u64,
    templates: usize,
    shed: usize,
}

/// Layers of the traced replay whose self times account for the untraced
/// replay's wall time. The twins break `engine.apply` down further; their
/// stages run in a separate pass, partly on parallel workers, so they are shown
/// beside it rather than summed into the attribution.
const ATTRIBUTED: [(&str, &str); 8] = [
    ("replay", "api.decode"),
    ("replay", "admission.submit"),
    ("replay", "admission.next_batch"),
    ("replay", "admission.complete"),
    ("replay", "engine.apply"),
    ("replay", "query.plan"),
    ("replay", "query.exec"),
    ("replay", "query.render"),
];

fn layer_metrics(t: &Tracer, c: &TwinCounts, x: &LayerInputs<'_>) -> Metrics {
    let mut m = Metrics::default();
    let ms = |name: &str| t.total_ms(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let records = c.records.max(1) as f64;
    m.push(
        "mask.busy_ms",
        ms("mask"),
        "ms",
        format!("Masker::mask_into over {} records", c.records),
    );
    m.push(
        "mask.ns_per_record",
        ms("mask") * 1e6 / records,
        "ns",
        "mean per record",
    );
    m.push(
        "tokenize.busy_ms",
        ms("tokenize"),
        "ms",
        "Tokenizer::tokenize_spans on masked lines",
    );
    m.push(
        "preprocess.busy_ms",
        ms("preprocess"),
        "ms",
        format!(
            "Preprocessor::preprocess over {} offline records",
            x.pre_records
        ),
    );
    m.push(
        "preprocess.dedup_ratio",
        ratio(x.pre_unique as f64, x.pre_records as f64),
        "ratio",
        "unique over total records after masking",
    );
    m.push(
        "train.busy_ms",
        ms("train"),
        "ms",
        format!("train_from_batch over {} corpora", t.count("train")),
    );
    m.push(
        "train.records_per_s",
        ratio(x.pre_records as f64, ms("train") / 1e3),
        "1/s",
        "offline records over train time",
    );
    m.push(
        "train.templates",
        x.templates as f64,
        "count",
        "model nodes over the offline corpora",
    );
    m.push(
        "match.busy_ms",
        ms("match"),
        "ms",
        "CompiledMatcher::match_view",
    );
    m.push(
        "match.unmatched_ratio",
        ratio(c.unmatched as f64, records),
        "ratio",
        "records no template matched",
    );
    m.push(
        "compile.busy_ms",
        ms("compile"),
        "ms",
        "LogTopic::compiled_snapshot refresh before each batch",
    );
    m.push(
        "automaton.dfa_states",
        c.dfa_states as f64,
        "count",
        "summed over tenants at the end",
    );
    let (hits, misses) = c
        .cache
        .values()
        .fold((0, 0), |(h, m), (a, b)| (h + a, m + b));
    let per_tenant: Vec<String> = c
        .cache
        .iter()
        .map(|(tenant, (h, mi))| format!("{tenant} {:.3}", ratio(*h as f64, (*h + *mi) as f64)))
        .collect();
    m.push(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
        format!(
            "MatchCache hits over probes; per tenant: {}",
            per_tenant.join(", ")
        ),
    );
    m.push(
        "stream.backpressure_waits",
        c.backpressure_waits as f64,
        "count",
        "StreamOutcome stats of the in-memory twin",
    );
    m.push(
        "stream.in_flight_hwm",
        c.in_flight_hwm as f64,
        "count",
        "max outstanding batches",
    );
    m.push(
        "stream.flushes",
        c.flushes as f64,
        "count",
        "shard flushes, all reasons",
    );
    let topic = ms("topic.ingest");
    m.push("topic.ingest_busy_ms", topic, "ms", "in-memory twin ingest");
    m.push(
        "topic.apply_residual_ms",
        topic - ms("mask") - ms("tokenize") - ms("match"),
        "ms",
        "in-memory twin minus mask, tokenize and match",
    );
    let wal = ms("wal.append");
    m.push(
        "wal.append_busy_ms",
        wal,
        "ms",
        "TopicStorage::append_record",
    );
    m.push(
        "seal.busy_ms",
        ms("durable.ingest") - topic - wal,
        "ms",
        "durable twin minus in-memory twin minus WAL append",
    );
    m.push(
        "storage.commits",
        c.commits as f64,
        "count",
        "commit points, one per batch",
    );
    m.push(
        "api.decode_busy_ms",
        ms("api.decode"),
        "ms",
        "IngestRequest JSON decode",
    );
    let admission_us =
        (ms("admission.submit") + ms("admission.next_batch") + ms("admission.complete")) * 1e3;
    m.push(
        "admission.busy_us",
        admission_us,
        "us",
        "Admission::submit + next_batch + complete",
    );
    m.push(
        "admission.shed",
        x.shed as f64,
        "count",
        "records shed in the replays",
    );
    m.push(
        "http.healthz_rtt_us",
        stats::median(x.rtt_us),
        "us",
        format!("median of {} GET /healthz", x.rtt_us.len()),
    );
    m.push(
        "engine.apply_busy_ms",
        ms("engine.apply"),
        "ms",
        format!(
            "server::apply_batch over {} batches",
            t.count("engine.apply")
        ),
    );
    m.push(
        "retrain.count",
        t.count("retrain") as f64,
        "count",
        "LogTopic::run_training on durable topics holding a first-cycle offline corpus",
    );
    m.push(
        "retrain.busy_ms",
        ms("retrain"),
        "ms",
        "LogTopic::run_training: train, re-match and checkpoint",
    );
    m.push(
        "query.plan_us",
        ms("query.plan") * 1e3,
        "us",
        format!("Query::plan over {} queries", t.count("query.plan")),
    );
    m.push(
        "query.exec_busy_ms",
        ms("query.exec"),
        "ms",
        "ServiceManager::execute",
    );
    m.push(
        "query.cache_hit_ratio",
        ratio(x.qhits as f64, (x.qhits + x.qmisses) as f64),
        "ratio",
        "query_cache_stats after the traced replay",
    );
    let service_ms: Vec<f64> = x
        .queries
        .iter()
        .map(|q| q.done.duration_since(q.started).as_secs_f64() * 1e3)
        .collect();
    let http_mean = if service_ms.is_empty() {
        0.0
    } else {
        service_ms.iter().sum::<f64>() / service_ms.len() as f64
    };
    let (exec_mean, exec_n) = x.exec.unwrap_or((0.0, 0));
    m.push(
        "query.wait_ms",
        http_mean - exec_mean,
        "ms",
        format!("mean HTTP query time minus mean server execution ({exec_n} queries in /metrics)"),
    );
    let late_ms: Vec<f64> = x
        .queries
        .iter()
        .map(|q| q.late().as_secs_f64() * 1e3)
        .collect();
    m.push(
        "loadgen.late_p99_ms",
        stats::percentile(&late_ms, 99.0),
        "ms",
        format!("p99 of {} start delays behind the due time", late_ms.len()),
    );
    let untraced_ms = x.untraced_s * 1e3;
    let attributed: f64 = layer_totals(&t.spans)
        .iter()
        .filter(|(key, _)| ATTRIBUTED.contains(key))
        .map(|(_, l)| l.self_ns as f64 / 1e6)
        .sum();
    m.push(
        "trace.untraced_ms",
        untraced_ms,
        "ms",
        "wall time of the untraced in-process replay",
    );
    m.push(
        "trace.attributed_share",
        ratio(attributed, untraced_ms),
        "ratio",
        "layer self times in the traced replay over the untraced replay's wall time",
    );
    m.push(
        "trace.unattributed_ms",
        x.traced_s * 1e3 - attributed,
        "ms",
        "traced replay wall time no layer span covers",
    );
    m.push(
        "trace.overhead_ms",
        (x.traced_s - x.untraced_s) * 1e3,
        "ms",
        "traced replay minus untraced replay",
    );
    m.push(
        "trace.overhead_share",
        ratio(x.traced_s - x.untraced_s, x.untraced_s),
        "ratio",
        "overhead over the untraced replay",
    );
    m
}

fn summary_text(t: &Tracer, c: &TwinCounts, m: &Metrics, untraced_s: f64, traced_s: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "layer summary (self time = span time minus child spans)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<22} {:>8} {:>12} {:>12}",
        "part", "layer", "spans", "total_ms", "self_ms"
    );
    for ((part, name), l) in layer_totals(&t.spans) {
        let _ = writeln!(
            out,
            "{part:<8} {name:<22} {:>8} {:>12.3} {:>12.3}",
            l.spans,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        );
    }
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    let _ = writeln!(out, "untraced replay wall: {:.3} ms", untraced_s * 1e3);
    let attributed = get("trace.attributed_share") * untraced_s * 1e3;
    let _ = writeln!(
        out,
        "attributed to layers: {attributed:.3} ms ({:.1}% of the untraced wall): api.decode + admission + engine.apply + query plan/exec/render",
        100.0 * get("trace.attributed_share"),
    );
    let twin_sum = get("compile.busy_ms")
        + get("topic.ingest_busy_ms")
        + get("wal.append_busy_ms")
        + get("seal.busy_ms");
    let _ = writeln!(
        out,
        "engine.apply {:.3} ms, broken down on the twins ({twin_sum:.3} ms): compile {:.1} + in-memory \
         ingest {:.1} (mask {:.1} + tokenize {:.1} + match {:.1} single-threaded, residual {:.1}) + WAL \
         {:.1} + seal {:.1}",
        get("engine.apply_busy_ms"),
        get("compile.busy_ms"),
        get("topic.ingest_busy_ms"),
        get("mask.busy_ms"),
        get("tokenize.busy_ms"),
        get("match.busy_ms"),
        get("topic.apply_residual_ms"),
        get("wal.append_busy_ms"),
        get("seal.busy_ms"),
    );
    let _ = writeln!(
        out,
        "unattributed: {:.3} ms of the traced replay outside every layer span \
         (untraced wall = attributed + unattributed - tracing overhead)",
        get("trace.unattributed_ms")
    );
    let _ = writeln!(
        out,
        "tracing overhead: {:.3} ms ({:.2}% of the untraced replay; traced replay {:.3} ms)",
        (traced_s - untraced_s) * 1e3,
        100.0 * get("trace.overhead_share"),
        traced_s * 1e3
    );
    for (tenant, (h, mi)) in &c.cache {
        let _ = writeln!(out, "cache {tenant}: {h} hits, {mi} misses");
    }
    out
}
