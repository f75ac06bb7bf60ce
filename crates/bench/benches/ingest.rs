//! Micro-benchmarks of the ingestion paths: line-at-a-time `LogTopic::ingest`, batched
//! `LogTopic::ingest`, and the sharded streaming engine (`StreamIngestor`), plus the
//! underlying matcher fast paths (allocating vs. zero-copy scratch vs. pooled lean
//! batches), plus the query paths (per-record scan vs. indexed postings+ladder vs.
//! the LRU-cached indexed path) on a 100k-record topic, plus the match-engine
//! comparison (tree walker vs compiled automaton, cold vs line-cached) behind
//! `BENCH_ingest.json`. These are the measurements behind the "batched streaming
//! beats line-at-a-time", "indexed queries stop scanning records" and "the
//! automaton outruns the tree walk" claims — run with `cargo bench --bench ingest`.
//!
//! This bench has a custom `main`: after the timed runs it drains the harness's
//! measurement registry and writes the machine-readable `BENCH_ingest.json`
//! artifact (path override: `BYTEBRAIN_BENCH_OUT`) plus the composed-query
//! artifact `BENCH_query.json` (the `query_ast` group; override:
//! `BYTEBRAIN_BENCH_QUERY_OUT`). `BYTEBRAIN_BENCH_SMOKE=1` runs only the
//! engine-comparison and query-AST groups at reduced scale — CI uses it to
//! prove the artifact plumbing without paying for a full benchmark run.

use bytebrain::incremental::DriftConfig;
use bytebrain::matcher::{match_record, match_record_with_scratch, match_view};
use bytebrain::train::train;
use bytebrain::{CompiledMatcher, MatchCache, MatchEngine, ParserModel, Query, TrainConfig};
use criterion::{BatchSize, Criterion, Throughput};
use datasets::LabeledDataset;
use logtok::{Preprocessor, TokenScratch};
use service::{
    IngestConfig, LogTopic, MaintenancePolicy, QueryEngine, StreamIngestor, TopicConfig,
};
use std::sync::Arc;

const TRAIN_LINES: usize = 4_000;
const STREAM_LINES: usize = 16_000;

fn corpus() -> (Vec<String>, Vec<String>) {
    let ds = LabeledDataset::loghub2("Apache", TRAIN_LINES + STREAM_LINES);
    let (train_part, stream_part) = ds.records.split_at(TRAIN_LINES);
    (train_part.to_vec(), stream_part.to_vec())
}

/// A topic trained on the warm-up corpus, with a volume threshold high enough that the
/// measured ingestion never triggers retraining.
fn trained_topic(train_part: &[String]) -> LogTopic {
    let mut topic = LogTopic::new(TopicConfig::new("bench").with_volume_threshold(u64::MAX));
    topic.ingest(train_part);
    topic
}

fn bench_topic_ingest_paths(c: &mut Criterion) {
    let (train_part, stream_part) = corpus();
    let mut group = c.benchmark_group("topic_ingest");
    group.throughput(Throughput::Elements(stream_part.len() as u64));
    group.sample_size(10);

    group.bench_function("line_at_a_time", |b| {
        b.iter_batched(
            || trained_topic(&train_part),
            |mut topic| {
                for record in &stream_part {
                    topic.ingest(std::slice::from_ref(record));
                }
                topic.stats().total_records
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("batched_1024", |b| {
        b.iter_batched(
            || trained_topic(&train_part),
            |mut topic| {
                for chunk in stream_part.chunks(1_024) {
                    topic.ingest(chunk);
                }
                topic.stats().total_records
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("stream_4_shards", |b| {
        b.iter_batched(
            // Clone the corpus in setup (untimed): the competing rows borrow theirs.
            || (trained_topic(&train_part), stream_part.clone()),
            |(mut topic, records)| {
                let result = topic.ingest_stream(
                    records,
                    &IngestConfig::default()
                        .with_shards(4)
                        .with_batch_records(1_024),
                );
                result.outcome.matched
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

fn bench_matcher_paths(c: &mut Criterion) {
    let (train_part, stream_part) = corpus();
    let config = TrainConfig::default();
    let model: Arc<ParserModel> = Arc::new(train(&train_part, &config).model);
    let preprocessor = Arc::new(Preprocessor::new(config.preprocess.clone()));

    let mut group = c.benchmark_group("matcher");
    group.throughput(Throughput::Elements(stream_part.len() as u64));
    group.sample_size(10);

    group.bench_function("match_record_allocating", |b| {
        b.iter(|| {
            let mut matched = 0usize;
            for record in &stream_part {
                if match_record(&model, &preprocessor, record).is_matched() {
                    matched += 1;
                }
            }
            matched
        })
    });

    group.bench_function("match_record_scratch", |b| {
        b.iter(|| {
            let mut scratch = TokenScratch::new();
            let mut matched = 0usize;
            for record in &stream_part {
                if match_record_with_scratch(&model, &preprocessor, record, &mut scratch)
                    .is_matched()
                {
                    matched += 1;
                }
            }
            matched
        })
    });

    group.bench_function("match_view_zero_copy", |b| {
        b.iter(|| {
            let mut scratch = TokenScratch::new();
            let mut matched = 0usize;
            for record in &stream_part {
                let view = preprocessor.token_view(record, &mut scratch);
                if match_view(&model, &view).is_some() {
                    matched += 1;
                }
            }
            matched
        })
    });

    group.bench_function("stream_ingestor_4x4", |b| {
        b.iter(|| {
            let mut ingestor = StreamIngestor::new(
                Arc::clone(&model),
                Arc::clone(&preprocessor),
                IngestConfig::default()
                    .with_shards(4)
                    .with_workers(4)
                    .with_batch_records(1_024),
            );
            for record in &stream_part {
                ingestor.push(record.as_str());
            }
            ingestor.finish().matched()
        })
    });

    group.finish();
}

/// A drifting stream: the trained family early, a novel family ramping in late —
/// the workload where model maintenance policy dominates sustained throughput.
fn drifting_stream(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            // The second half progressively switches to a family the warm-up model
            // has never seen.
            if i * 2 > n && (i * 7) % 10 < 6 {
                format!(
                    "gpu worker {} evicted tensor block {} after {} allocations",
                    i % 8,
                    i % 500,
                    1 + i % 9_999
                )
            } else {
                format!(
                    "GET /static/asset-{}.js served {} bytes in {}us",
                    i % 64,
                    100 + i % 9_000,
                    i % 800
                )
            }
        })
        .collect()
}

/// Model maintenance under drift: full retrain (stop-the-world pauses at every
/// volume trigger, plus a re-match pass over everything stored) versus incremental
/// delta maintenance (drift-triggered folding of the unmatched buffer, stable node
/// ids, mid-stream hot swap). Same drifting stream, same volume trigger — the
/// throughput gap *is* the retrain pause disappearing from the trace.
fn bench_maintenance_under_drift(c: &mut Criterion) {
    let warm = drifting_stream(4_000)[..2_000].to_vec(); // trained family only
    let stream = drifting_stream(16_000);
    let mut group = c.benchmark_group("maintenance_drift");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    let ingest = IngestConfig::default()
        .with_shards(4)
        .with_workers(4)
        .with_batch_records(1_024);

    group.bench_function("full_retrain", |b| {
        b.iter_batched(
            || {
                let mut topic =
                    LogTopic::new(TopicConfig::new("drift-full").with_volume_threshold(4_000));
                topic.ingest(&warm);
                (topic, stream.clone())
            },
            |(mut topic, records)| {
                let result = topic.ingest_stream(records, &ingest);
                assert!(topic.stats().training_runs > 1, "retrain must have fired");
                result.outcome.matched
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("incremental", |b| {
        b.iter_batched(
            || {
                let mut topic = LogTopic::new(
                    TopicConfig::new("drift-inc")
                        .with_volume_threshold(4_000)
                        .with_maintenance(MaintenancePolicy::Incremental {
                            drift: DriftConfig::default(),
                            check_interval: 2_048,
                        }),
                );
                topic.ingest(&warm);
                (topic, stream.clone())
            },
            |(mut topic, records)| {
                let result = topic.ingest_stream(records, &ingest);
                let stats = topic.stats();
                assert_eq!(stats.training_runs, 1, "no stop-the-world retrain");
                assert!(stats.maintenance_runs >= 1, "maintenance must have fired");
                result.outcome.matched
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

/// The query paths on a 100k-record topic, each sweeping the full 10-stop threshold
/// slider (the production UI's interaction pattern). `scan` is the retained
/// per-record reference: every query walks every stored record's ancestor chain.
/// `indexed` aggregates per-node postings up the precomputed saturation ladder —
/// byte-identical output (enforced by the differential suite) without touching the
/// record store. `indexed_cached` adds the LRU result cache the serving path uses.
fn bench_query_paths(c: &mut Criterion) {
    const QUERY_TRAIN: usize = 4_000;
    const QUERY_RECORDS: usize = 100_000;
    let ds = LabeledDataset::loghub2("Apache", QUERY_TRAIN + QUERY_RECORDS);
    let (train_part, stream_part) = ds.records.split_at(QUERY_TRAIN);
    let mut topic = LogTopic::new(TopicConfig::new("query-bench").with_volume_threshold(u64::MAX));
    topic.ingest(train_part);
    let warmup = topic.records().len();
    for chunk in stream_part.chunks(8_192) {
        topic.ingest(chunk);
    }
    assert_eq!(topic.records().len() - warmup, QUERY_RECORDS);

    let thresholds: Vec<f64> = (0..10).map(|i| 0.05 + i as f64 * 0.1).collect();
    let plans: Vec<_> = thresholds
        .iter()
        .map(|&t| {
            Query::group_by()
                .at_threshold(t)
                .plan()
                .expect("valid plan")
        })
        .collect();
    let group_count = |value: service::QueryValue| value.groups().expect("groups plan").len();
    let mut group = c.benchmark_group("query");
    // Each iteration answers one full slider sweep (10 queries).
    group.throughput(Throughput::Elements(thresholds.len() as u64));
    group.sample_size(10);

    group.bench_function("scan_100k", |b| {
        let engine = QueryEngine::new(&topic);
        b.iter(|| {
            let mut total_groups = 0usize;
            for plan in &plans {
                total_groups += group_count(engine.execute_scan(plan));
            }
            total_groups
        })
    });

    group.bench_function("indexed_100k", |b| {
        // The snapshot path is the uncached indexed query (postings + ladder only).
        let snapshot = topic.query_snapshot();
        b.iter(|| {
            let mut total_groups = 0usize;
            for plan in &plans {
                total_groups += group_count(snapshot.execute(plan).expect("node-only plan"));
            }
            total_groups
        })
    });

    group.bench_function("indexed_cached_100k", |b| {
        b.iter(|| {
            let mut total_groups = 0usize;
            for plan in &plans {
                total_groups += group_count(topic.execute(plan));
            }
            total_groups
        })
    });

    group.finish();
}

/// A repetitive stream: `n` lines drawn from `distinct` exact line shapes, in a
/// scrambled but deterministic order — the workload class production log topics
/// overwhelmingly are, and the one the per-worker match cache targets.
fn repetitive_stream(n: usize, distinct: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let k = (i.wrapping_mul(2_654_435_761)) % distinct;
            format!(
                "GET /api/items/{} took {}ms user u{}",
                k % 40,
                (k * 7) % 900,
                k % 25
            )
        })
        .collect()
}

/// The match-engine comparison behind `BENCH_ingest.json`: the same stream
/// through (a) the tree walker, (b) the compiled automaton cold (every line
/// preprocessed + matched through the DFA), and (c) the automaton behind a
/// warm per-worker line cache. Rows are records/s; the
/// differential suite proves every engine produces byte-identical assignments,
/// so the rates are directly comparable.
fn bench_ingest_engines(c: &mut Criterion) {
    let smoke = smoke_mode();
    let (train_lines, lines) = if smoke { (600, 2_000) } else { (4_000, 16_000) };
    let ds = LabeledDataset::loghub2("Apache", train_lines);
    let mut warm = ds.records;
    // Make sure the bench stream's own shapes are trained in, so the rows
    // measure matching, not the unmatched slow path.
    warm.extend(repetitive_stream(train_lines, 512));
    let config = TrainConfig::default();
    let model = train(&warm, &config).model;
    let preprocessor = Preprocessor::new(config.preprocess.clone());
    let compiled = CompiledMatcher::compile(&model);
    let stream = repetitive_stream(lines, 512);

    let mut group = c.benchmark_group("ingest_engines");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(if smoke { 3 } else { 15 });

    group.bench_function("tree_walk", |b| {
        b.iter(|| {
            let mut scratch = TokenScratch::new();
            let mut matched = 0usize;
            for record in &stream {
                let view = preprocessor.token_view(record, &mut scratch);
                if match_view(&model, &view).is_some() {
                    matched += 1;
                }
            }
            matched
        })
    });

    // Cold path: every line preprocessed and matched through the DFA.
    group.bench_function("automaton", |b| {
        b.iter(|| {
            let mut scratch = TokenScratch::new();
            let mut matched = 0usize;
            for record in &stream {
                let view = preprocessor.token_view(record, &mut scratch);
                if compiled.match_view(&view).is_some() {
                    matched += 1;
                }
            }
            matched
        })
    });

    {
        let mut cache = MatchCache::default();
        let mut scratch = TokenScratch::new();
        // Warm the cache once (untimed): the row measures the steady state a
        // long-lived worker sees on a repetitive stream.
        for record in &stream {
            cache.match_record(&compiled, &preprocessor, &mut scratch, record);
        }
        group.bench_function("automaton_cached", |b| {
            b.iter(|| {
                let mut matched = 0usize;
                for record in &stream {
                    if cache
                        .match_record(&compiled, &preprocessor, &mut scratch, record)
                        .is_some()
                    {
                        matched += 1;
                    }
                }
                matched
            })
        });
        let (hits, misses) = cache.stats();
        assert!(
            hits > misses,
            "cached row must run hit-dominated ({hits} hits / {misses} misses)"
        );
    }

    // End-to-end topic rows: the full streaming engine (shards, batching,
    // worker pool, stats) under each engine config.
    for (name, engine) in [
        ("stream_tree_walk", MatchEngine::TreeWalk),
        ("stream_automaton", MatchEngine::Automaton),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut topic = LogTopic::new(
                        TopicConfig::new("engine-bench")
                            .with_volume_threshold(u64::MAX)
                            .with_match_engine(engine),
                    );
                    topic.ingest(&warm);
                    (topic, stream.clone())
                },
                |(mut topic, records)| {
                    let result = topic.ingest_stream(
                        records,
                        &IngestConfig::default()
                            .with_shards(4)
                            .with_workers(4)
                            .with_batch_records(1_024),
                    );
                    result.outcome.matched
                },
                BatchSize::PerIteration,
            )
        });
    }

    group.finish();
}

/// The composed-query path on a durable topic behind `BENCH_query.json`: a
/// selective variable-value query executed through (a) the planned push-down
/// path — per-segment column summaries prove most segments cannot contain the
/// value and skip them before any record is touched — (b) the naive scan
/// oracle, and (c) the serving path with the plan-fingerprint-keyed LRU cache
/// in front; plus the predicate-free `group_by` on both paths as the
/// no-pruning baseline. The rare value only occurs in the earliest slice of
/// the stream, so on the full run the summaries prune all but the first
/// segments — that gap *is* the push-down win the JSON records. The
/// differential suite proves planned ≡ scan byte-identically, so the rates
/// are directly comparable.
fn bench_query_ast(c: &mut Criterion, smoke: bool) {
    use bytebrain::{Predicate, Query};
    use service::{QueryValue, StorageConfig};

    let (train_lines, records, segment_records) = if smoke {
        (600, 4_000, 256)
    } else {
        (4_000, 100_000, 4_096)
    };

    // Auth-style records with real variables (user id, session). The rare user
    // appears only in the first 500 streamed records; everything later is
    // provably free of it, which is exactly what the segment summaries encode.
    let auth = |i: usize, rare: bool| -> String {
        let user = if rare {
            "u-rare".to_string()
        } else {
            format!("u{}", i % 40)
        };
        format!(
            "user {} logged {} from 10.0.{}.{} session s{}",
            user,
            if i.is_multiple_of(3) { "out" } else { "in" },
            i % 16,
            i % 250,
            i
        )
    };

    let dir = std::env::temp_dir().join(format!("bb-bench-query-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale bench dir");
    }
    let storage = StorageConfig::default()
        .with_segment_records(segment_records)
        .with_fsync(false);
    let mut topic = LogTopic::durable(
        TopicConfig::new("query-ast-bench").with_volume_threshold(u64::MAX),
        &dir,
        storage,
    )
    .expect("create durable bench topic");
    let warm: Vec<String> = (0..train_lines).map(|i| auth(i, false)).collect();
    topic.ingest(&warm);
    let stream: Vec<String> = (0..records).map(|i| auth(i, i < 500)).collect();
    for chunk in stream.chunks(8_192) {
        topic.ingest(chunk);
    }

    let selective = Query::distribution()
        .filter(Predicate::variable_equals("u-rare"))
        .plan()
        .expect("valid plan");
    let group_all = Query::group_by().plan().expect("valid plan");

    let engine = QueryEngine::new(&topic);
    // Sanity (untimed): the two paths agree, and the rare value really is in
    // the store — rates below measure identical, non-empty answers.
    let planned = engine.execute(&selective);
    assert_eq!(
        planned,
        engine.execute_scan(&selective),
        "planned path diverged from scan oracle"
    );
    let matched: u64 = match &planned {
        QueryValue::Distribution(counts) => counts.iter().map(|(_, c)| *c).sum(),
        other => panic!("distribution plan yields a distribution, got {other:?}"),
    };
    assert!(
        matched >= 400,
        "selective query must hit the rare slice ({matched} records)"
    );

    let mut group = c.benchmark_group("query_ast");
    group.throughput(Throughput::Elements(topic.records().len() as u64));
    group.sample_size(if smoke { 3 } else { 15 });

    group.bench_function("planned_selective", |b| {
        b.iter(|| engine.execute(&selective))
    });
    group.bench_function("scan_selective", |b| {
        b.iter(|| engine.execute_scan(&selective))
    });
    group.bench_function("planned_cached", |b| b.iter(|| topic.execute(&selective)));
    group.bench_function("planned_group_by", |b| {
        b.iter(|| engine.execute(&group_all))
    });
    group.bench_function("scan_group_by", |b| {
        b.iter(|| engine.execute_scan(&group_all))
    });

    group.finish();
    drop(topic);
    std::fs::remove_dir_all(&dir).ok();
}

fn smoke_mode() -> bool {
    std::env::var("BYTEBRAIN_BENCH_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Render one drained measurement set as a bench artifact document.
fn write_artifact(out: &str, kind: &str, smoke: bool, measurements: &[criterion::Measurement]) {
    use serde::Value;

    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            let mut fields = vec![
                (
                    "group".to_string(),
                    Value::String(m.group.clone().unwrap_or_default()),
                ),
                ("name".to_string(), Value::String(m.name.clone())),
                ("mean_ns".to_string(), Value::UInt(m.mean_ns as u64)),
                ("min_ns".to_string(), Value::UInt(m.min_ns as u64)),
            ];
            if let Some(rate) = m.elements_per_sec() {
                fields.push(("records_per_sec".to_string(), Value::Float(rate)));
            }
            Value::Object(fields)
        })
        .collect();
    let doc = Value::Object(vec![
        ("bench".to_string(), Value::String(kind.to_string())),
        (
            "mode".to_string(),
            Value::String(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("rows".to_string(), Value::Array(rows)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("bench rows serialize");
    std::fs::write(out, json + "\n").expect("write bench artifact");
    println!("[bench] wrote {out}");
}

/// Split the drained measurement registry into the `BENCH_ingest.json` and
/// `BENCH_query.json` artifacts (the `query_ast` group goes to the latter).
fn write_bench_json(smoke: bool) {
    // Anchor the defaults at the workspace root (bench binaries run with the
    // package dir as cwd), so the committed artifact paths are stable.
    let ingest_out = std::env::var("BYTEBRAIN_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_ingest.json", env!("CARGO_MANIFEST_DIR")));
    let query_out = std::env::var("BYTEBRAIN_BENCH_QUERY_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_query.json", env!("CARGO_MANIFEST_DIR")));
    let (query_rows, ingest_rows): (Vec<_>, Vec<_>) = criterion::take_measurements()
        .into_iter()
        .partition(|m| m.group.as_deref() == Some("query_ast"));
    write_artifact(&ingest_out, "ingest", smoke, &ingest_rows);
    write_artifact(&query_out, "query", smoke, &query_rows);
}

fn main() {
    let smoke = smoke_mode();
    let mut criterion = Criterion::default();
    bench_ingest_engines(&mut criterion);
    bench_query_ast(&mut criterion, smoke);
    if !smoke {
        bench_topic_ingest_paths(&mut criterion);
        bench_matcher_paths(&mut criterion);
        bench_maintenance_under_drift(&mut criterion);
        bench_query_paths(&mut criterion);
    }
    write_bench_json(smoke);
}
