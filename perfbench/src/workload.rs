//! The workloads, and the seeded inputs each one runs on.
//!
//! The program under test only ever sees the generated records; labels and
//! template pools stay with the benchmark for scoring and for the workload
//! descriptor.

use datasets::{GeneratorConfig, LabeledDataset};
use service::api::IngestRequest;
use std::collections::HashSet;

/// Topic every tenant ingests into.
pub const TOPIC: &str = "logs";

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two connections post 8192-record batches to four trained tenants.
    BulkIngest,
    /// Offline train + match over families with very different template counts.
    ParseOffline,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 2] = [Kind::BulkIngest, Kind::ParseOffline];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BulkIngest => "bulk_ingest",
            Kind::ParseOffline => "parse_offline",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One tenant: its name and the LogHub-2.0 family its records come from.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant id in request paths.
    pub tenant: String,
    /// Generator family.
    pub family: &'static str,
}

/// Everything that shapes one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Tenants of the service phase, one topic each.
    pub tenants: Vec<TenantSpec>,
    /// Records per tenant ingested at set-up to cold-start train the tenant.
    pub warmup: usize,
    /// Records per ingest request.
    pub batch: usize,
    /// Closed-loop ingest connections.
    pub ingest_connections: usize,
    /// Queries of the open-loop probe that runs after each ingest slice, summed
    /// over the rounds.
    pub probe_queries: usize,
    /// Queries per second of that probe.
    pub probe_rate: f64,
    /// Index of the tenant every probe query goes to. One tenant keeps the
    /// probe's median and tail on the same data: tenants' query costs differ
    /// by up to three times, so over a mix the median would sit on the edge
    /// between two tenants' costs.
    pub probe_tenant: usize,
    /// Records per second the ingest phase is sized for. The phase sends
    /// `nominal_rps * ingest_seconds` records, which takes about the measured
    /// seconds on the 2-core reference machine; its duration is what is timed.
    pub nominal_rps: f64,
    /// Share of the measured seconds the ingest phase runs for: 1 where ingest
    /// is the focus, less where it follows the offline phase (`parse_offline`).
    pub ingest_share: f64,
    /// Records per family per offline parse cycle.
    pub parse_records: usize,
    /// Offline parse cycles (one corpus per family each) per round.
    pub parse_cycles: usize,
    /// When set, the offline phase is sized instead to take about the measured
    /// seconds at this many records per second (`parse_offline`).
    pub parse_nominal_rps: Option<f64>,
    /// Rounds per run. Each round runs an offline slice, an ingest slice and a
    /// query slice in turn; rates and medians are taken per round and the run
    /// reports their median, so a slow stretch of the machine moves one round
    /// rather than the run.
    pub rounds: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Reopens of the durable root per run; `recovery_s` is their median.
    pub recovery_repeats: usize,
}

/// A volume threshold no run reaches, so no inline retrain fires.
pub const NEVER_RETRAIN: u64 = 1 << 40;

fn tenants(families: &[&'static str]) -> Vec<TenantSpec> {
    families
        .iter()
        .enumerate()
        .map(|(i, family)| TenantSpec {
            tenant: format!("t{i}"),
            family,
        })
        .collect()
}

impl Spec {
    /// The full-size spec of a workload.
    pub fn full(kind: Kind) -> Spec {
        let base = Spec {
            kind,
            tenants: Vec::new(),
            warmup: 2_000,
            batch: 8_192,
            ingest_connections: 2,
            probe_queries: 80,
            probe_rate: 6.0,
            probe_tenant: 0,
            nominal_rps: 50_000.0,
            ingest_share: 1.0,
            parse_records: 2_000,
            parse_cycles: 1,
            parse_nominal_rps: None,
            rounds: 5,
            setup_repeats: 5,
            recovery_repeats: 5,
        };
        match kind {
            // HDFS is distinct-heavy (~0.98 distinct raw lines), HPC duplicate-heavy,
            // Mac brings 626 templates and Zookeeper lines collapse under masking.
            Kind::BulkIngest => Spec {
                tenants: tenants(&["HDFS", "HPC", "Mac", "Zookeeper"]),
                probe_tenant: 2,
                ..base
            },
            Kind::ParseOffline => Spec {
                tenants: tenants(&["Apache", "Mac"]),
                probe_tenant: 1,
                ingest_share: 0.35,
                parse_records: 6_000,
                parse_nominal_rps: Some(4_000.0),
                ..base
            },
        }
    }

    /// A seconds-long version of the spec for the benchmark's own tests.
    pub fn tiny(kind: Kind) -> Spec {
        let full = Spec::full(kind);
        Spec {
            warmup: 300,
            batch: full.batch.min(512),
            probe_queries: full.probe_queries.min(12),
            probe_rate: 50.0,
            nominal_rps: 4_000.0,
            parse_records: full.parse_records.min(600),
            parse_cycles: 1,
            parse_nominal_rps: None,
            rounds: 2,
            setup_repeats: 1,
            recovery_repeats: 1,
            ..full
        }
    }

    /// The tenants' families, each once: the offline phase parses these.
    pub fn parse_families(&self) -> Vec<&'static str> {
        let mut families: Vec<&'static str> = Vec::new();
        for tenant in &self.tenants {
            if !families.contains(&tenant.family) {
                families.push(tenant.family);
            }
        }
        families
    }

    /// Seconds the ingest phase runs for, given the measured seconds.
    pub fn ingest_seconds(&self, seconds: f64) -> f64 {
        self.ingest_share * seconds
    }

    /// Offline parse cycles per round, given the measured seconds.
    pub fn cycles_per_round(&self, seconds: f64) -> usize {
        match self.parse_nominal_rps {
            Some(rps) => {
                let per_cycle = (self.parse_records * self.parse_families().len()).max(1);
                let cycles = rps * seconds / (self.rounds.max(1) * per_cycle) as f64;
                (cycles.round() as usize).max(1)
            }
            None => self.parse_cycles.max(1),
        }
    }
}

/// SplitMix64: derives independent generator seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate `n` labelled records of `family`, keeping the family's full
/// LogHub-2.0 template pool however small `n` is.
pub fn generate(family: &str, n: usize, seed: u64) -> LabeledDataset {
    let full = datasets::dataset_spec(family)
        .and_then(|s| s.loghub2_templates)
        .unwrap_or(50);
    let mut data = LabeledDataset::generate(
        &GeneratorConfig::loghub2(family, n.max(full * 20)).with_seed(seed),
    );
    data.records.truncate(n);
    data.labels.truncate(n);
    data
}

/// One tenant's pre-generated inputs.
#[derive(Debug)]
pub struct TenantInputs {
    /// Tenant id.
    pub tenant: String,
    /// Cold-start training records.
    pub warmup: Vec<String>,
    /// The measured stream, as ready-to-send `IngestRequest` bodies.
    pub bodies: Vec<String>,
    /// Records in each body.
    pub body_records: Vec<usize>,
}

/// The workload descriptor stamped on every run's output.
#[derive(Debug, Clone, Default)]
pub struct Descriptor {
    /// Records the descriptor's ratios were computed over.
    pub sampled_records: usize,
    /// Distinct raw lines over sampled records.
    pub distinct_raw_ratio: f64,
    /// Distinct masked lines over sampled records.
    pub distinct_masked_ratio: f64,
    /// Sum of the template pools of every family in the run.
    pub templates: usize,
    /// Mean record length in bytes.
    pub mean_line_len: f64,
}

/// Every input of a run.
#[derive(Debug)]
pub struct Inputs {
    /// Per-tenant inputs of the service phase.
    pub tenants: Vec<TenantInputs>,
    /// Shape of the data.
    pub descriptor: Descriptor,
    /// Index of the tenant the probe queries go to ([`Spec::probe_tenant`]).
    pub probe_tenant: usize,
    /// Records that tenant has stored by the end of the first ingest slice
    /// (its warm-up plus its batches of that slice): the sequence range the
    /// probe queries' windows lie in.
    pub probe_span: u64,
}

/// Records per tenant the descriptor samples from the front of the stream.
const DESCRIPTOR_SAMPLE: usize = 20_000;

/// Generate the run's inputs from `seed`. The streams hold the ingest phase's
/// `nominal_rps * ingest_seconds` records, split evenly across tenants.
pub fn make_inputs(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
    let t = spec.tenants.len().max(1);
    let per_tenant = spec.nominal_rps * spec.ingest_seconds(seconds) / t as f64;
    let stream_batches = ((per_tenant / spec.batch as f64).ceil() as usize).max(1);
    let masker = logtok::Masker::default_rules();
    let mut raw_seen: HashSet<String> = HashSet::new();
    let mut masked_seen: HashSet<String> = HashSet::new();
    let mut sampled = 0usize;
    let mut bytes = 0usize;
    let mut templates = 0usize;
    let mut out = Vec::with_capacity(t);
    for (i, tenant) in spec.tenants.iter().enumerate() {
        let stream_len = stream_batches * spec.batch;
        let total = spec.warmup + stream_len;
        let data = generate(tenant.family, total, mix(seed, i as u64 + 1));
        templates += data.templates.len();
        let mut records = data.records.into_iter();
        let warmup: Vec<String> = records.by_ref().take(spec.warmup).collect();
        let stream: Vec<String> = records.collect();
        for record in stream.iter().take(DESCRIPTOR_SAMPLE) {
            sampled += 1;
            bytes += record.len();
            masked_seen.insert(masker.mask(record));
            raw_seen.insert(record.clone());
        }
        let mut bodies = Vec::with_capacity(stream_batches);
        let mut body_records = Vec::with_capacity(stream_batches);
        for chunk in stream.chunks(spec.batch) {
            let request = IngestRequest {
                records: chunk.to_vec(),
            };
            bodies.push(serde_json::to_string(&request).expect("ingest body renders"));
            body_records.push(chunk.len());
        }
        out.push(TenantInputs {
            tenant: tenant.tenant.clone(),
            warmup,
            bodies,
            body_records,
        });
    }
    let sampled_f = sampled.max(1) as f64;
    let first_slice = crate::stats::part(stream_batches * t, spec.rounds, 0).len() / t;
    let probe_tenant = spec.probe_tenant.min(t - 1);
    let probe_span = spec.warmup
        + out.get(probe_tenant).map_or(0, |tenant| {
            tenant.body_records[..first_slice].iter().sum::<usize>()
        });
    Inputs {
        probe_tenant,
        probe_span: probe_span as u64,
        tenants: out,
        descriptor: Descriptor {
            sampled_records: sampled,
            distinct_raw_ratio: raw_seen.len() as f64 / sampled_f,
            distinct_masked_ratio: masked_seen.len() as f64 / sampled_f,
            templates,
            mean_line_len: bytes as f64 / sampled_f,
        },
    }
}

/// One offline-parse corpus: a family's records with their labels.
#[derive(Debug)]
pub struct ParseCorpus {
    /// Raw records.
    pub records: Vec<String>,
    /// Ground-truth template of each record.
    pub labels: Vec<usize>,
}

/// The corpora of offline parse cycle `cycle`: one per family, fresh records
/// per cycle, derived from the run seed.
pub fn parse_cycle_corpora(spec: &Spec, seed: u64, cycle: usize) -> Vec<ParseCorpus> {
    spec.parse_families()
        .into_iter()
        .enumerate()
        .map(|(f, family)| {
            let data = generate(
                family,
                spec.parse_records,
                mix(seed, 1_000 + (cycle as u64) * 16 + f as u64),
            );
            ParseCorpus {
                records: data.records,
                labels: data.labels,
            }
        })
        .collect()
}
