//! The service phase: set-up, HTTP ingest and queries against a live server,
//! then shutdown, recovery and the correctness checks.

use crate::openloop::{self, Timed};
use crate::workload::{Inputs, Spec, NEVER_RETRAIN, TOPIC};
use bytebrain::{Predicate, Query};
use minihttp::ClientConn;
use server::{serve, LogServer, ServerConfig};
use service::api::{self, IngestResponse};
use service::{ServiceManager, StorageConfig, TenantDefaults};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Threshold the correctness checks compare distributions at.
pub const CHECK_THRESHOLD: f64 = 0.5;

/// A failed step of the service phase.
pub type Error = String;

/// Build a durable manager at `root` and bring every tenant to serving state:
/// cold-start training on its warm-up records. The volume threshold is above
/// any run's volume, so no inline retrain fires afterwards.
pub fn build_manager(inputs: &Inputs, root: &Path) -> Result<ServiceManager, Error> {
    let mut manager = ServiceManager::durable(root, StorageConfig::default())
        .map_err(|e| format!("create durable root: {e}"))?;
    for tenant in &inputs.tenants {
        manager.set_tenant_defaults(
            &tenant.tenant,
            TenantDefaults {
                volume_threshold: NEVER_RETRAIN,
                ..TenantDefaults::default()
            },
        );
        let outcome = manager.ingest(&tenant.tenant, TOPIC, &tenant.warmup);
        if !outcome.trained {
            return Err(format!("tenant {} did not train at set-up", tenant.tenant));
        }
    }
    Ok(manager)
}

/// One timed set-up: create the manager, train every tenant, start serving and
/// answer a health check. Returns the server and the seconds it took.
pub fn setup(inputs: &Inputs, root: &Path) -> Result<(LogServer, f64), Error> {
    settle_disk();
    let started = Instant::now();
    let manager = build_manager(inputs, root)?;
    let server = serve(manager, ServerConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let mut conn = connect(&server)?;
    let health = conn
        .request("GET", "/healthz", b"")
        .map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz answered {}", health.status));
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Write back every dirty page the system holds, so that writeback left by
/// earlier work (a previous run's segments, this run's set-up or ingest) does
/// not compete with the phase that follows. Never timed.
pub fn settle_disk() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments, has no preconditions and cannot fail.
    unsafe { sync() }
}

/// Open a keep-alive client connection to `server`.
pub fn connect(server: &LogServer) -> Result<ClientConn, Error> {
    ClientConn::connect(server.addr()).map_err(|e| format!("connect: {e}"))
}

/// One acknowledged (or failed) ingest request.
#[derive(Debug, Clone, Default)]
pub struct IngestSample {
    /// Request latency in milliseconds.
    pub latency_ms: f64,
    /// Records sent.
    pub records: usize,
    /// Records the server accepted.
    pub accepted: u64,
    /// Records the server shed.
    pub shed: u64,
    /// Whether the response was a well-formed success for every record sent.
    pub ok: bool,
    /// Global batch slot the request carried.
    pub slot: usize,
    /// When the response arrived.
    pub done: Option<Instant>,
}

/// One open-loop query.
#[derive(Debug, Clone)]
pub struct QuerySample {
    /// Whether the response was a 200 carrying valid JSON.
    pub ok: bool,
    /// Index of the [`probe_plan`] sent.
    pub plan: usize,
}

/// Everything the ingest phase observed.
#[derive(Debug, Default)]
pub struct IngestPhase {
    /// Ingest requests, in completion order per connection.
    pub ingest: Vec<IngestSample>,
    /// The open-loop probe queries sent after the slice.
    pub queries: Vec<Timed<QuerySample>>,
    /// Seconds from the start of the phase to the last ingest acknowledgement.
    pub window_s: f64,
}

/// Tenant and body index of global batch slot `slot`: tenants take turns.
pub fn slot_request(inputs: &Inputs, slot: usize) -> (usize, usize) {
    let t = inputs.tenants.len();
    (slot % t, slot / t)
}

/// Batch slots in the run's stream: every tenant's bodies, once.
pub fn slot_count(inputs: &Inputs) -> usize {
    inputs
        .tenants
        .iter()
        .map(|t| t.bodies.len())
        .min()
        .unwrap_or(0)
        * inputs.tenants.len()
}

fn post_ingest(conn: &mut ClientConn, inputs: &Inputs, slot: usize) -> IngestSample {
    let (tenant, index) = slot_request(inputs, slot);
    let t = &inputs.tenants[tenant];
    let path = format!("/v1/{}/{}/ingest", t.tenant, TOPIC);
    let records = t.body_records[index];
    let started = Instant::now();
    let response = conn.request_with_headers(
        "POST",
        &path,
        &[("Content-Type", "application/json")],
        t.bodies[index].as_bytes(),
    );
    let done = Instant::now();
    let mut sample = IngestSample {
        latency_ms: (done - started).as_secs_f64() * 1e3,
        records,
        slot,
        done: Some(done),
        ..IngestSample::default()
    };
    if let Ok(response) = response {
        if response.status == 200 {
            if let Ok(body) = serde_json::from_str::<IngestResponse>(&response.body_str()) {
                sample.accepted = body.accepted;
                sample.shed = body.shed;
                sample.ok = body.accepted + body.shed == records as u64 && body.shed == 0;
            }
        }
    }
    sample
}

/// Probe query `i`: the template `distribution` of the probe tenant's
/// ([`Inputs::probe_tenant`]) records in one window of sequence numbers, a
/// dashboard's "what happened in this time range" query. The window is one
/// whole storage segment (`StorageConfig::segment_records`) among those the
/// tenant sealed by the end of the first ingest slice ([`Inputs::probe_span`]),
/// so every probe query does the same work in every round: the other segments
/// are pruned, and the window's records plus the unsealed tail have their
/// variables extracted and are checked against the window. Each query has its
/// own threshold, so none is answered from the result cache.
pub fn probe_plan(inputs: &Inputs, i: usize) -> (usize, Query) {
    let segment = StorageConfig::default().segment_records as u64;
    let sealed = inputs.probe_span / segment;
    let (start, len) = if sealed > 0 {
        ((spread(i) * sealed as f64) as u64 * segment, segment)
    } else {
        (0, inputs.probe_span.max(1))
    };
    (
        inputs.probe_tenant,
        Query::distribution()
            .at_threshold(0.15 + 0.7 * spread(i))
            .filter(Predicate::time_window(start, start + len)),
    )
}

/// Low-discrepancy points in [0, 1): distinct for distinct `i`.
fn spread(i: usize) -> f64 {
    (i as f64 * 0.618_033_988_749_895) % 1.0
}

/// Render a query request body.
pub fn query_body(query: &Query) -> String {
    format!(
        "{{\"topic\":{},\"query\":{}}}",
        serde_json::to_string(&TOPIC.to_string()).expect("topic renders"),
        api::query_to_json(query)
    )
}

fn post_query(
    conn: &mut ClientConn,
    inputs: &Inputs,
    query: &Query,
    tenant: usize,
) -> Option<String> {
    let path = format!("/v1/{}/query", inputs.tenants[tenant].tenant);
    let response = conn
        .request_with_headers(
            "POST",
            &path,
            &[("Content-Type", "application/json")],
            query_body(query).as_bytes(),
        )
        .ok()?;
    let body = response.body_str();
    (response.status == 200 && serde_json::parse_value(&body).is_ok()).then_some(body)
}

/// Batch slots of round `round`: the stream's slots split into
/// [`Spec::rounds`] contiguous runs.
pub fn round_slots(spec: &Spec, inputs: &Inputs, round: usize) -> Range<usize> {
    crate::stats::part(slot_count(inputs), spec.rounds, round)
}

/// Run one ingest slice: `ingest_connections` closed-loop clients post the
/// batches of `slots` until every one is sent, or until three times their
/// share of [`Spec::ingest_seconds`] have passed.
pub fn ingest_phase(
    server: &LogServer,
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    slots: Range<usize>,
) -> Result<IngestPhase, Error> {
    let share = slots.len() as f64 / slot_count(inputs).max(1) as f64;
    let next_slot = AtomicUsize::new(slots.start);
    let slots = slots.end;
    let mut conns = Vec::new();
    for _ in 0..spec.ingest_connections {
        conns.push(connect(server)?);
    }
    settle_disk();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(3.0 * share * spec.ingest_seconds(seconds));
    let ingest = std::thread::scope(|scope| {
        let clients: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let next_slot = &next_slot;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    while Instant::now() < end {
                        let slot = next_slot.fetch_add(1, Ordering::SeqCst);
                        if slot >= slots {
                            break;
                        }
                        let sample = post_ingest(&mut conn, inputs, slot);
                        let ok = sample.ok;
                        samples.push(sample);
                        if !ok {
                            break;
                        }
                    }
                    samples
                })
            })
            .collect();
        let mut ingest = Vec::new();
        for client in clients {
            ingest.extend(client.join().expect("ingest client thread panicked"));
        }
        ingest
    });
    let last = ingest.iter().filter_map(|s| s.done).max().unwrap_or(start);
    Ok(IngestPhase {
        window_s: (last - start).as_secs_f64(),
        ingest,
        queries: Vec::new(),
    })
}

/// The open-loop query probe run once an ingest slice has stopped: `count`
/// distinct [`probe_plan`]s, from plan `first` on, at `probe_rate` per second
/// on one connection.
pub fn query_probe(
    server: &LogServer,
    spec: &Spec,
    inputs: &Inputs,
    first: usize,
    count: usize,
) -> Result<Vec<Timed<QuerySample>>, Error> {
    let mut conn = connect(server)?;
    let interval = Duration::from_secs_f64(1.0 / spec.probe_rate);
    settle_disk();
    let start = Instant::now();
    Ok(openloop::run(
        start,
        interval,
        count,
        |_| true,
        |i| {
            let (tenant, query) = probe_plan(inputs, first + i);
            QuerySample {
                ok: post_query(&mut conn, inputs, &query, tenant).is_some(),
                plan: first + i,
            }
        },
    ))
}

/// What the checks after shutdown found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Human-readable failures; empty when everything held.
    pub failures: Vec<String>,
    /// Checks made.
    pub checks: usize,
    /// Median seconds of `ServiceManager::open` on the durable root.
    pub recovery_s: f64,
    /// Records stored across tenants after shutdown.
    pub stored_records: u64,
    /// Retrains that ran across tenants (set-up training excluded).
    pub retrains: u64,
}

/// What the recovery check compares per tenant: stored records and the
/// template distribution.
type TenantState = (u64, Option<Vec<(String, u64)>>);

fn snapshot_of(manager: &ServiceManager, inputs: &Inputs) -> Vec<TenantState> {
    inputs
        .tenants
        .iter()
        .map(|t| {
            let records = manager
                .topic(&t.tenant, TOPIC)
                .map(|topic| topic.stats().total_records)
                .unwrap_or(0);
            (
                records,
                manager.template_distribution(&t.tenant, TOPIC, CHECK_THRESHOLD),
            )
        })
        .collect()
}

/// Final HTTP query, graceful shutdown, the accepted-count, byte-identity and
/// recovery checks, and the timed reopens.
pub fn shutdown_and_check(
    server: LogServer,
    spec: &Spec,
    inputs: &Inputs,
    root: &Path,
    phase: &IngestPhase,
) -> Checked {
    let mut checked = Checked::default();

    // A final query over HTTP, compared byte for byte below.
    let final_query = Query::distribution().at_threshold(CHECK_THRESHOLD);
    let over_http = match connect(&server) {
        Ok(mut conn) => post_query(&mut conn, inputs, &final_query, 0),
        Err(_) => None,
    };
    let manager = server.shutdown();

    let expected = final_query
        .clone()
        .plan()
        .ok()
        .and_then(|plan| manager.execute(&inputs.tenants[0].tenant, TOPIC, &plan))
        .map(|value| api::query_value_to_json(&value));
    fail(
        &mut checked,
        over_http.is_some() && over_http == expected,
        "final HTTP query differs from execute + query_value_to_json on the shut-down manager"
            .into(),
    );

    // Accepted counts: client view against records sent and against the store.
    let sent: u64 = phase.ingest.iter().map(|s| s.records as u64).sum();
    let shed: u64 = phase.ingest.iter().map(|s| s.shed).sum();
    let accepted: u64 = phase.ingest.iter().map(|s| s.accepted).sum();
    fail(
        &mut checked,
        accepted == sent - shed,
        format!("accepted {accepted} != sent {sent} - shed {shed}"),
    );
    let live = snapshot_of(&manager, inputs);
    let setup_records = (spec.warmup * inputs.tenants.len()) as u64;
    let stored: u64 = live.iter().map(|(n, _)| n).sum();
    checked.stored_records = stored;
    fail(
        &mut checked,
        stored == setup_records + accepted,
        format!("stored {stored} != set-up {setup_records} + accepted {accepted}"),
    );
    checked.retrains = manager
        .topic_stats()
        .iter()
        .map(|(_, stats)| stats.training_runs.saturating_sub(1))
        .sum();
    drop(manager);

    // Recovery: reopen the durable root and compare with the live manager.
    let mut opens = Vec::new();
    for _ in 0..spec.recovery_repeats.max(1) {
        settle_disk();
        let started = Instant::now();
        match ServiceManager::open(root) {
            Ok(reopened) => {
                opens.push(started.elapsed().as_secs_f64());
                let recovered = snapshot_of(&reopened, inputs);
                let same = recovered == live;
                fail(
                    &mut checked,
                    same,
                    "reopened root differs from the live manager in record counts or distribution"
                        .into(),
                );
            }
            Err(e) => fail(&mut checked, false, format!("reopen failed: {e}")),
        }
    }
    checked.recovery_s = crate::stats::median(&opens);
    checked
}

fn fail(checked: &mut Checked, ok: bool, what: String) {
    checked.checks += 1;
    if !ok {
        checked.failures.push(what);
    }
}

/// A fresh directory for one set-up under the run's scratch directory.
pub fn setup_root(run_dir: &Path, index: usize) -> PathBuf {
    run_dir.join(format!("root-{index}"))
}
