//! The serving phase: a model learned from the first share of the
//! measurement columns is served through `SglServer` + `NetServer` and
//! driven by an open-loop schedule of `POST /resistances` queries, while
//! a periodic stream of `POST /ingest` + `POST /flush` batches feeds the
//! remaining columns to the writer.
//!
//! Every answered query is kept with the snapshot version that answered
//! it and, after the phase, re-computed with `GraphSnapshot::resistances`
//! on that version's pinned snapshot; answers must match bit for bit.
//!
//! A traced run adds an in-process phase on a second, identical server
//! (`ServeHandle::resistances` and `SglServer::ingest`/`flush` on the
//! same schedule) and an uncontended snapshot solve, which split the
//! HTTP latency into its serving and network shares.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sgl_core::{Measurements, SglSession};
use sgl_graph::Graph;
use sgl_net::server::loopback;
use sgl_net::{client, json, NetOptions, NetServer, NetStats};
use sgl_serve::{GraphSnapshot, ServeHandle, ServeOptions, ServeStats, SglServer};

use crate::calib;
use crate::inputs::{fingerprint, Shuffle};
use crate::learn::{probe_graph, LearnSpec};
use crate::pin;
use crate::stats::{self, LatencySummary, Timing};

/// Client-side timeout of one HTTP exchange; a failed request counts as
/// a miss at this latency.
pub const MISS_MS: f64 = 10_000.0;
/// Node pairs per query.
pub const PAIRS_PER_QUERY: usize = 4;
/// Distinct queries in the round-robin pool.
pub const QUERY_POOL: usize = 32;

/// How one workload serves.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Measurement columns in the initial model.
    pub initial_cols: usize,
    /// Columns available to ingest (one per batch): warm-up, then the
    /// write-only segment, then the stream beside the queries.
    pub ingest_cols: usize,
    /// Fixed open-loop rate of the measured query phase.
    pub rate_qps: f64,
    /// Length of the read-only fixed-rate phase.
    pub fixed_s: f64,
    /// Length of the same schedule run again beside an ingest stream
    /// (0: not run).
    pub mixed_s: f64,
    /// First rate the SLO search tries.
    pub slo_start_qps: f64,
    /// Time budget of the SLO search (split evenly over its levels).
    pub slo_budget_s: f64,
    /// Set-up repetitions (median reported).
    pub setups: usize,
}

/// Iteration cap of the served model's initial learn (under-fitted on
/// purpose, so ingested columns keep adding edges).
const MODEL_ITERATIONS: usize = 6;
/// Period of the ingest stream beside the queries of a mixed plan.
pub const INGEST_PERIOD_S: f64 = 0.75;
/// p99 limit of the SLO search.
pub const SLO_LIMIT_MS: f64 = 100.0;

/// SLO search shape: ramp factor and level cap, then bisection steps.
const SLO_GROWTH: f64 = 1.4;
const SLO_RAMP_LEVELS: usize = 4;
const SLO_BISECT: usize = 1;
const SLO_MAX_RATE: f64 = 20_000.0;

impl ServePlan {
    /// The model's learning spec: the workload's strategy on one thread
    /// (the writer keeps to one core, the readers get the rest), no
    /// convergence test, capped iterations.
    pub fn model_spec(&self, base: &LearnSpec) -> LearnSpec {
        LearnSpec {
            threads: 1,
            tol: 0.0,
            max_iterations: MODEL_ITERATIONS,
            probe_every_step: false,
            ..base.clone()
        }
    }

    fn slo_level_s(&self) -> f64 {
        // Two of the levels are typically confirmed failures (run twice).
        (self.slo_budget_s / (SLO_RAMP_LEVELS + SLO_BISECT + 2) as f64).max(0.5)
    }
}

/// One scheduled request: its index, its timing and how it ended.
type Outcome = (usize, Timing, Reply);

/// How one request ended.
#[derive(Debug, Clone)]
pub enum Reply {
    Ok { version: u64, values: Vec<f64> },
    Shed,
    ServerError,
    ClientError,
    Timeout,
    ConnError,
}

/// Request accounting of one phase (or several, summed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub sent: usize,
    pub ok: usize,
    pub shed: usize,
    pub server_error: usize,
    pub client_error: usize,
    pub timeout: usize,
    pub conn_error: usize,
}

impl Counts {
    fn add(&mut self, r: &Reply) {
        self.sent += 1;
        match r {
            Reply::Ok { .. } => self.ok += 1,
            Reply::Shed => self.shed += 1,
            Reply::ServerError => self.server_error += 1,
            Reply::ClientError => self.client_error += 1,
            Reply::Timeout => self.timeout += 1,
            Reply::ConnError => self.conn_error += 1,
        }
    }

    pub fn failed(&self) -> usize {
        self.sent - self.ok
    }
}

/// One served model instance.
struct Served {
    server: SglServer,
    setup_s: f64,
    learn_s: f64,
    v0: Arc<GraphSnapshot>,
}

/// Learn the initial model and start serving it (not yet on the
/// network). Returns the timings the set-up metric is made of.
fn start_server(spec: &LearnSpec, initial: &Measurements) -> Result<Served, String> {
    let owned = initial.clone();
    let t = Instant::now();
    let mut session =
        SglSession::from_owned(spec.config(), owned).map_err(|e| format!("serve session: {e}"))?;
    let l = Instant::now();
    session
        .run_to_completion()
        .map_err(|e| format!("initial learn: {e}"))?;
    let learn_s = l.elapsed().as_secs_f64();
    let server =
        SglServer::new(session, ServeOptions::default()).map_err(|e| format!("server: {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();
    let v0 = server.handle().snapshot();
    Ok(Served {
        server,
        setup_s,
        learn_s,
        v0,
    })
}

/// Run an open-loop schedule: request `i` is due at `i / rate` seconds,
/// requests are dealt round-robin to `generators` threads, and each is
/// timed from its due time.
fn open_loop(
    rate: f64,
    seconds: f64,
    generators: usize,
    send: &(dyn Fn(usize) -> Reply + Sync),
) -> Vec<Outcome> {
    let total = ((rate * seconds).round() as usize).max(1);
    let generators = generators.max(1);
    let start = Instant::now();
    let mut out: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..generators)
            .map(|g| {
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(total / generators + 1);
                    for i in (g..total).step_by(generators) {
                        let due = i as f64 / rate;
                        let now = start.elapsed().as_secs_f64();
                        if due > now {
                            std::thread::sleep(Duration::from_secs_f64(due - now));
                        }
                        let sent = start.elapsed().as_secs_f64();
                        let reply = send(i);
                        let done = start.elapsed().as_secs_f64();
                        let ok = matches!(reply, Reply::Ok { .. });
                        mine.push((
                            i,
                            Timing {
                                due,
                                sent,
                                done,
                                ok,
                            },
                            reply,
                        ));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    out.sort_by_key(|(i, _, _)| *i);
    out
}

/// Segments of a fixed-rate phase; each is scaled by its own factor.
const FIXED_SEGMENTS: usize = 10;

/// An open-loop schedule split into `segments` consecutive schedules
/// (request indices continue from `first`), each run through `measure`,
/// which returns the segment's outcomes and its scale factor. Returns
/// the raw outcomes, the timings with latency and lateness scaled by
/// their segment's factor, and the factors.
fn segmented_loop(
    rate: f64,
    seconds: f64,
    generators: usize,
    segments: usize,
    first: usize,
    send: &(dyn Fn(usize) -> Reply + Sync),
    measure: &dyn Fn(&dyn Fn() -> Vec<Outcome>) -> (Vec<Outcome>, f64),
) -> (Vec<Outcome>, Vec<Timing>, Vec<f64>) {
    let mut raw = Vec::new();
    let mut scaled = Vec::new();
    let mut factors = Vec::new();
    let mut next = first;
    for _ in 0..segments.max(1) {
        let base = next;
        let shifted = |i: usize| send(base + i);
        let (part, k) =
            measure(&|| open_loop(rate, seconds / segments.max(1) as f64, generators, &shifted));
        for (i, t, r) in part {
            scaled.push(Timing {
                sent: t.due + (t.sent - t.due) * k,
                done: t.due + (t.done - t.due) * k,
                ..t
            });
            next = next.max(base + i + 1);
            raw.push((base + i, t, r));
        }
        factors.push(k);
    }
    (raw, scaled, factors)
}

/// A calibrated open-loop schedule: each segment is bracketed by the
/// host-speed calibration (see `calib`).
fn calibrated_loop(
    rate: f64,
    seconds: f64,
    generators: usize,
    segments: usize,
    first: usize,
    send: &(dyn Fn(usize) -> Reply + Sync),
) -> (Vec<Outcome>, Vec<Timing>, Vec<f64>) {
    segmented_loop(rate, seconds, generators, segments, first, send, &|run| {
        let (part, k) = calib::calibrated(1, run);
        (part, k.one)
    })
}

/// A pinned open-loop schedule: the whole process runs pinned to one CPU
/// (see `pin`), and each segment's times are scaled by the share of its
/// wall time the hypervisor left to that CPU and by the host-speed
/// calibration, which the pin places on the same CPU. Returns also the
/// CPU; when pinning is unavailable the schedule runs unpinned and is
/// only calibrated.
fn pinned_loop(
    rate: f64,
    seconds: f64,
    generators: usize,
    segments: usize,
    send: &(dyn Fn(usize) -> Reply + Sync),
) -> (Vec<Outcome>, Vec<Timing>, Vec<f64>, Option<usize>) {
    let pinned = pin::Pinned::lowest_cpu();
    let (raw, scaled, factors) =
        segmented_loop(rate, seconds, generators, segments, 0, send, &|run| {
            let bracket = calib::Bracket::open(1);
            let (part, share) = pin::unstolen(pinned.as_ref(), run);
            (part, share * bracket.close().one)
        });
    (raw, scaled, factors, pinned.map(|p| p.cpu))
}

fn classify(result: Result<client::HttpReply, String>) -> Reply {
    match result {
        Ok(reply) => match reply.status {
            200 => {
                let parsed = reply.json().ok().and_then(|j| {
                    let version = j.get("version")?.as_f64()? as u64;
                    let values = j
                        .get("resistances")?
                        .as_array()?
                        .iter()
                        .map(json::Json::as_f64)
                        .collect::<Option<Vec<f64>>>()?;
                    Some(Reply::Ok { version, values })
                });
                parsed.unwrap_or(Reply::ClientError)
            }
            429 => Reply::Shed,
            s if s >= 500 => Reply::ServerError,
            _ => Reply::ClientError,
        },
        Err(msg) if msg.contains("timed out") || msg.contains("temporarily unavailable") => {
            Reply::Timeout
        }
        Err(_) => Reply::ConnError,
    }
}

fn pairs_body(pairs: &[(usize, usize)]) -> String {
    let rows: Vec<String> = pairs.iter().map(|(s, t)| format!("[{s},{t}]")).collect();
    format!("{{\"pairs\":[{}]}}", rows.join(","))
}

fn column_body(col: &[f64]) -> String {
    format!("{{\"columns\":[{}]}}", json::f64_array(col))
}

/// Pinned snapshot of every version seen, for the post-phase check.
type Versions = Arc<Mutex<BTreeMap<u64, Arc<GraphSnapshot>>>>;

/// Ingest batches absorbed before any measured traffic: query cost
/// climbs over the first few delta-updated versions and then levels off,
/// so the measured phases start on the plateau.
pub const WARMUP_INGESTS: usize = 4;
/// Batches of the write-only segment after the fixed-rate phase.
pub const ISOLATED_INGESTS: usize = 20;

/// Feed `columns` one batch per `period_s` (back to back at 0) until
/// they run out or `stop` is raised. `push` sends one column and waits
/// until it is served. Returns each republished batch's freshness and
/// the failures; every version seen is pinned in `versions`. Back-to-back
/// batches (nothing else running) are each bracketed by the host-speed
/// calibration and returned scaled.
fn ingest_stream(
    columns: &[Vec<f64>],
    period_s: f64,
    stop: &AtomicBool,
    handle: &ServeHandle,
    versions: &Versions,
    push: &(dyn Fn(&[f64]) -> Result<(), String> + Sync),
) -> (Vec<f64>, usize) {
    let start = Instant::now();
    let mut fresh = Vec::new();
    let mut failures = 0usize;
    for (k, col) in columns.iter().enumerate() {
        let due = (k + 1) as f64 * period_s;
        while start.elapsed().as_secs_f64() < due {
            if stop.load(Ordering::Relaxed) {
                return (fresh, failures);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let before = handle.version();
        let bracket = (period_s == 0.0).then(|| calib::Bracket::open(1));
        let t = Instant::now();
        let pushed = push(col);
        let took = t.elapsed().as_secs_f64() * bracket.map_or(1.0, |b| b.close().one);
        match pushed {
            Ok(()) => {
                let snap = handle.snapshot();
                if snap.version() == before + 1 {
                    fresh.push(took);
                } else {
                    failures += 1;
                }
                versions
                    .lock()
                    .expect("versions lock")
                    .insert(snap.version(), snap);
            }
            Err(_) => failures += 1,
        }
    }
    (fresh, failures)
}

/// One traffic phase: warm-up ingests, the read-only fixed-rate query
/// schedule, for a mixed plan the same schedule again beside the ingest
/// stream, a write-only segment of back-to-back ingests, and optionally
/// the read-only SLO search.
struct Traffic {
    fixed: Vec<Outcome>,
    /// The fixed-rate timings scaled by their segment's factor.
    fixed_scaled: Vec<Timing>,
    /// Scale factor of the fixed-rate phase (median of segments).
    fixed_scale: f64,
    /// The CPU the fixed-rate phase ran on (`None`: unpinned).
    pinned_cpu: Option<usize>,
    /// The schedule beside the ingest stream (mixed plans only), raw
    /// and scaled.
    mixed: Vec<Outcome>,
    mixed_scaled: Vec<Timing>,
    slo: Vec<Vec<Outcome>>,
    /// SLO rate in reference-host terms (raw rate over the levels'
    /// median factor).
    slo_rate: f64,
    slo_bounded: bool,
    slo_levels: Vec<(f64, f64)>,
    /// Freshness of the back-to-back batches (scaled).
    fresh: Vec<f64>,
    /// Freshness of the batches sent beside the queries (scaled by that
    /// phase's median host-speed factor).
    mixed_fresh: Vec<f64>,
    ingested: usize,
    ingest_failures: usize,
}

fn drive(
    plan: &ServePlan,
    search: bool,
    columns: &[Vec<f64>],
    handle: &ServeHandle,
    versions: &Versions,
    send: &(dyn Fn(usize) -> Reply + Sync),
    push: &(dyn Fn(&[f64]) -> Result<(), String> + Sync),
) -> Traffic {
    let never = AtomicBool::new(false);
    let (warm, measured) = columns.split_at(WARMUP_INGESTS.min(columns.len()));
    let (warmed, warm_failures) = ingest_stream(warm, 0.0, &never, handle, versions, push);
    // The reported latency comes from a read-only phase: beside the
    // ingest stream the median jumped between two modes (about 4.5 and
    // 8 ms on the mesh model) from run to run.
    let (fixed, fixed_scaled, factors, pinned_cpu) = pinned_loop(
        plan.rate_qps,
        plan.fixed_s,
        crate::nproc(),
        FIXED_SEGMENTS,
        send,
    );
    let (isolated, beside) = measured.split_at(ISOLATED_INGESTS.min(measured.len()));
    let ((mixed, mixed_scaled, mixed_factors), (mixed_fresh, mixed_failures)) = if plan.mixed_s
        > 0.0
    {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let ingest = scope
                .spawn(|| ingest_stream(beside, INGEST_PERIOD_S, &stop, handle, versions, push));
            let phase = calibrated_loop(
                plan.rate_qps,
                plan.mixed_s,
                crate::nproc(),
                FIXED_SEGMENTS,
                fixed.len(),
                send,
            );
            stop.store(true, Ordering::Relaxed);
            (phase, ingest.join().expect("ingest thread"))
        })
    } else {
        ((Vec::new(), Vec::new(), Vec::new()), (Vec::new(), 0))
    };
    // Freshness is measured on back-to-back batches with no queries
    // running: under query load it swung by half its value run to run.
    // Like the read-only queries, the batches run on one CPU and are
    // steal-corrected besides calibrated: the writer absorbs them on its
    // own thread.
    let pinned = pin::Pinned::lowest_cpu();
    let ((fresh, failures), fresh_scale) = pin::unstolen(pinned.as_ref(), || {
        ingest_stream(isolated, 0.0, &never, handle, versions, push)
    });
    drop(pinned);
    let fresh: Vec<f64> = fresh.iter().map(|f| f * fresh_scale).collect();
    let mut slo = Vec::new();
    let mut level_factors = Vec::new();
    let mut next = fixed.len() + mixed.len();
    let (slo_rate, slo_bounded, slo_levels) = if search {
        let level_s = plan.slo_level_s();
        let found = stats::slo_search(
            |rate| {
                // A level fails only if a second try confirms it, so one
                // transient host stall does not end the ramp.
                let mut load = f64::INFINITY;
                for _ in 0..2 {
                    let (phase, scaled, k) =
                        calibrated_loop(rate, level_s, crate::nproc(), 1, next, send);
                    next += phase.len();
                    slo.push(phase);
                    level_factors.extend(k);
                    load = load.min(stats::slo_load(
                        &stats::summarize(&scaled, MISS_MS),
                        SLO_LIMIT_MS,
                    ));
                    if load <= 1.0 {
                        break;
                    }
                }
                load
            },
            plan.slo_start_qps,
            SLO_GROWTH,
            SLO_MAX_RATE,
            SLO_RAMP_LEVELS,
            SLO_BISECT,
        );
        (
            found.rate / stats::median(&level_factors),
            found.bounded,
            found.levels,
        )
    } else {
        (0.0, false, Vec::new())
    };
    Traffic {
        fixed,
        fixed_scaled,
        fixed_scale: stats::median(&factors),
        pinned_cpu,
        mixed,
        mixed_scaled,
        slo,
        slo_rate,
        slo_bounded,
        slo_levels,
        ingested: warmed.len() + mixed_fresh.len() + fresh.len(),
        ingest_failures: warm_failures + mixed_failures + failures,
        mixed_fresh: mixed_fresh
            .iter()
            .map(|f| f * stats::median(&mixed_factors))
            .collect(),
        fresh,
    }
}

/// Re-answer every successful query on the snapshot of the version that
/// answered it; returns `(checked, mismatched)`.
fn verify(
    replies: &[&Outcome],
    pool: &[Vec<(usize, usize)>],
    versions: &Versions,
) -> (usize, usize) {
    let versions = versions.lock().expect("versions lock");
    let mut expected: HashMap<(usize, u64), Option<Vec<u64>>> = HashMap::new();
    let (mut checked, mut bad) = (0usize, 0usize);
    for (i, _, reply) in replies {
        let Reply::Ok { version, values } = reply else {
            continue;
        };
        let set = i % pool.len();
        let want = expected.entry((set, *version)).or_insert_with(|| {
            versions.get(version).and_then(|snap| {
                snap.resistances(&pool[set])
                    .ok()
                    .map(|v| v.iter().map(|x| x.to_bits()).collect())
            })
        });
        checked += 1;
        let same = want.as_ref().is_some_and(|w| {
            w.len() == values.len() && w.iter().zip(values).all(|(a, b)| *a == b.to_bits())
        });
        if !same {
            bad += 1;
        }
    }
    (checked, bad)
}

/// Per-layer serving numbers of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct ServeLayers {
    pub snapshot_solve_ms: f64,
    pub inproc: LatencySummary,
    pub queue_wait_p99_ms: f64,
    pub coalesced_ratio: f64,
    pub largest_batch: u64,
    pub ingest_absorb_s: f64,
    pub publishes: u64,
    pub delta_updates: usize,
    pub handles_built: usize,
}

/// Everything the serving phase measured and checked.
pub struct ServeOutcome {
    /// Raw per-set-up times; see [`ServeOutcome::scaled`].
    pub setup_s: Vec<f64>,
    pub learn_s: Vec<f64>,
    pub probe_s: Vec<f64>,
    /// Host-speed scale factor of each set-up (see `calib`).
    pub setup_scale: Vec<f64>,
    /// Scale factor of the fixed-rate phase: the median over segments of
    /// the share of the wall time the pinned CPU was not stolen times the
    /// host-speed factor (latencies in `fixed` are already scaled).
    pub traffic_scale: f64,
    /// The CPU the fixed-rate phase ran pinned to (`None`: unpinned).
    pub pinned_cpu: Option<usize>,
    /// The served initial model (identical across set-ups, checked).
    pub served_graph: Graph,
    pub setups_identical: bool,
    /// The read-only fixed-rate phase (scaled).
    pub fixed: LatencySummary,
    /// The same schedule beside the ingest stream (mixed plans, scaled).
    pub mixed: Option<LatencySummary>,
    pub slo_rate_qps: f64,
    /// Every SLO level probed: `(rate, load)`.
    pub slo_levels: Vec<(f64, f64)>,
    /// Whether some probed rate failed the SLO (so the reported rate is
    /// the knee, not the end of the ramp).
    pub slo_bounded: bool,
    /// Freshness of back-to-back ingests (scaled).
    pub ingest_fresh_s: Vec<f64>,
    /// Freshness of ingests beside the fixed-rate queries (scaled).
    pub mixed_fresh_s: Vec<f64>,
    pub ingest_attempted: usize,
    pub ingest_failures: usize,
    pub counts: Counts,
    pub verified: usize,
    pub mismatched: usize,
    pub net: NetStats,
    pub serve: ServeStats,
    pub layers: Option<ServeLayers>,
}

impl ServeOutcome {
    /// Per-set-up times scaled by their set-up's host-speed factor.
    pub fn scaled(&self, raw: &[f64]) -> Vec<f64> {
        raw.iter()
            .zip(&self.setup_scale)
            .map(|(t, k)| t * k)
            .collect()
    }
}

/// Run the serving phase of a workload.
pub fn run(
    plan: &ServePlan,
    base: &LearnSpec,
    meas: &Measurements,
    shuffle: &Shuffle,
    pool: &[Vec<(usize, usize)>],
    probe_pairs: &[(usize, usize)],
    traced: bool,
) -> Result<ServeOutcome, String> {
    let spec = plan.model_spec(base);
    let initial = shuffle.columns(meas, 0, plan.initial_cols, true);
    let columns: Vec<Vec<f64>> = (plan.initial_cols..plan.initial_cols + plan.ingest_cols)
        .map(|j| shuffle.voltage_column(meas, j))
        .collect();
    let config = spec.config();

    // Set-up repetitions: learn + SglServer::new + NetServer::bind.
    let mut setup_s = Vec::new();
    let mut learn_s = Vec::new();
    let mut probe_s = Vec::new();
    let mut prints = Vec::new();
    let mut net = None;
    let mut setup_scale = Vec::new();
    for k in 0..plan.setups.max(1) {
        let (made, scale) = calib::calibrated(1, || -> Result<_, String> {
            let served = start_server(&spec, &initial)?;
            let t = Instant::now();
            let bound = NetServer::bind(served.server, loopback(), NetOptions::default())
                .map_err(|e| format!("bind: {e}"))?;
            let setup = served.setup_s + t.elapsed().as_secs_f64();
            let (b, q, _) = probe_graph(&config, served.v0.graph(), probe_pairs)?;
            Ok((bound, served.v0, setup, served.learn_s, b + q))
        });
        let (bound, v0, setup, learn, probe) = made?;
        setup_s.push(setup);
        learn_s.push(learn);
        probe_s.push(probe);
        setup_scale.push(scale.one);
        prints.push(fingerprint(v0.graph()));
        if k + 1 == plan.setups.max(1) {
            net = Some((bound, v0));
        } else {
            bound.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        }
    }
    let (net, v0) = net.expect("at least one set-up");
    let setups_identical = prints.iter().all(|p| *p == prints[0]);

    let layers = if traced {
        Some(inproc_phase(plan, &spec, &initial, &columns, pool)?)
    } else {
        None
    };

    let addr = net.local_addr();
    let handle = net.serve_handle();
    let versions: Versions = Arc::new(Mutex::new(BTreeMap::from([(0, Arc::clone(&v0))])));
    let send = |i: usize| {
        classify(client::post(
            addr,
            "/resistances",
            &pairs_body(&pool[i % pool.len()]),
        ))
    };
    let push = |col: &[f64]| -> Result<(), String> {
        let r = client::post(addr, "/ingest", &column_body(col))?;
        if r.status != 202 {
            return Err(format!("ingest answered {}", r.status));
        }
        let r = client::post(addr, "/flush", "")?;
        if r.status != 200 {
            return Err(format!("flush answered {}", r.status));
        }
        Ok(())
    };
    let traffic = drive(plan, true, &columns, &handle, &versions, &send, &push);
    let traffic_scale = traffic.fixed_scale;
    let net_stats = net.stats();
    let serve_stats = net.serve_stats();
    net.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let mut counts = Counts::default();
    let all: Vec<&Outcome> = traffic
        .fixed
        .iter()
        .chain(&traffic.mixed)
        .chain(traffic.slo.iter().flatten())
        .collect();
    for (_, _, r) in &all {
        counts.add(r);
    }
    let (verified, mismatched) = verify(&all, pool, &versions);
    Ok(ServeOutcome {
        setup_s,
        learn_s,
        probe_s,
        setup_scale,
        traffic_scale,
        pinned_cpu: traffic.pinned_cpu,
        served_graph: v0.graph().clone(),
        setups_identical,
        fixed: stats::summarize(&traffic.fixed_scaled, MISS_MS),
        mixed: (!traffic.mixed_scaled.is_empty())
            .then(|| stats::summarize(&traffic.mixed_scaled, MISS_MS)),
        slo_rate_qps: traffic.slo_rate,
        slo_levels: traffic.slo_levels,
        slo_bounded: traffic.slo_bounded,
        ingest_attempted: traffic.ingested + traffic.ingest_failures,
        ingest_fresh_s: traffic.fresh,
        mixed_fresh_s: traffic.mixed_fresh,
        ingest_failures: traffic.ingest_failures,
        counts,
        verified,
        mismatched,
        net: net_stats,
        serve: serve_stats,
        layers,
    })
}

/// The traced in-process phase on a second, identical server.
fn inproc_phase(
    plan: &ServePlan,
    spec: &LearnSpec,
    initial: &Measurements,
    columns: &[Vec<f64>],
    pool: &[Vec<(usize, usize)>],
) -> Result<ServeLayers, String> {
    let served = start_server(spec, initial)?;
    let server = served.server;

    // Uncontended snapshot solves, before any traffic.
    let (solves, solve_scale) = calib::calibrated(1, || {
        let mut ms = Vec::new();
        for _ in 0..4 {
            for pairs in pool {
                let t = Instant::now();
                served.v0.resistances(pairs).map_err(|e| e.to_string())?;
                ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        Ok::<_, String>(ms)
    });
    let solve_ms = solves?;

    let handle = server.handle();
    let versions: Versions = Arc::new(Mutex::new(BTreeMap::from([(0, Arc::clone(&served.v0))])));
    let send = |i: usize| match handle.resistances(&pool[i % pool.len()]) {
        Ok(r) => Reply::Ok {
            version: r.version,
            values: r.value,
        },
        Err(_) => Reply::ServerError,
    };
    let push = |col: &[f64]| -> Result<(), String> {
        let batch =
            Measurements::from_voltages(sgl_linalg::DenseMatrix::from_columns(&[col.to_vec()]))
                .map_err(|e| e.to_string())?;
        server.ingest(batch).map_err(|e| e.to_string())?;
        server.flush().map_err(|e| e.to_string())
    };
    let traffic = drive(plan, false, columns, &handle, &versions, &send, &push);
    let st = server.stats();
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let absorb = stats::median(&traffic.fresh);
    Ok(ServeLayers {
        snapshot_solve_ms: stats::median(&solve_ms) * solve_scale.one,
        inproc: stats::summarize(&traffic.fixed_scaled, MISS_MS),
        queue_wait_p99_ms: st.queue_wait_p99_ms,
        coalesced_ratio: st.requests_coalesced as f64 / st.queries_answered.max(1) as f64,
        largest_batch: st.largest_batch,
        ingest_absorb_s: absorb,
        publishes: st.snapshots_published,
        delta_updates: st.revision.delta_updates,
        handles_built: st.revision.handles_built,
    })
}
