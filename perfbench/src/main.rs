//! Repeatable end-to-end and per-layer benchmark of the SGL workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload learn-mesh --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//!
//! * `learn-mesh` — 2-D mesh, Solver strategy at nproc threads,
//!   convergence-driven, Step-5 scaling, one probe of the final graph;
//! * `learn-airfoil-sf` — airfoil mesh, SolverFree strategy at 1 thread,
//!   8 resistance probes after every iteration;
//! * `serve-mixed` — a 2-D mesh model served over HTTP under an open-loop
//!   query schedule, read-only and then beside a periodic ingest stream.
//!
//! Every workload runs the same three phases — learn, probe, serve — on
//! its own instance, so every metric exists on every workload; each
//! workload puts its measured time where its name says. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` the per-layer split. The
//! last line of standard output is one JSON object; the process exits
//! non-zero, printing no numbers, when any correctness check fails.

mod calib;
mod inputs;
mod kernels;
mod learn;
mod pin;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::time::Instant;

use sgl_core::{pairwise_effective_resistances, LearnStrategyKind};
use sgl_datasets::TestCase;

use inputs::{fingerprint, Instance, Shuffle};
use learn::{LearnSpec, Rep, Truth};
use serve::{ServeOutcome, ServePlan};
use stats::median;

/// Measurement columns of the learn phase (and of the served model).
const LEARN_COLS: usize = 30;
/// Fixed probe pairs.
const PROBE_PAIRS: usize = 8;
/// Pairs sampled for `er_rel_err`.
const ERROR_PAIRS: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One workload's fixed inputs.
struct Workload {
    case: TestCase,
    scale: f64,
    learn: LearnSpec,
    /// Whether the learn phase is measured (the learn workloads) or
    /// only the served model is learned (`serve-mixed`).
    measures_learning: bool,
    rate_qps: f64,
    slo_start_qps: f64,
}

pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn workload(name: &str) -> Option<Workload> {
    let solver = |threads| LearnSpec {
        strategy: LearnStrategyKind::Solver,
        threads,
        tol: 1e-4,
        max_iterations: 200,
        probe_every_step: false,
    };
    match name {
        "learn-mesh" => Some(Workload {
            case: TestCase::Mesh2d,
            scale: 0.16,
            learn: solver(nproc()),
            measures_learning: true,
            rate_qps: 50.0,
            slo_start_qps: 100.0,
        }),
        "learn-airfoil-sf" => Some(Workload {
            case: TestCase::Airfoil,
            scale: 0.5,
            learn: LearnSpec {
                strategy: LearnStrategyKind::SolverFree,
                probe_every_step: true,
                ..solver(1)
            },
            measures_learning: true,
            rate_qps: 300.0,
            slo_start_qps: 2500.0,
        }),
        "serve-mixed" => Some(Workload {
            case: TestCase::Mesh2d,
            scale: 0.16,
            learn: solver(nproc()),
            measures_learning: false,
            rate_qps: 50.0,
            slo_start_qps: 100.0,
        }),
        _ => None,
    }
}

/// Name, unit and value of every reported metric, plus the checks.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
    notes: String,
}

impl Report {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn note(&mut self, line: impl AsRef<str>) {
        let _ = writeln!(self.notes, "# {}", line.as_ref());
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (checkout is not a git work tree)".into(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <learn-mesh|learn-airfoil-sf|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    // Library code outside an explicit `parallelism` setting — the
    // serving path's solves above all — runs at the ambient thread count.
    // Pin it to one thread: concurrent queries then spread across the
    // cores instead of each forking per parallel region, whose thread
    // start-up jitter made query latencies unsteady run to run. The
    // workloads' own `parallelism` settings are explicit and unaffected.
    // Set before any thread starts (the count is read once).
    std::env::set_var("SGL_NUM_THREADS", "1");
    sgl_sfsgl::register();
    let started = Instant::now();
    let mut report = Report::default();
    if let Err(e) = run(&args, &w, &mut report) {
        report.failures.push(e);
    }
    print!("{}", report.notes);
    println!("# wall {:.3} s", started.elapsed().as_secs_f64());
    if report.failures.is_empty() {
        let metrics: Vec<String> = report
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            report.attempted.max(1),
            report.failed,
            metrics.join(", ")
        );
    } else {
        for f in &report.failures {
            eprintln!("perfbench: check failed: {f}");
        }
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            report.attempted.max(1),
            report.failed.max(1)
        );
        std::process::exit(1);
    }
}

/// Learn repetitions until `budget_s` is spent (at least `min_reps`),
/// alternating untraced and traced repetitions when `traced`.
fn learn_reps(
    spec: &LearnSpec,
    meas: &sgl_core::Measurements,
    pairs: &[(usize, usize)],
    budget_s: f64,
    min_reps: usize,
    traced: bool,
) -> Result<Vec<(bool, Rep)>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut last = 0.0f64;
    while reps.len() < min_reps || start.elapsed().as_secs_f64() + last <= budget_s {
        let with_trace = traced && reps.len() % 2 == 1;
        let t = Instant::now();
        let (rep, scale) = calib::calibrated(spec.threads, || {
            learn::run_rep(spec, meas, pairs, with_trace)
        });
        reps.push((with_trace, Rep { scale, ..rep? }));
        last = t.elapsed().as_secs_f64();
    }
    Ok(reps)
}

fn run(args: &Args, w: &Workload, report: &mut Report) -> Result<(), String> {
    let s = args.seconds;
    // serve-mixed runs its fixed-rate schedule twice: read-only, then
    // (shorter) beside the ingest stream.
    let (fixed_s, mixed_s, slo_budget_s, learn_budget_s) = if w.measures_learning {
        (0.35 * s, 0.0, 0.25 * s, 0.4 * s)
    } else {
        (0.35 * s, 0.2 * s, 0.45 * s, 0.0)
    };
    let ingest_cols = serve::WARMUP_INGESTS
        + serve::ISOLATED_INGESTS
        + (mixed_s / serve::INGEST_PERIOD_S).ceil() as usize;
    let plan = ServePlan {
        initial_cols: LEARN_COLS,
        ingest_cols,
        rate_qps: w.rate_qps,
        fixed_s,
        mixed_s,
        slo_start_qps: w.slo_start_qps,
        slo_budget_s,
        setups: if w.measures_learning || args.trace {
            1
        } else {
            5
        },
    };

    let inst = Instance::generate(w.case, w.scale, LEARN_COLS + ingest_cols)?;
    let n = inst.nodes();
    let shuffle = Shuffle::from_seed(LEARN_COLS + ingest_cols, LEARN_COLS, args.seed);
    let probe_pairs = inst.pairs(PROBE_PAIRS, 1);
    let error_pairs = inst.pairs(ERROR_PAIRS, 2);
    // Fixed like the probes: a query's solve cost depends on its pairs,
    // so a seeded pool would move the latency figures with the seed.
    let pool: Vec<Vec<(usize, usize)>> = (0..serve::QUERY_POOL as u64)
        .map(|i| inst.pairs(serve::PAIRS_PER_QUERY, 100 + i))
        .collect();
    let truth = Truth::new(&inst.truth, &error_pairs)?;

    report.note(format!(
        "provenance: nproc={} threads={} rustc={} commit={}",
        nproc(),
        w.learn.threads,
        env!("PERFBENCH_RUSTC"),
        commit()
    ));
    report.note(format!(
        "inputs: workload={} seed={} case={} scale={} nodes={} M={} (+{} ingest) tol={} \
         strategy={} probes={} rate={}qps slo_p99<={}ms",
        args.workload,
        args.seed,
        w.case.name(),
        w.scale,
        n,
        LEARN_COLS,
        ingest_cols,
        w.learn.tol,
        w.learn.strategy.as_str(),
        PROBE_PAIRS,
        w.rate_qps,
        serve::SLO_LIMIT_MS
    ));

    // ---- learn + probe ---------------------------------------------
    let learn_meas = shuffle.columns(&inst.meas, 0, LEARN_COLS, true);
    let (spec, budget, min_reps) = if w.measures_learning {
        (
            w.learn.clone(),
            learn_budget_s,
            if args.trace { 4 } else { 3 },
        )
    } else {
        // serve-mixed learns its served model; a traced run splits that
        // learn into layers too.
        (
            plan.model_spec(&w.learn),
            0.0,
            if args.trace { 4 } else { 0 },
        )
    };
    let reps = learn_reps(
        &spec,
        &learn_meas,
        &probe_pairs,
        budget,
        min_reps,
        args.trace,
    )?;
    check_learning(report, &spec, &reps, &probe_pairs)?;

    // ---- serve -------------------------------------------------------
    let served = serve::run(
        &plan,
        &w.learn,
        &inst.meas,
        &shuffle,
        &pool,
        &probe_pairs,
        args.trace,
    )?;
    check_serving(report, &plan, &served);
    if !w.measures_learning {
        if let Some((_, rep)) = reps.first() {
            let same = fingerprint(&rep.loop_graph) == fingerprint(&served.served_graph);
            report.check(same, || {
                "served model differs from the learn phase's copy of it".into()
            });
        }
    }

    // ---- quality -------------------------------------------------------
    // The learn workloads score their finished graph; serve-mixed scores
    // the served model after the Step-5 scaling `finish` would apply.
    let learned = match reps.first() {
        Some((_, rep)) if w.measures_learning => rep.result.graph.clone(),
        _ => {
            let mut g = served.served_graph.clone();
            sgl_core::spectral_edge_scaling(&mut g, &learn_meas).map_err(|e| e.to_string())?;
            g
        }
    };
    let (eig_err, er_err) = truth.errors(&learned, &error_pairs)?;

    if args.trace {
        per_layer(report, w, &reps, &served)?;
    } else {
        let untraced: Vec<&Rep> = reps.iter().map(|(_, r)| r).collect();
        let med =
            |f: &dyn Fn(&Rep) -> f64| median(&untraced.iter().map(|r| f(r)).collect::<Vec<_>>());
        let (setup, learn_s, probe) = if w.measures_learning {
            (
                med(&|r| r.setup_s * r.scale.all),
                med(&|r| r.learn_s * r.scale.one),
                med(&|r| r.probe_s() * r.scale.one),
            )
        } else {
            (
                median(&served.scaled(&served.setup_s)),
                median(&served.scaled(&served.learn_s)),
                median(&served.scaled(&served.probe_s)),
            )
        };
        let k = served.traffic_scale;
        report.put("setup_s", "s", setup);
        report.put("learn_s", "s", learn_s);
        report.put("probe_s", "s", probe);
        report.put("eig_rel_err", "ratio", eig_err);
        report.put("er_rel_err", "ratio", er_err);
        report.put(
            "peak_rss_mb",
            "MB",
            peak_rss_mb().ok_or("peak RSS unavailable")?,
        );
        report.put("query_p50_ms", "ms", served.fixed.p50_ms);
        report.put("ingest_fresh_s", "s", median(&served.ingest_fresh_s));
        let (raw_setup, raw_learn, raw_probe, factor) = if w.measures_learning {
            (
                med(&|r| r.setup_s),
                med(&|r| r.learn_s),
                med(&|r| r.probe_s()),
                med(&|r| r.scale.one),
            )
        } else {
            let s = &served;
            (
                median(&s.setup_s),
                median(&s.learn_s),
                median(&s.probe_s),
                median(&s.setup_scale),
            )
        };
        report.note(format!(
            "host speed: factor {factor:.4} (learn/set-up); reported times are raw x factor, \
             rates raw / factor; raw medians: setup {raw_setup:.4}s learn {raw_learn:.4}s probe \
             {raw_probe:.5}s | fixed-rate traffic: factor {k:.4} (unstolen share x host speed)"
        ));
    }
    report.note(format!(
        "quality: eig_rel_err={eig_err:.6} (first {} nonzero) er_rel_err={er_err:.6} ({} pairs)",
        learn::EIG_K,
        ERROR_PAIRS
    ));
    Ok(())
}

/// Correctness and accounting of the learn phase.
fn check_learning(
    report: &mut Report,
    spec: &LearnSpec,
    reps: &[(bool, Rep)],
    probe_pairs: &[(usize, usize)],
) -> Result<(), String> {
    let Some((_, first)) = reps.first() else {
        return Ok(());
    };
    let print = fingerprint(&first.result.graph);
    for (k, (traced, rep)) in reps.iter().enumerate() {
        report.check(fingerprint(&rep.result.graph) == print, || {
            format!(
                "repetition {k} ({}) learned a different graph from the same input",
                if *traced { "traced" } else { "untraced" }
            )
        });
        report.attempted += 1 + rep.probe_builds;
        report.failed += rep.probe_errors;
        report.check(rep.probe_errors == 0, || {
            format!("repetition {k}: {} probe errors", rep.probe_errors)
        });
        report.check(rep.result.fallbacks_taken == 0, || {
            format!(
                "repetition {k}: {} strategy fallbacks",
                rep.result.fallbacks_taken
            )
        });
    }
    if spec.strategy == LearnStrategyKind::SolverFree {
        let (solves, built) = (
            first.result.solver_stats.solves,
            first.result.revision_stats.handles_built,
        );
        report.check(solves == 0 && built == 0, || {
            format!("solver-free learn made {solves} solves and built {built} handles")
        });
    }
    // Probe answers against exact resistances of the probed graph: the
    // spectral sketch is a lower bound (eq. 20); exact solves agree to
    // solver tolerance.
    let pairs_probed = first.last_probe.len();
    if pairs_probed > 0 {
        let exact = pairwise_effective_resistances(first.probed_graph(spec), probe_pairs)
            .map_err(|e| e.to_string())?;
        let slack = 1e-6;
        for (p, e) in first.last_probe.iter().zip(&exact) {
            report.check(*p <= e * (1.0 + slack), || {
                format!("probe answer {p} exceeds the exact resistance {e}")
            });
        }
    }
    let r = &first;
    if reps.len() >= 2 {
        let (q1, q2, q3) =
            stats::quartiles(&reps.iter().map(|(_, r)| r.learn_s).collect::<Vec<_>>());
        report.note(format!(
            "learn_s within run: q1={q1:.4} median={q2:.4} q3={q3:.4}"
        ));
    }
    report.note(format!(
        "learn: reps={} steps={} verdict={:?} edges={} probes={} probe_errors={} fallbacks={} \
         solves={} pcg_iters={} handles_built={} delta_updates={}",
        reps.len(),
        r.steps,
        r.result.stop_verdict,
        r.result.graph.num_edges(),
        r.probe_builds,
        r.probe_errors,
        r.result.fallbacks_taken,
        r.result.solver_stats.solves,
        r.result.solver_stats.iterations,
        r.result.revision_stats.handles_built,
        r.result.revision_stats.delta_updates
    ));
    Ok(())
}

/// Correctness and accounting of the serving phase.
fn check_serving(report: &mut Report, plan: &ServePlan, s: &ServeOutcome) {
    let c = &s.counts;
    report.attempted += c.sent + s.ingest_attempted;
    report.failed += c.failed() + s.ingest_failures;
    report.check(s.setups_identical, || {
        "repeated set-ups served different models".into()
    });
    report.check(s.mismatched == 0, || {
        format!(
            "{} of {} answers differ from their snapshot's resistances",
            s.mismatched, s.verified
        )
    });
    report.check(s.verified == c.ok, || {
        "not every answer was verified".into()
    });
    report.check(c.failed() == 0, || {
        format!(
            "{} of {} requests failed (shed {}, 5xx {}, 4xx {}, timeout {}, conn {})",
            c.failed(),
            c.sent,
            c.shed,
            c.server_error,
            c.client_error,
            c.timeout,
            c.conn_error
        )
    });
    report.check(s.slo_rate_qps > 0.0, || {
        format!("no rate met the {} ms p99 limit", serve::SLO_LIMIT_MS)
    });
    if !s.slo_bounded {
        report.note(format!(
            "slo: every probed rate passed; {:.1} q/s is a lower bound (the ramp's top)",
            s.slo_rate_qps
        ));
    }
    report.check(
        s.ingest_failures == 0 && !s.ingest_fresh_s.is_empty(),
        || format!("{} ingest batches failed to republish", s.ingest_failures),
    );
    let tail = match s.fixed.tail {
        Some((p, v)) => format!("p{p}={v:.3}ms"),
        None => "none with 10 samples beyond".into(),
    };
    report.note(format!(
        "serve: fixed phase {} samples, highest tail percentile {tail}; server published {} \
         snapshots, coalesced {} of {} queries",
        s.fixed.attempted,
        s.serve.snapshots_published,
        s.serve.requests_coalesced,
        s.serve.queries_answered
    ));
    report.note(format!(
        "serve: requests sent={} ok={} shed={} 5xx={} 4xx={} timeout={} conn_err={} verified={} \
         | fixed {} q/s on {}: p50={:.3}ms p99={:.3}ms generator_lateness_p99={:.3}ms | slo levels \
         (rate:load) {} -> {:.1}q/s | back-to-back ingests={} fresh_median={:.3}s | beside \
         queries={} fresh_median={:.3}s",
        c.sent,
        c.ok,
        c.shed,
        c.server_error,
        c.client_error,
        c.timeout,
        c.conn_error,
        s.verified,
        plan.rate_qps,
        s.pinned_cpu.map_or_else(
            || "all cpus (pinning failed)".into(),
            |c| format!("cpu {c}")
        ),
        s.fixed.p50_ms,
        s.fixed.p99_ms,
        s.fixed.lateness_p99_ms,
        s.slo_levels
            .iter()
            .map(|(r, l)| format!("{r:.0}:{l:.2}"))
            .collect::<Vec<_>>()
            .join(" "),
        s.slo_rate_qps,
        s.ingest_fresh_s.len(),
        median(&s.ingest_fresh_s),
        s.mixed_fresh_s.len(),
        median(&s.mixed_fresh_s)
    ));
    if let Some(m) = &s.mixed {
        report.note(format!(
            "serve: beside the ingest stream {} q/s: p50={:.3}ms p99={:.3}ms \
             generator_lateness_p99={:.3}ms ({} samples)",
            plan.rate_qps, m.p50_ms, m.p99_ms, m.lateness_p99_ms, m.attempted
        ));
    }
}

/// The traced run's per-layer metrics.
fn per_layer(
    report: &mut Report,
    w: &Workload,
    reps: &[(bool, Rep)],
    s: &ServeOutcome,
) -> Result<(), String> {
    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let untraced: Vec<&Rep> = reps.iter().filter(|(t, _)| !*t).map(|(_, r)| r).collect();
    let layers: Vec<learn::Layers> = traced.iter().filter_map(|r| r.layers).collect();
    let med = |f: &dyn Fn(&learn::Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let med_rep =
        |rs: &[&Rep], f: &dyn Fn(&Rep) -> f64| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let rep = traced
        .first()
        .ok_or("traced run made no traced repetition")?;

    report.put("knn.build_s", "s", med(&|l| l.knn_build_s));
    report.put("core.init_s", "s", med(&|l| l.init_s));
    report.put("core.embed_s", "s", med(&|l| l.embed_s));
    report.put("core.embed_calls", "count", med(&|l| l.embed_calls as f64));
    report.put("core.score_s", "s", med(&|l| l.score_s));
    report.put("core.densify_s", "s", med(&|l| l.densify_s));
    report.put("core.scale_s", "s", med(&|l| l.scale_s));
    report.put("core.unattributed_s", "s", med(&|l| l.unattributed_s));
    report.put("core.iterations", "count", rep.result.trace.len() as f64);
    report.put(
        "core.edges_added",
        "count",
        rep.result
            .trace
            .iter()
            .map(|r| r.edges_added)
            .sum::<usize>() as f64,
    );
    let wall = |r: &Rep| r.setup_s + r.learn_s;
    let overhead = med_rep(&traced, &wall) - med_rep(&untraced, &wall);
    report.put("trace.overhead_s", "s", overhead);
    report.put(
        "solver.solves",
        "count",
        rep.result.solver_stats.solves as f64,
    );
    report.put(
        "solver.pcg_iters",
        "count",
        rep.result.solver_stats.iterations as f64,
    );
    report.put(
        "solver.handles_built",
        "count",
        rep.result.revision_stats.handles_built as f64,
    );
    report.put(
        "solver.delta_updates",
        "count",
        rep.result.revision_stats.delta_updates as f64,
    );
    report.put(
        "resistance.build_s",
        "s",
        med_rep(&traced, &|r| r.probe_build_s),
    );
    report.put("resistance.builds", "count", rep.probe_builds as f64);
    report.put(
        "resistance.query_s",
        "s",
        med_rep(&traced, &|r| r.probe_query_s),
    );
    report.put("resistance.pairs", "count", rep.probe_pairs as f64);

    let sl = s
        .layers
        .ok_or("traced serve phase produced no layer split")?;
    let inproc = sl.inproc;
    report.put("serve.snapshot_solve_ms", "ms", sl.snapshot_solve_ms);
    report.put("serve.inproc_p50_ms", "ms", inproc.p50_ms);
    report.put("serve.inproc_p99_ms", "ms", inproc.p99_ms);
    report.put("serve.queue_wait_p99_ms", "ms", sl.queue_wait_p99_ms);
    report.put("serve.coalesced_ratio", "ratio", sl.coalesced_ratio);
    report.put("serve.largest_batch", "count", sl.largest_batch as f64);
    report.put("serve.ingest_absorb_s", "s", sl.ingest_absorb_s);
    report.put("serve.publishes", "count", sl.publishes as f64);
    report.put("serve.delta_updates", "count", sl.delta_updates as f64);
    report.put("serve.handles_built", "count", sl.handles_built as f64);
    report.put("net.query_p99_ms", "ms", s.fixed.p99_ms);
    report.put("net.slo_rate_qps", "1/s", s.slo_rate_qps);
    report.put("net.overhead_p50_ms", "ms", s.fixed.p50_ms - inproc.p50_ms);
    report.put("net.shed", "count", s.net.shed as f64);
    report.put("net.malformed", "count", s.net.malformed as f64);
    report.put("net.max_queue_depth", "count", s.net.max_queue_depth as f64);
    report.put("load.lateness_p99_ms", "ms", s.fixed.lateness_p99_ms);
    report.put("load.sent", "count", s.counts.sent as f64);
    report.put("load.failed", "count", s.counts.failed() as f64);
    report.put("core.fallbacks", "count", rep.result.fallbacks_taken as f64);
    report.put("resistance.probe_errors", "count", rep.probe_errors as f64);

    let xs = kernels::crossover()?;
    let names = [
        (
            "xover.sketch_dense_ms.n384",
            "xover.sketch_filtered_ms.n384",
            "xover.symeig_ms.n384",
        ),
        (
            "xover.sketch_dense_ms.n512",
            "xover.sketch_filtered_ms.n512",
            "xover.symeig_ms.n512",
        ),
        (
            "xover.sketch_dense_ms.n640",
            "xover.sketch_filtered_ms.n640",
            "xover.symeig_ms.n640",
        ),
    ];
    for (x, (d, f, e)) in xs.iter().zip(names) {
        report.put(d, "ms", x.sketch_dense_ms);
        report.put(f, "ms", x.sketch_filtered_ms);
        report.put(e, "ms", x.symeig_ms);
    }
    let graph = if w.measures_learning {
        &rep.result.graph
    } else {
        &s.served_graph
    };
    let mv = kernels::matvec(graph);
    report.put("xover.csr_ns_per_nnz", "ns", mv.ns_per_nnz);
    report.put("xover.csr_bytes", "B", mv.bytes as f64);
    report.put("xover.csr_gb_per_s", "GB/s", mv.gb_per_s);
    report.put("xover.par_us.t1", "us", kernels::par_dispatch_us(1));
    report.put(
        "xover.par_us.nproc",
        "us",
        kernels::par_dispatch_us(nproc()),
    );

    let untraced_wall = med_rep(&untraced, &wall);
    let accounted = med(&|l| {
        l.knn_build_s
            + l.init_s
            + l.embed_s
            + l.score_s
            + l.densify_s
            + l.scale_s
            + l.unattributed_s
    });
    report.note(format!(
        "trace: traced reps={} untraced reps={} | layers+unattributed={accounted:.4}s vs untraced \
         setup+learn={untraced_wall:.4}s (overhead {overhead:.4}s)",
        traced.len(),
        untraced.len()
    ));
    for x in &xs {
        report.note(format!(
            "crossover n={}: sketch dense {:.3}ms filtered {:.3}ms symeig {:.3}ms (DENSE_CUTOFF {})",
            x.nodes,
            x.sketch_dense_ms,
            x.sketch_filtered_ms,
            x.symeig_ms,
            sgl_core::SpectralSketch::DENSE_CUTOFF
        ));
    }
    report.note(format!(
        "csr matvec: nnz={} {:.3} ns/nnz, {} B/matvec, {:.2} GB/s",
        mv.nnz, mv.ns_per_nnz, mv.bytes, mv.gb_per_s
    ));
    Ok(())
}
