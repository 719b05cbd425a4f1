//! The learning phase: one repetition is `SglSession::new` (set-up),
//! the step loop plus `finish` (learn), and the workload's resistance
//! probes (probe), each timed on its own.
//!
//! A traced repetition splits the same work into layers without touching
//! the program: the kNN graph and the session are built through their
//! public entry points (`build_knn_graph`, `SglSession::with_candidate_graph`),
//! and the strategy's own embedding backend, candidate scorer and edge
//! scaler are installed behind delegating wrappers that time each call.
//! Wrappers only forward, so a traced repetition learns the bit-identical
//! graph of an untraced one — which the run checks.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sgl_core::metrics::spectrum_comparison_from_values;
use sgl_core::{
    build_resistance_estimator, pairwise_effective_resistances, resolve_strategy,
    smallest_nonzero_eigenvalues, CandidatePool, CandidateScorer, EdgeScaler, Embedding,
    EmbeddingBackend, EmbeddingOptions, LearnResult, LearnStrategyKind, Measurements, SglConfig,
    SglError, SglSession, SolverContext, SpectrumMethod,
};
use sgl_graph::Graph;
use sgl_knn::build_knn_graph;
use sgl_linalg::{par, DenseMatrix};

use crate::calib::Factors;
use crate::stats::median;

/// How one learn workload drives the session.
#[derive(Debug, Clone)]
pub struct LearnSpec {
    pub strategy: LearnStrategyKind,
    pub threads: usize,
    pub tol: f64,
    pub max_iterations: usize,
    /// Probe after every step (`true`) or once on the final graph.
    pub probe_every_step: bool,
}

impl LearnSpec {
    pub fn config(&self) -> SglConfig {
        SglConfig::default()
            .with_strategy(self.strategy)
            .with_parallelism(self.threads)
            .with_tol(self.tol)
            .with_max_iterations(self.max_iterations)
    }
}

/// Per-layer time of one traced repetition (seconds unless noted).
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub knn_build_s: f64,
    pub init_s: f64,
    pub embed_s: f64,
    pub embed_calls: usize,
    pub score_s: f64,
    pub densify_s: f64,
    pub scale_s: f64,
    pub unattributed_s: f64,
}

/// Outcome of one repetition.
pub struct Rep {
    pub setup_s: f64,
    pub learn_s: f64,
    pub probe_build_s: f64,
    pub probe_query_s: f64,
    pub probe_builds: usize,
    pub probe_pairs: usize,
    pub probe_errors: usize,
    pub steps: usize,
    pub result: LearnResult,
    /// The last probe's answers.
    pub last_probe: Vec<f64>,
    /// The learned graph before `finish` (Step-5 scaling).
    pub loop_graph: Graph,
    pub layers: Option<Layers>,
    /// Host-speed scale factors of this repetition (see `calib`).
    pub scale: Factors,
}

impl Rep {
    pub fn probe_s(&self) -> f64 {
        self.probe_build_s + self.probe_query_s
    }

    /// The graph the last probe was taken on.
    pub fn probed_graph(&self, spec: &LearnSpec) -> &Graph {
        if spec.probe_every_step {
            &self.loop_graph
        } else {
            &self.result.graph
        }
    }
}

/// Call times shared between the wrappers and the repetition that installed them.
#[derive(Debug, Default)]
struct Clock {
    embed_s: f64,
    embed_calls: usize,
    score_s: f64,
    scale_s: f64,
}

type SharedClock = Arc<Mutex<Clock>>;

fn tick(clock: &SharedClock, f: impl FnOnce(&mut Clock)) {
    f(&mut clock.lock().expect("clock lock"));
}

#[derive(Debug)]
struct TimedEmbedding {
    inner: Box<dyn EmbeddingBackend>,
    clock: SharedClock,
}

impl EmbeddingBackend for TimedEmbedding {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn embed(
        &self,
        graph: &Graph,
        width: usize,
        shift: f64,
        opts: &EmbeddingOptions,
        warm_start: Option<&DenseMatrix>,
        ctx: &mut SolverContext,
    ) -> Result<Embedding, SglError> {
        let t = Instant::now();
        let out = self.inner.embed(graph, width, shift, opts, warm_start, ctx);
        let dt = t.elapsed().as_secs_f64();
        tick(&self.clock, |c| {
            c.embed_s += dt;
            c.embed_calls += 1;
        });
        out
    }
}

#[derive(Debug)]
struct TimedScorer {
    inner: Box<dyn CandidateScorer>,
    clock: SharedClock,
}

impl CandidateScorer for TimedScorer {
    fn score(&self, pool: &CandidatePool, embedding: &Embedding) -> Vec<f64> {
        let t = Instant::now();
        let out = self.inner.score(pool, embedding);
        let dt = t.elapsed().as_secs_f64();
        tick(&self.clock, |c| c.score_s += dt);
        out
    }
}

#[derive(Debug)]
struct TimedScaler {
    inner: Box<dyn EdgeScaler>,
    clock: SharedClock,
}

impl EdgeScaler for TimedScaler {
    fn scale(
        &self,
        graph: &mut Graph,
        measurements: &Measurements,
        ctx: &mut SolverContext,
    ) -> Result<Option<f64>, SglError> {
        let t = Instant::now();
        let out = self.inner.scale(graph, measurements, ctx);
        let dt = t.elapsed().as_secs_f64();
        tick(&self.clock, |c| c.scale_s += dt);
        out
    }
}

/// Build the session untraced (`SglSession::new`) or traced (kNN build
/// and session init timed apart, stage backends wrapped).
fn open_session<'m>(
    config: SglConfig,
    meas: &'m Measurements,
    clock: Option<&SharedClock>,
) -> Result<(SglSession<'m>, Option<(f64, f64)>), String> {
    let Some(clock) = clock else {
        return SglSession::new(config, meas)
            .map(|s| (s, None))
            .map_err(|e| e.to_string());
    };
    let t = Instant::now();
    let knn = par::with_threads_hint(config.parallelism, || {
        build_knn_graph(meas.voltages(), &config.knn_graph_config())
    });
    let knn_s = t.elapsed().as_secs_f64();
    let strategy = resolve_strategy(&config).map_err(|e| e.to_string())?;
    let backend = TimedEmbedding {
        inner: strategy.embedding_backend(&config),
        clock: Arc::clone(clock),
    };
    let scorer = TimedScorer {
        inner: strategy.scorer(&config),
        clock: Arc::clone(clock),
    };
    let scaler = TimedScaler {
        inner: strategy.edge_scaler(&config),
        clock: Arc::clone(clock),
    };
    let t = Instant::now();
    let session = SglSession::with_candidate_graph(config, meas, knn).map_err(|e| e.to_string())?;
    let init_s = t.elapsed().as_secs_f64();
    let session = session
        .with_embedding_backend(Box::new(backend))
        .with_scorer(Box::new(scorer))
        .with_edge_scaler(Box::new(scaler));
    Ok((session, Some((knn_s, init_s))))
}

/// One repetition of the learn phase on `meas` with fixed probe `pairs`.
pub fn run_rep(
    spec: &LearnSpec,
    meas: &Measurements,
    pairs: &[(usize, usize)],
    traced: bool,
) -> Result<Rep, String> {
    let config = spec.config();
    let clock: Option<SharedClock> = traced.then(SharedClock::default);

    let t = Instant::now();
    let (mut session, split) = open_session(config.clone(), meas, clock.as_ref())?;
    let setup_s = t.elapsed().as_secs_f64();

    let mut step_s = 0.0;
    let mut steps = 0usize;
    let (mut build_s, mut query_s) = (0.0, 0.0);
    let (mut builds, mut probe_pairs, mut probe_errors) = (0usize, 0usize, 0usize);
    let mut last_probe = Vec::new();
    while !session.is_done() {
        let t = Instant::now();
        session
            .step()
            .map_err(|e| format!("step {}: {e}", steps + 1))?;
        step_s += t.elapsed().as_secs_f64();
        steps += 1;
        if spec.probe_every_step {
            let t = Instant::now();
            let est = session.resistance_estimator();
            build_s += t.elapsed().as_secs_f64();
            builds += 1;
            let t = Instant::now();
            let answers =
                par::with_threads_hint(spec.threads, || est.and_then(|e| e.resistances(pairs)));
            query_s += t.elapsed().as_secs_f64();
            probe_pairs += pairs.len();
            match answers {
                Ok(v) => last_probe = v,
                Err(_) => probe_errors += 1,
            }
        }
    }
    let embed_in_steps = clock
        .as_ref()
        .map(|c| c.lock().expect("clock lock").embed_s);
    let loop_graph = session.graph().clone();

    let t = Instant::now();
    let result = session.finish().map_err(|e| format!("finish: {e}"))?;
    let finish_s = t.elapsed().as_secs_f64();
    let learn_s = step_s + finish_s;

    if !spec.probe_every_step {
        let (b, q, answers) = probe_graph(&config, &result.graph, pairs)?;
        build_s += b;
        query_s += q;
        builds += 1;
        probe_pairs += pairs.len();
        match answers {
            Some(v) => last_probe = v,
            None => probe_errors += 1,
        }
    }

    let layers = match (clock, split, embed_in_steps) {
        (Some(clock), Some((knn_build_s, init_s)), Some(embed_steps)) => {
            let c = clock.lock().expect("clock lock");
            let densify_s = step_s - c.score_s - embed_steps;
            Some(Layers {
                knn_build_s,
                init_s,
                embed_s: c.embed_s,
                embed_calls: c.embed_calls,
                score_s: c.score_s,
                densify_s,
                scale_s: c.scale_s,
                unattributed_s: learn_s - c.embed_s - c.score_s - densify_s - c.scale_s,
            })
        }
        _ => None,
    };

    Ok(Rep {
        setup_s,
        learn_s,
        probe_build_s: build_s,
        probe_query_s: query_s,
        probe_builds: builds,
        probe_pairs,
        probe_errors,
        steps,
        result,
        last_probe,
        loop_graph,
        layers,
        scale: Factors { one: 1.0, all: 1.0 },
    })
}

/// Repetitions of a one-off probe; the medians are reported, since one
/// probe of a small graph takes only milliseconds.
pub const PROBE_REPEATS: usize = 5;

/// Probe `graph` through the strategy's resistance method on one
/// thread, each repetition on a fresh solver context: median
/// `(build_s, query_s)` over [`PROBE_REPEATS`] and the answers, `None`
/// when any repetition's estimator failed.
pub fn probe_graph(
    config: &SglConfig,
    graph: &Graph,
    pairs: &[(usize, usize)],
) -> Result<(f64, f64, Option<Vec<f64>>), String> {
    let method = resolve_strategy(config)
        .map_err(|e| e.to_string())?
        .resistance_method(config);
    let (mut build, mut query, mut answers) = (Vec::new(), Vec::new(), Some(Vec::new()));
    for _ in 0..PROBE_REPEATS {
        let mut ctx = SolverContext::new(config.solver.clone());
        par::with_threads(1, || {
            let t = Instant::now();
            let est = build_resistance_estimator(graph, method, &mut ctx, config.seed);
            build.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let got = est.and_then(|e| e.resistances(pairs)).ok();
            query.push(t.elapsed().as_secs_f64());
            answers = answers.take().zip(got).map(|(_, v)| v);
        });
    }
    Ok((median(&build), median(&query), answers))
}

/// Number of nonzero eigenvalues compared by `eig_rel_err`.
pub const EIG_K: usize = 10;

/// Reference quantities of the ground truth, computed once per run
/// (the instance is the same in every run).
pub struct Truth {
    pub eigenvalues: Vec<f64>,
    /// Exact resistances of the canonical error-sample pairs.
    pub resistances: Vec<f64>,
}

impl Truth {
    pub fn new(truth: &Graph, pairs: &[(usize, usize)]) -> Result<Self, String> {
        let eigenvalues = smallest_nonzero_eigenvalues(truth, EIG_K, SpectrumMethod::default())
            .map_err(|e| e.to_string())?;
        let resistances =
            pairwise_effective_resistances(truth, pairs).map_err(|e| e.to_string())?;
        Ok(Truth {
            eigenvalues,
            resistances,
        })
    }

    /// `(eig_rel_err, er_rel_err)` of a learned graph over the error
    /// sample `pairs` the truth was computed on.
    pub fn errors(&self, learned: &Graph, pairs: &[(usize, usize)]) -> Result<(f64, f64), String> {
        let eig = smallest_nonzero_eigenvalues(learned, EIG_K, SpectrumMethod::default())
            .map_err(|e| e.to_string())?;
        let eig_err =
            spectrum_comparison_from_values(self.eigenvalues.clone(), eig).mean_relative_error;
        let er = pairwise_effective_resistances(learned, pairs).map_err(|e| e.to_string())?;
        let er_err = self
            .resistances
            .iter()
            .zip(&er)
            .map(|(t, l)| (l - t).abs() / t)
            .sum::<f64>()
            / er.len() as f64;
        Ok((eig_err, er_err))
    }
}
