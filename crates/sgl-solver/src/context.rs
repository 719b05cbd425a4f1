//! [`SolverContext`] — a session-owned cache of the current graph
//! revision's [`SolverHandle`], with an *incremental revision* path for
//! small edge deltas.
//!
//! The SGL loop mutates its learned graph between iterations but solves
//! against a *fixed* graph many times within one iteration (edge
//! scaling, shift-invert embedding, resistance sketching). The context
//! captures exactly that lifecycle: stages call
//! [`handle_for`](SolverContext::handle_for) and share one prepared
//! handle; the owner reports every graph change — either as an explicit
//! low-rank delta through [`apply_deltas`](SolverContext::apply_deltas)
//! / [`apply_scale`](SolverContext::apply_scale), or wholesale through
//! [`invalidate`](SolverContext::invalidate).
//!
//! # The incremental revision model
//!
//! Algorithm 1 adds only `⌈Nβ⌉` edges per iteration, so consecutive
//! graph revisions differ by a *low-rank* Laplacian update
//! `L' = L + B W Bᵀ`. Over a **direct base** — the exact near-tree solve
//! (`TreeDirect`: a spanning-tree elimination plus a Woodbury correction
//! over at most 256 off-tree edges, which `Auto` picks for the learned
//! graphs) or dense Cholesky — `apply_deltas` keeps the base handle and
//! serves a wrapper that runs a short PCG against the *true* updated
//! Laplacian, preconditioned by the base solve wrapped in a
//! [`WoodburyUpdate`] over the accumulated delta edges. That is a
//! near-exact inverse of the updated operator, so the outer PCG settles
//! in 1–2 iterations and results still meet the policy's `rtol` against
//! the current graph, at `O(solve + rank·N)` instead of
//! `O(setup + solve)`.
//!
//! **Iterative bases** (tree-, IC(0)-, AMG- and Jacobi-PCG) are simply
//! rebuilt, exactly as after [`invalidate`](SolverContext::invalidate):
//! a fresh AMG or IC(0) preconditioner needs about half the PCG
//! iterations of the old one run against the updated operator, a fresh
//! spanning tree about as many, and the setup is cheap.
//!
//! A uniform rescale (Step 5) is free on every base: `(c·L)⁺ = L⁺/c`
//! needs no new factorization at all.
//!
//! A full refactorization is also forced when the accumulated delta rank
//! would exceed its cap of 64 edges, and when the correction breaks down
//! numerically (singular capacitance, vanishing merged weight, failed
//! base solve), so the incremental path never serves an unreliable
//! handle.
//! [`revision_stats`](SolverContext::revision_stats) reports how many
//! full builds, incremental updates, and forced refreshes a context
//! performed — the observable cost of the policy.
//!
//! Change detection is `O(1)`: every [`Graph`] mutation moves it to a
//! fresh process-unique [`Graph::revision`], and the context compares
//! epochs instead of rehashing the edge list (the structural fingerprint
//! survives as a debug assertion only).

use crate::backend::{
    PolicyMethod, SolveStats, SolverBackend, SolverHandle, SolverPolicy, StatCell,
};
use crate::fault::{FaultKind, FaultPlan};
use sgl_graph::laplacian::{apply_laplacian_deltas, laplacian_csr};
use sgl_graph::{EdgeDelta, Graph};
use sgl_linalg::cg::{pcg_solve_with, CgOptions, CgWorkspace};
use sgl_linalg::{par, vecops, CsrMatrix, LinalgError, Preconditioner, WoodburyUpdate};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Cap on the accumulated low-rank delta a context absorbs through
/// [`apply_deltas`](SolverContext::apply_deltas) before it falls back to
/// a full refactorization: once the number of distinct delta edges since
/// the last full build would exceed this, the next request rebuilds
/// instead of stacking another Woodbury correction.
const MAX_DELTA_RANK: usize = 64;

/// Lifetime counters of a [`SolverContext`]'s revision machinery: how
/// often it paid for a full factorization versus an incremental
/// correction, and what forced the refreshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RevisionStats {
    /// Full handle builds (factorizations from scratch).
    pub handles_built: usize,
    /// Delta batches absorbed incrementally (Woodbury wraps + scale
    /// wraps) instead of refactoring.
    pub delta_updates: usize,
    /// Total delta-edge columns absorbed incrementally over the
    /// context's lifetime.
    pub delta_rank_applied: usize,
    /// Full refreshes forced by the accumulated rank exceeding its cap
    /// (64 delta edges).
    pub refreshes_on_rank: usize,
    /// Full refreshes forced by numerical breakdown of the correction
    /// (singular capacitance, vanishing merged weight, failed base
    /// solve).
    pub refreshes_on_numeric: usize,
    /// Preconditioner downgrades taken by the degradation ladder
    /// (IC(0)/AMG → tree → Jacobi) after a build breakdown.
    pub precond_downgrades: usize,
}

impl RevisionStats {
    /// Fold another context's counters into this one.
    pub fn absorb(&mut self, other: &RevisionStats) {
        self.handles_built += other.handles_built;
        self.delta_updates += other.delta_updates;
        self.delta_rank_applied += other.delta_rank_applied;
        self.refreshes_on_rank += other.refreshes_on_rank;
        self.refreshes_on_numeric += other.refreshes_on_numeric;
        self.precond_downgrades += other.precond_downgrades;
    }
}

/// The accumulated low-rank state between two full factorizations.
struct DeltaState {
    /// Distinct delta edges since the last full build.
    edges: Vec<(usize, usize)>,
    /// Accumulated signed weight change per delta edge.
    weights: Vec<f64>,
    /// Base solutions `(c·L₀)⁺ b_e`, aligned with `edges` — shared with
    /// every revision's [`WoodburyUpdate`], so pinned revisions hold one
    /// copy of the rows between them.
    z_rows: Vec<Arc<[f64]>>,
    /// Edge → index in the three vectors above, for merging.
    index: HashMap<(usize, usize), usize>,
    /// Uniform factor applied to the base operator since the build
    /// (`apply_scale` products; 1 when never scaled).
    base_scale: f64,
}

impl DeltaState {
    fn fresh() -> Self {
        DeltaState {
            edges: Vec::new(),
            weights: Vec::new(),
            z_rows: Vec::new(),
            index: HashMap::new(),
            base_scale: 1.0,
        }
    }

    fn rank(&self) -> usize {
        self.edges.len()
    }
}

/// Revision-tracked solver cache driven by a [`SolverPolicy`] (see the
/// [module docs](self) for the incremental revision model).
pub struct SolverContext {
    policy: SolverPolicy,
    backend: Box<dyn SolverBackend>,
    /// The handle served to callers: the base itself, or a revision
    /// wrapper around it.
    handle: Option<Arc<dyn SolverHandle>>,
    /// The fully factored handle behind `handle` (identical to it when
    /// no delta has been absorbed).
    base: Option<Arc<dyn SolverHandle>>,
    delta: Option<DeltaState>,
    /// Laplacian CSR of the current revision, maintained incrementally
    /// while the delta path is active (the outer-PCG operator).
    lap: Option<Arc<CsrMatrix>>,
    /// [`Graph::revision`] the served handle was prepared for (`0` =
    /// none yet).
    revision: u64,
    stale: bool,
    stats: RevisionStats,
    /// Fingerprint of the graph the cached handle was built for — the
    /// revision counter's debug-mode witness.
    #[cfg(debug_assertions)]
    fingerprint: u64,
    /// Stats accumulated from handles of *previous* revisions (retired
    /// on rebuild), so the context can report lifetime totals.
    retired_stats: SolveStats,
    /// Deterministic fault-injection schedule, if any (see
    /// [`FaultPlan`]). `None` in production: zero overhead.
    faults: Option<Arc<FaultPlan>>,
}

/// Cheap structural fingerprint (FNV-1a over the edge list). Since the
/// [`Graph::revision`] epoch took over change detection this only backs
/// the `debug_assert` that a served handle matches the graph bit for bit
/// — the O(nnz) hash is never computed in release builds.
#[cfg(debug_assertions)]
fn graph_fingerprint(graph: &Graph) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    };
    mix(graph.num_nodes() as u64);
    mix(graph.num_edges() as u64);
    for e in graph.edges() {
        mix(e.u as u64);
        mix(e.v as u64);
        mix(e.weight.to_bits());
    }
    h
}

impl std::fmt::Debug for SolverContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverContext")
            .field("policy", &self.policy)
            .field("backend", &self.backend.name())
            .field("cached", &self.handle.is_some())
            .field("stale", &self.stale)
            .field(
                "delta_rank",
                &self.delta.as_ref().map_or(0, DeltaState::rank),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

/// What forced a revision to fall back to a full refactorization.
enum Refresh {
    /// The accumulated delta rank would exceed [`MAX_DELTA_RANK`].
    Rank,
    /// The correction broke down numerically.
    Numeric,
}

impl SolverContext {
    /// Create a context for the given policy.
    pub fn new(policy: SolverPolicy) -> Self {
        let backend = policy.backend();
        SolverContext {
            policy,
            backend,
            handle: None,
            base: None,
            delta: None,
            lap: None,
            revision: 0,
            stale: false,
            stats: RevisionStats::default(),
            #[cfg(debug_assertions)]
            fingerprint: 0,
            retired_stats: SolveStats::default(),
            faults: None,
        }
    }

    /// The policy driving this context.
    pub fn policy(&self) -> &SolverPolicy {
        &self.policy
    }

    /// Install a deterministic fault-injection schedule. Every
    /// subsequent handle build, solve through a context-built handle,
    /// and Woodbury correction consults the plan at its opportunity
    /// site. Installing a plan invalidates the cache so already-built
    /// handles don't bypass injection.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
        self.stale = true;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Mark the cached handle stale (the graph changed in a way the
    /// incremental path cannot express — topology removal, bulk edits);
    /// the next [`handle_for`](SolverContext::handle_for) refactors from
    /// scratch. For low-rank changes prefer
    /// [`apply_deltas`](SolverContext::apply_deltas) /
    /// [`apply_scale`](SolverContext::apply_scale), which keep the
    /// existing factorization alive.
    pub fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Schedule a full refactorization for `why`: count it in
    /// [`RevisionStats`], mirror it into the trace/metrics registry
    /// (labelled instant event plus the `solver.refreshes` counter, no-ops
    /// while the recorder is disabled) and mark the cache stale.
    fn refresh(&mut self, why: Refresh) {
        let label = match why {
            Refresh::Rank => {
                self.stats.refreshes_on_rank += 1;
                "rank"
            }
            Refresh::Numeric => {
                self.stats.refreshes_on_numeric += 1;
                "numeric"
            }
        };
        sgl_trace::count("solver.refreshes", 1);
        sgl_trace::trace_event!("handle_refresh", label = label);
        self.stale = true;
    }

    /// Retire every cached handle's counters into the lifetime totals
    /// and drop the cache.
    fn retire_current(&mut self) {
        if let Some(h) = self.handle.take() {
            self.retired_stats.absorb(&h.stats());
            if let Some(b) = self.base.take() {
                if !Arc::ptr_eq(&h, &b) {
                    self.retired_stats.absorb(&b.stats());
                }
            }
        } else if let Some(b) = self.base.take() {
            self.retired_stats.absorb(&b.stats());
        }
        self.delta = None;
        self.lap = None;
    }

    /// The handle for the current graph revision: built from scratch on
    /// first use, served from cache while the [`Graph::revision`] epoch
    /// matches (an `O(1)` check — a mutated graph can never be silently
    /// served a stale handle), and refactored after
    /// [`invalidate`](SolverContext::invalidate) or a scheduled refresh.
    /// Revisions absorbed via
    /// [`apply_deltas`](SolverContext::apply_deltas) /
    /// [`apply_scale`](SolverContext::apply_scale) are served as
    /// corrected wrappers around the cached base factorization.
    ///
    /// # Errors
    /// Propagates [`SolverBackend::build`] failures; the stale cache is
    /// dropped either way.
    pub fn handle_for(&mut self, graph: &Graph) -> Result<Arc<dyn SolverHandle>, LinalgError> {
        let rebuild = self.handle.is_none()
            || self.stale
            || self.revision == 0
            || graph.revision() != self.revision;
        if rebuild {
            self.retire_current();
            let handle = {
                let _sp = sgl_trace::span!("handle_build", count = graph.num_nodes());
                self.build_with_degradation(graph)?
            };
            self.stats.handles_built += 1;
            sgl_trace::count("solver.handles_built", 1);
            self.stale = false;
            self.revision = graph.revision();
            #[cfg(debug_assertions)]
            {
                self.fingerprint = graph_fingerprint(graph);
            }
            self.base = Some(Arc::clone(&handle));
            self.handle = Some(handle);
        } else {
            // The epoch matched: in debug builds, prove the content did
            // too (the counter's contract: equal revisions ⇒ equal
            // graphs).
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                graph_fingerprint(graph),
                self.fingerprint,
                "graph revision matched but content differs — revision contract violated"
            );
        }
        Ok(Arc::clone(self.handle.as_ref().expect("handle just built")))
    }

    /// Build a handle for `graph`, walking the preconditioner
    /// degradation ladder on breakdown: a failed IC(0)/AMG build (real,
    /// or injected via [`FaultKind::IcholBreakdown`]) downgrades to a
    /// spanning-tree preconditioner, then to Jacobi — each successful
    /// downgrade counted in [`RevisionStats::precond_downgrades`]. The
    /// dense reference backend deliberately has no ladder (its size-cap
    /// failure is a configuration contract, not a numerical breakdown).
    /// When a plan schedules [`FaultKind::PcgStagnation`], the built
    /// handle is wrapped so solves consult the plan.
    fn build_with_degradation(
        &mut self,
        graph: &Graph,
    ) -> Result<Arc<dyn SolverHandle>, LinalgError> {
        let injected = self
            .faults
            .as_ref()
            .is_some_and(|p| p.should_fire(FaultKind::IcholBreakdown));
        let primary = if injected {
            Err(FaultPlan::error_for(FaultKind::IcholBreakdown))
        } else {
            self.backend.build(graph)
        };
        let built = match primary {
            Ok(h) => Ok(h),
            Err(err) => {
                let mut recovered = Err(err);
                for &method in downgrade_ladder(self.policy.method) {
                    let fallback = self.policy.clone().with_method(method);
                    if let Ok(h) = fallback.backend().build(graph) {
                        self.stats.precond_downgrades += 1;
                        sgl_trace::count("solver.precond_downgrades", 1);
                        sgl_trace::trace_event!("precond_downgrade", label = method.name());
                        recovered = Ok(h);
                        break;
                    }
                }
                recovered
            }
        }?;
        Ok(match &self.faults {
            Some(plan) if plan.plans(FaultKind::PcgStagnation) => Arc::new(FaultInjectedHandle {
                inner: built,
                plan: Arc::clone(plan),
            }),
            _ => built,
        })
    }

    /// Absorb a low-rank edge delta into the cached factorization
    /// instead of refactoring: call **after** mutating the graph, with
    /// the post-mutation graph and the batch of weight changes just
    /// applied (insertions at `+w`, reweights at `w' − w`). Over a direct
    /// base ([`SolverHandle::is_direct`]) the next
    /// [`handle_for`](SolverContext::handle_for) then serves a corrected
    /// handle — the cached base plus a [`WoodburyUpdate`] over the
    /// accumulated delta edges — that still solves to the policy's
    /// `rtol` against the *updated* operator.
    ///
    /// Schedules a full refactorization instead (exactly the
    /// [`invalidate`](SolverContext::invalidate) behavior) when the base
    /// is iterative or nothing usable is cached, and counts a refresh
    /// when the accumulated rank would exceed the cap or the correction
    /// breaks down numerically. The rebuild is always available, so this
    /// never fails.
    pub fn apply_deltas(&mut self, graph: &Graph, deltas: &[EdgeDelta]) {
        let _sp = sgl_trace::span!("delta_update", count = deltas.len());
        if deltas.is_empty() {
            if self.revision != 0 && graph.revision() != self.revision {
                // The graph moved but the caller reported no delta:
                // nothing to absorb, refactor.
                self.stale = true;
            }
            return;
        }
        // Only a cached direct base takes a Woodbury revision; anything
        // else rebuilds, as after `invalidate`.
        let base = match &self.base {
            Some(base)
                if base.is_direct()
                    && self.handle.is_some()
                    && !self.stale
                    && self.revision != 0 =>
            {
                Arc::clone(base)
            }
            _ => {
                self.stale = true;
                return;
            }
        };
        let n = base.num_nodes();
        if deltas
            .iter()
            .any(|d| d.u >= n || d.v >= n || d.u == d.v || !d.dweight.is_finite())
        {
            self.refresh(Refresh::Numeric);
            return;
        }

        // Merge the batch into the accumulated delta set.
        let mut state = self.delta.take().unwrap_or_else(DeltaState::fresh);
        let mut merged: HashMap<(usize, usize), f64> = HashMap::new();
        for d in deltas {
            let key = (d.u.min(d.v), d.u.max(d.v));
            *merged.entry(key).or_insert(0.0) += d.dweight;
        }
        // Deterministic order: sort the new keys.
        let mut keys: Vec<_> = merged.keys().copied().collect();
        keys.sort_unstable();
        let mut new_edges: Vec<(usize, usize)> = Vec::new();
        for key in keys {
            let dw = merged[&key];
            match state.index.get(&key) {
                Some(&i) => state.weights[i] += dw,
                None => new_edges.push(key),
            }
        }
        let new_rank_added = new_edges.len();
        if state.rank() + new_rank_added > MAX_DELTA_RANK {
            self.refresh(Refresh::Rank);
            return;
        }
        // Every new incidence column needs its base solution, fetched in
        // one batched call through the base factorization.
        if !new_edges.is_empty() {
            let rhs: Vec<Vec<f64>> = new_edges
                .iter()
                .map(|&(u, v)| {
                    let mut b = vec![0.0; n];
                    b[u] = 1.0;
                    b[v] = -1.0;
                    b
                })
                .collect();
            let Ok(zs) = base.solve_batch(&rhs) else {
                self.refresh(Refresh::Numeric);
                return;
            };
            let inv = 1.0 / state.base_scale;
            for (&(u, v), mut z) in new_edges.iter().zip(zs) {
                if state.base_scale != 1.0 {
                    for x in &mut z {
                        *x *= inv;
                    }
                }
                state.index.insert((u, v), state.edges.len());
                state.edges.push((u, v));
                state.weights.push(merged[&(u, v)]);
                state.z_rows.push(z.into());
            }
        }
        // Drop deltas whose merged weight vanished (a perfect undo):
        // they would make W⁻¹ singular while contributing nothing.
        if state.weights.iter().any(|w| w.abs() < 1e-300) {
            let mut kept = DeltaState::fresh();
            kept.base_scale = state.base_scale;
            for i in 0..state.edges.len() {
                if state.weights[i].abs() >= 1e-300 {
                    kept.index.insert(state.edges[i], kept.edges.len());
                    kept.edges.push(state.edges[i]);
                    kept.weights.push(state.weights[i]);
                    kept.z_rows.push(Arc::clone(&state.z_rows[i]));
                }
            }
            state = kept;
        }

        // Maintain the updated-operator CSR incrementally; a pattern
        // miss (genuinely new edge) rebuilds it from the graph. Retire
        // the outgoing wrapper first — it shares this Arc, and dropping
        // it makes the in-place patch genuinely in place instead of a
        // copy-on-write of the whole matrix.
        self.retire_wrapper();
        let lap = match self.lap.take() {
            Some(mut lap) => {
                if apply_laplacian_deltas(Arc::make_mut(&mut lap), deltas) {
                    lap
                } else {
                    Arc::new(laplacian_csr(graph))
                }
            }
            None => Arc::new(laplacian_csr(graph)),
        };

        let Some(correction) = self.correction_for(&base, &state) else {
            self.refresh(Refresh::Numeric);
            return;
        };
        self.stats.delta_rank_applied += new_rank_added;
        sgl_trace::count("solver.delta_updates", 1);
        sgl_trace::count("solver.delta_rank_applied", new_rank_added as u64);
        self.finish_wrap(graph, state, lap, correction);
    }

    /// Pick the correction for the accumulated delta state: nothing at
    /// rank 0 (pure rescale / perfect cancellation), otherwise a
    /// Woodbury-corrected base solve. `None` = the correction broke down
    /// numerically; refactor.
    fn correction_for(
        &self,
        base: &Arc<dyn SolverHandle>,
        state: &DeltaState,
    ) -> Option<Correction> {
        if state.rank() == 0 {
            return Some(Correction::Exact);
        }
        // Injected capacitance singularity: pretend the update broke
        // down so the refreshes_on_numeric recovery path runs.
        if self
            .faults
            .as_ref()
            .is_some_and(|p| p.should_fire(FaultKind::WoodburySingular))
        {
            return None;
        }
        WoodburyUpdate::new(
            base.num_nodes(),
            state.edges.clone(),
            state.weights.clone(),
            state.z_rows.clone(),
        )
        .ok()
        .map(Correction::Woodbury)
    }

    /// Absorb a uniform weight rescale (`w_e ← factor · w_e` for every
    /// edge, Step 5 of Algorithm 1) into the cached factorization:
    /// `(c·L)⁺ = L⁺ / c`, so the corrected handle needs no new solves at
    /// all, over any base. Call **after** `Graph::scale_weights`, with
    /// the post-scale graph. Schedules a refactorization instead when
    /// nothing usable is cached, and counts a refresh when the
    /// accumulated Woodbury correction breaks down numerically.
    ///
    /// # Panics
    /// Panics if `factor` is not positive and finite (the same contract
    /// as `Graph::scale_weights`).
    pub fn apply_scale(&mut self, graph: &Graph, factor: f64) {
        let _sp = sgl_trace::span!("scale_update", value = factor);
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite"
        );
        if self.handle.is_none() || self.stale || self.revision == 0 {
            self.stale = true;
            return;
        }
        let mut state = self.delta.take().unwrap_or_else(DeltaState::fresh);
        state.base_scale *= factor;
        // The accumulated delta edges were scaled along with the rest of
        // the graph; their base solutions shrink by the same factor (new
        // rows: revisions still serving the old scale keep theirs).
        let inv = 1.0 / factor;
        for w in &mut state.weights {
            *w *= factor;
        }
        for z in &mut state.z_rows {
            *z = z.iter().map(|x| x * inv).collect();
        }
        // As in `apply_deltas`: drop the outgoing wrapper before
        // mutating the shared CSR so the rescale stays in place.
        self.retire_wrapper();
        let lap = match self.lap.take() {
            Some(mut lap) => {
                Arc::make_mut(&mut lap).scale_values(factor);
                lap
            }
            None => Arc::new(laplacian_csr(graph)),
        };
        let base = Arc::clone(self.base.as_ref().expect("cached handle implies base"));
        let Some(correction) = self.correction_for(&base, &state) else {
            self.refresh(Refresh::Numeric);
            return;
        };
        self.finish_wrap(graph, state, lap, correction);
    }

    /// Retire the served wrapper's counters and drop it, keeping the
    /// base factorization (and its stats accounting) alive. No-op when
    /// the served handle *is* the base.
    fn retire_wrapper(&mut self) {
        if let Some(old) = self.handle.take() {
            match &self.base {
                Some(b) if Arc::ptr_eq(&old, b) => {}
                _ => self.retired_stats.absorb(&old.stats()),
            }
        }
    }

    /// Install the corrected wrapper for the (post-mutation) graph.
    fn finish_wrap(
        &mut self,
        graph: &Graph,
        state: DeltaState,
        lap: Arc<CsrMatrix>,
        correction: Correction,
    ) {
        let base = Arc::clone(self.base.as_ref().expect("cached handle implies base"));
        // Retire any wrapper still being served (callers usually already
        // did this before mutating the shared CSR).
        self.retire_wrapper();
        let exact = matches!(correction, Correction::Exact);
        let wrapper: Arc<dyn SolverHandle> = if exact && state.base_scale == 1.0 {
            // No correction left at all: the base itself is current.
            Arc::clone(&base)
        } else {
            Arc::new(RevisionedHandle {
                num_nodes: base.num_nodes(),
                base,
                correction,
                inv_scale: 1.0 / state.base_scale,
                op: Arc::clone(&lap),
                rtol: self.policy.rtol,
                max_iter: self.policy.max_iter,
                parallelism: self.policy.parallelism,
                stats: StatCell::default(),
            })
        };
        self.stats.delta_updates += 1;
        self.handle = Some(wrapper);
        self.delta = Some(state);
        self.lap = Some(lap);
        self.revision = graph.revision();
        #[cfg(debug_assertions)]
        {
            self.fingerprint = graph_fingerprint(graph);
        }
    }

    /// The cached handle, if any (no build is triggered).
    pub fn current_handle(&self) -> Option<&Arc<dyn SolverHandle>> {
        self.handle.as_ref()
    }

    /// A clone of the cached handle's `Arc`, if any — shared, read-only
    /// access for concurrent readers (handles are `Send + Sync`). The
    /// clone keeps serving the revision it was built for even after the
    /// context absorbs further deltas: in-place operator patches
    /// copy-on-write when a reader still holds the operator, so a
    /// published handle never changes under its holder.
    pub fn shared_handle(&self) -> Option<Arc<dyn SolverHandle>> {
        self.handle.clone()
    }

    /// How many handles this context has built from scratch — the
    /// observable cost of the reuse policy (and the witness that a
    /// solver-free pipeline never built one). Incremental revisions
    /// absorbed by [`apply_deltas`](SolverContext::apply_deltas) do
    /// **not** count; see
    /// [`revision_stats`](SolverContext::revision_stats) for the full
    /// breakdown.
    pub fn handles_built(&self) -> usize {
        self.stats.handles_built
    }

    /// Accumulated delta rank currently riding on the cached base
    /// factorization (0 when the base is exact for the served
    /// revision).
    pub fn delta_rank(&self) -> usize {
        self.delta.as_ref().map_or(0, DeltaState::rank)
    }

    /// Lifetime revision counters: full builds, incremental updates,
    /// and what forced each refresh.
    pub fn revision_stats(&self) -> RevisionStats {
        self.stats
    }

    /// Lifetime solve statistics: every retired revision's counters plus
    /// the current handles' (zeros if no handle was ever built). While a
    /// corrected wrapper is active this includes the base
    /// factorization's preconditioner solves — the true total work.
    pub fn cumulative_stats(&self) -> SolveStats {
        let mut total = self.retired_stats;
        match (&self.handle, &self.base) {
            (Some(h), Some(b)) => {
                total.absorb(&h.stats());
                if !Arc::ptr_eq(h, b) {
                    total.absorb(&b.stats());
                }
            }
            (Some(h), None) => total.absorb(&h.stats()),
            (None, Some(b)) => total.absorb(&b.stats()),
            (None, None) => {}
        }
        total
    }
}

/// The degradation ladder: which methods to fall back to, in order,
/// when a build breaks down. Strictly toward cheaper, more robust
/// setups — Jacobi cannot break down on a connected Laplacian. Dense
/// Cholesky is excluded on purpose: its failure mode is the
/// `dense_max_nodes` configuration cap, which must surface, not
/// degrade.
fn downgrade_ladder(method: PolicyMethod) -> &'static [PolicyMethod] {
    match method {
        PolicyMethod::Auto | PolicyMethod::IcholPcg | PolicyMethod::AmgPcg => {
            &[PolicyMethod::TreePcg, PolicyMethod::JacobiPcg]
        }
        PolicyMethod::TreePcg | PolicyMethod::TreeDirect => &[PolicyMethod::JacobiPcg],
        _ => &[],
    }
}

/// A [`SolverHandle`] wrapper that consults a [`FaultPlan`] before
/// delegating: one [`FaultKind::PcgStagnation`] opportunity per
/// `solve`/`solve_batch` call, checked on the serial control path
/// before any parallel dispatch (thread-count invariant). Stats pass
/// straight through to the wrapped handle.
struct FaultInjectedHandle {
    inner: Arc<dyn SolverHandle>,
    plan: Arc<FaultPlan>,
}

impl SolverHandle for FaultInjectedHandle {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn method_name(&self) -> &'static str {
        self.inner.method_name()
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.plan.should_fire(FaultKind::PcgStagnation) {
            return Err(FaultPlan::error_for(FaultKind::PcgStagnation));
        }
        self.inner.solve(b)
    }

    fn solve_batch(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        if self.plan.should_fire(FaultKind::PcgStagnation) {
            return Err(FaultPlan::error_for(FaultKind::PcgStagnation));
        }
        self.inner.solve_batch(rhs)
    }

    fn stats(&self) -> SolveStats {
        self.inner.stats()
    }

    fn is_direct(&self) -> bool {
        self.inner.is_direct()
    }
}

// ---------------------------------------------------------------------------
// RevisionedHandle: the corrected wrapper served between refactorizations.
// ---------------------------------------------------------------------------

/// How a [`RevisionedHandle`] bridges the gap between the stale base
/// factorization and the current operator.
enum Correction {
    /// No gap beyond a uniform rescale: `(c·L)⁺ b = L⁺ b / c`, exact,
    /// no outer iteration at all. Any base.
    Exact,
    /// Direct base (exact near-tree solve, dense Cholesky): the
    /// Woodbury-corrected base solve is a near-exact inverse of the
    /// updated operator, so the outer PCG settles in a couple of
    /// iterations. Costs one batched base solve per new delta edge at
    /// preparation.
    Woodbury(WoodburyUpdate),
}

/// A [`SolverHandle`] for graph revision `L' = c·(L₀ + B W Bᵀ)` served
/// without refactoring (see [`Correction`] for the modes): every solve
/// runs against the *true* updated operator, so results still meet the
/// policy `rtol` on the current graph.
struct RevisionedHandle {
    base: Arc<dyn SolverHandle>,
    correction: Correction,
    /// `1 / c` for the accumulated uniform rescale `c`.
    inv_scale: f64,
    /// The updated operator (current revision's Laplacian).
    op: Arc<CsrMatrix>,
    rtol: f64,
    max_iter: usize,
    parallelism: usize,
    stats: StatCell,
    num_nodes: usize,
}

impl RevisionedHandle {
    /// Woodbury-mode preconditioner application: `M⁻¹ r = (1/c) ·
    /// correct(base_solve(r))` — a near-exact inverse of the updated
    /// operator. Base-solve failures land in `error` (the PCG keeps its
    /// infallible signature by seeing zeros) and surface after the
    /// solve.
    fn precondition_via_base(
        &self,
        update: &WoodburyUpdate,
        r: &[f64],
        z: &mut [f64],
        error: &RefCell<Option<LinalgError>>,
    ) {
        if error.borrow().is_some() {
            z.fill(0.0);
            return;
        }
        match self.base.solve(r) {
            Ok(mut y) => {
                update.correct(&mut y);
                if self.inv_scale != 1.0 {
                    for x in &mut y {
                        *x *= self.inv_scale;
                    }
                }
                z.copy_from_slice(&y);
                vecops::project_out_mean(z);
            }
            Err(e) => {
                *error.borrow_mut() = Some(e);
                z.fill(0.0);
            }
        }
    }

    fn solve_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        ws: &mut CgWorkspace,
    ) -> Result<(usize, f64), LinalgError> {
        if b.len() != self.num_nodes {
            return Err(LinalgError::DimensionMismatch {
                context: "laplacian solve rhs",
                expected: self.num_nodes,
                actual: b.len(),
            });
        }
        let opts = CgOptions {
            rtol: self.rtol,
            max_iter: self.max_iter,
            project_mean: true,
            project_apply_input: true,
            ..CgOptions::default()
        };
        match &self.correction {
            Correction::Exact => {
                // Pure rescale: exact, no outer iteration.
                let y = self.base.solve(b)?;
                for (xi, yi) in x.iter_mut().zip(&y) {
                    *xi = yi * self.inv_scale;
                }
                Ok((0, self.base.stats().last_relative_residual))
            }
            Correction::Woodbury(update) => {
                let error: RefCell<Option<LinalgError>> = RefCell::new(None);
                let precond = FnPrecond(|r: &[f64], z: &mut [f64]| {
                    self.precondition_via_base(update, r, z, &error)
                });
                let st = pcg_solve_with(self.op.as_ref(), &precond, b, &opts, ws, x);
                if let Some(e) = error.borrow_mut().take() {
                    return Err(e);
                }
                let st = st?;
                vecops::project_out_mean(x);
                Ok((st.iterations, st.relative_residual))
            }
        }
    }

    /// Whether this wrapper adds its own solve on top of the base's
    /// (`Exact` solves delegate 1:1 to the base, which already records
    /// them — recording here too would double-count).
    fn records_own_stats(&self) -> bool {
        !matches!(self.correction, Correction::Exact)
    }
}

/// Closure adapter for the [`Preconditioner`] trait.
struct FnPrecond<F: Fn(&[f64], &mut [f64])>(F);

impl<F: Fn(&[f64], &mut [f64])> Preconditioner for FnPrecond<F> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (self.0)(r, z)
    }
}

impl SolverHandle for RevisionedHandle {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn method_name(&self) -> &'static str {
        match &self.correction {
            Correction::Exact => "revision-scaled",
            Correction::Woodbury(_) => "revision-woodbury",
        }
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.num_nodes];
        let (iters, residual) = self.solve_into(b, &mut x, &mut CgWorkspace::new())?;
        if self.records_own_stats() {
            self.stats.record(1, iters, residual);
        }
        Ok(x)
    }

    fn solve_batch(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        if self.records_own_stats() {
            self.stats.record_batch();
        }
        let n = self.num_nodes;
        // Same fan-out contract as the backend handles: independent
        // per-RHS solves over per-worker scratch, results and stats in
        // RHS order (bit-identical at any thread count).
        let solved: Vec<(Vec<f64>, (usize, f64))> =
            par::with_threads_hint(self.parallelism, || {
                par::try_map_chunked(rhs.len(), 1, |range| {
                    let mut ws = CgWorkspace::new();
                    range
                        .map(|i| {
                            let mut x = vec![0.0; n];
                            let st = self.solve_into(&rhs[i], &mut x, &mut ws)?;
                            Ok((x, st))
                        })
                        .collect()
                })
            })?;
        // Post-join, in RHS order: the stat counters are independent of
        // thread scheduling.
        let mut out = Vec::with_capacity(solved.len());
        for (x, (iters, residual)) in solved {
            if self.records_own_stats() {
                self.stats.record(1, iters, residual);
            }
            out.push(x);
        }
        Ok(out)
    }

    fn stats(&self) -> SolveStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PolicyMethod;
    use sgl_datasets::grid2d;
    use sgl_linalg::Rng;

    /// The dense Cholesky reference: a direct base on any small graph.
    fn dense() -> SolverPolicy {
        SolverPolicy::default().with_method(PolicyMethod::DenseCholesky)
    }

    fn mean_zero_rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = rng.normal_vec(n);
        vecops::project_out_mean(&mut b);
        b
    }

    #[test]
    fn per_revision_reuses_until_invalidated() {
        let g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        assert_eq!(ctx.handles_built(), 0);
        let a = ctx.handle_for(&g).unwrap();
        let b = ctx.handle_for(&g).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same revision must share the handle");
        assert_eq!(ctx.handles_built(), 1);
        ctx.invalidate();
        let c = ctx.handle_for(&g).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "invalidate must rebuild");
        assert_eq!(ctx.handles_built(), 2);
    }

    #[test]
    fn cumulative_stats_survive_rebuilds() {
        let g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        assert_eq!(ctx.cumulative_stats(), Default::default());
        let b = {
            let mut v = vec![0.0; 25];
            v[0] = 1.0;
            v[24] = -1.0;
            v
        };
        ctx.handle_for(&g).unwrap().solve(&b).unwrap();
        ctx.invalidate();
        ctx.handle_for(&g).unwrap().solve(&b).unwrap();
        let total = ctx.cumulative_stats();
        assert_eq!(total.solves, 2, "retired handle's solves must be kept");
        assert!(total.last_relative_residual >= 0.0);
    }

    #[test]
    fn node_count_change_rebuilds() {
        let mut ctx = SolverContext::new(SolverPolicy::default());
        ctx.handle_for(&grid2d(4, 4)).unwrap();
        let h = ctx.handle_for(&grid2d(5, 5)).unwrap();
        assert_eq!(h.num_nodes(), 25);
        assert_eq!(ctx.handles_built(), 2);
    }

    #[test]
    fn silent_graph_mutation_is_caught_by_the_revision() {
        // Same node count, mutated weights, no invalidate() — the O(1)
        // revision check must not serve the handle factored for the old
        // graph.
        let mut g = grid2d(4, 4);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        let a = ctx.handle_for(&g).unwrap();
        g.scale_weights(3.0);
        let b = ctx.handle_for(&g).unwrap();
        assert!(
            !Arc::ptr_eq(&a, &b),
            "stale handle served for mutated graph"
        );
        assert_eq!(ctx.handles_built(), 2);
        // R(0,1)-style sanity: the new handle solves the scaled system.
        let mut rhs = vec![0.0; 16];
        rhs[0] = 1.0;
        rhs[15] = -1.0;
        let xa = a.solve(&rhs).unwrap();
        let xb = b.solve(&rhs).unwrap();
        assert!(((xa[0] - xa[15]) / (xb[0] - xb[15]) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn same_revision_clone_shares_the_handle() {
        // A clone carries its original's revision and identical content:
        // the O(1) check may (and does) reuse the cached handle.
        let g = grid2d(5, 5);
        let clone = g.clone();
        let mut ctx = SolverContext::new(SolverPolicy::default());
        let a = ctx.handle_for(&g).unwrap();
        let b = ctx.handle_for(&clone).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.handles_built(), 1);
    }

    #[test]
    fn failed_build_drops_stale_cache() {
        let g = grid2d(4, 4);
        let policy = SolverPolicy::default().with_method(PolicyMethod::DenseCholesky);
        let mut ctx = SolverContext::new(SolverPolicy {
            dense_max_nodes: 16,
            ..policy
        });
        ctx.handle_for(&g).unwrap();
        ctx.invalidate();
        assert!(ctx.handle_for(&grid2d(6, 6)).is_err());
        assert!(ctx.current_handle().is_none());
    }

    /// Solve through a context handle and compare against a fresh
    /// factorization of the same graph.
    fn assert_matches_fresh(ctx: &mut SolverContext, g: &Graph, seed: u64, tol: f64) {
        let n = g.num_nodes();
        let b = mean_zero_rhs(n, seed);
        let x = ctx.handle_for(g).unwrap().solve(&b).unwrap();
        let fresh = SolverPolicy::default().build_handle(g).unwrap();
        let y = fresh.solve(&b).unwrap();
        let d = vecops::sub(&x, &y);
        assert!(
            vecops::norm2(&d) / vecops::norm2(&y).max(1e-300) < tol,
            "corrected solve drifted from fresh factorization: {}",
            vecops::norm2(&d)
        );
    }

    #[test]
    fn apply_deltas_solves_like_a_fresh_factorization() {
        let mut g = grid2d(6, 6);
        let mut ctx = SolverContext::new(dense());
        ctx.handle_for(&g).unwrap();
        // Insert three chords and bump an existing edge.
        let mut deltas = Vec::new();
        for &(u, v, w) in &[(0usize, 14usize, 0.8), (3, 27, 1.3), (10, 35, 0.5)] {
            g.add_edge(u, v, w);
            deltas.push(EdgeDelta::insert(u, v, w));
        }
        let e0 = g.edge(0);
        g.set_weight(0, e0.weight * 2.0);
        deltas.push(EdgeDelta::reweight(e0.u, e0.v, e0.weight, e0.weight * 2.0));
        ctx.apply_deltas(&g, &deltas);
        assert_eq!(ctx.handles_built(), 1, "delta batch must not refactor");
        assert_eq!(ctx.delta_rank(), 4);
        let h = ctx.handle_for(&g).unwrap();
        assert_eq!(h.method_name(), "revision-woodbury");
        assert_eq!(ctx.handles_built(), 1);
        assert_matches_fresh(&mut ctx, &g, 1, 1e-8);
        let st = ctx.revision_stats();
        assert_eq!(st.delta_updates, 1);
        assert_eq!(st.delta_rank_applied, 4);
    }

    #[test]
    fn stacked_delta_batches_keep_matching() {
        let mut g = grid2d(6, 6);
        let mut ctx = SolverContext::new(dense());
        ctx.handle_for(&g).unwrap();
        let mut rng = Rng::seed_from_u64(42);
        for round in 0..4 {
            let mut deltas = Vec::new();
            for _ in 0..3 {
                let u = rng.below(36);
                let v = rng.below(36);
                if u == v {
                    continue;
                }
                let w = 0.3 + rng.uniform();
                g.add_edge(u, v, w);
                deltas.push(EdgeDelta::insert(u, v, w));
            }
            ctx.apply_deltas(&g, &deltas);
            assert_matches_fresh(&mut ctx, &g, 100 + round, 1e-8);
        }
        assert_eq!(ctx.handles_built(), 1, "all four batches absorbed");
        assert!(ctx.revision_stats().delta_updates >= 4);
    }

    #[test]
    fn rank_cap_forces_refactor() {
        // Diagonal chords (i, i + 11) of a 10x10 grid: never grid edges,
        // all distinct.
        let mut g = grid2d(10, 10);
        let mut ctx = SolverContext::new(dense());
        ctx.handle_for(&g).unwrap();
        let deltas: Vec<EdgeDelta> = (0..MAX_DELTA_RANK)
            .map(|i| {
                g.add_edge(i, i + 11, 1.0);
                EdgeDelta::insert(i, i + 11, 1.0)
            })
            .collect();
        ctx.apply_deltas(&g, &deltas);
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 1);
        assert_eq!(ctx.delta_rank(), MAX_DELTA_RANK);
        // One more distinct edge exceeds the cap: full refactor.
        let i = MAX_DELTA_RANK;
        g.add_edge(i, i + 11, 1.0);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(i, i + 11, 1.0)]);
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 2);
        assert_eq!(ctx.revision_stats().refreshes_on_rank, 1);
        assert_eq!(ctx.delta_rank(), 0, "refresh clears the delta state");
        assert_matches_fresh(&mut ctx, &g, 7, 1e-8);
    }

    #[test]
    fn apply_scale_is_exact_and_free() {
        // Auto on a mesh builds AMG-PCG: rescales stay free even there.
        let mut g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        let before = ctx.handle_for(&g).unwrap();
        let b = mean_zero_rhs(25, 3);
        let x0 = before.solve(&b).unwrap();
        g.scale_weights(4.0);
        ctx.apply_scale(&g, 4.0);
        let after = ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 1, "rescale must not refactor");
        assert_eq!(after.method_name(), "revision-scaled");
        let x1 = after.solve(&b).unwrap();
        for (a, b) in x0.iter().zip(&x1) {
            assert!((a / 4.0 - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_matches_fresh(&mut ctx, &g, 4, 1e-8);
    }

    #[test]
    fn deltas_then_scale_compose() {
        let mut g = grid2d(6, 6);
        let mut ctx = SolverContext::new(dense());
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 14, 0.7);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 14, 0.7)]);
        g.scale_weights(2.5);
        ctx.apply_scale(&g, 2.5);
        assert_eq!(ctx.handles_built(), 1);
        assert_matches_fresh(&mut ctx, &g, 5, 1e-8);
        // And a delta on top of the scale still composes.
        g.add_edge(2, 20, 1.1);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(2, 20, 1.1)]);
        assert_eq!(ctx.handles_built(), 1);
        assert_matches_fresh(&mut ctx, &g, 6, 1e-8);
    }

    #[test]
    fn deltas_without_a_cached_handle_fall_back_to_stale() {
        let mut g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        // No handle yet: apply_deltas is a no-op schedule.
        g.add_edge(0, 7, 1.0);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 7, 1.0)]);
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 1);
        assert_eq!(ctx.revision_stats().delta_updates, 0);
    }

    #[test]
    fn unreported_mutation_with_empty_delta_refactors() {
        let mut g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 7, 1.0);
        // Caller reports "no delta" for a moved graph: the context must
        // not pretend the cached handle still matches.
        ctx.apply_deltas(&g, &[]);
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 2);
    }

    #[test]
    fn delta_equivalence_across_every_backend_method() {
        // Direct bases absorb the batch as a Woodbury revision; iterative
        // ones rebuild under their own method. Both match a fresh
        // factorization.
        for method in [
            PolicyMethod::TreePcg,
            PolicyMethod::AmgPcg,
            PolicyMethod::JacobiPcg,
            PolicyMethod::IcholPcg,
            PolicyMethod::TreeDirect,
            PolicyMethod::DenseCholesky,
        ] {
            let mut g = grid2d(6, 6);
            let mut ctx = SolverContext::new(SolverPolicy::default().with_method(method));
            let direct = ctx.handle_for(&g).unwrap().is_direct();
            g.add_edge(0, 13, 0.9);
            g.add_edge(7, 29, 1.4);
            ctx.apply_deltas(
                &g,
                &[EdgeDelta::insert(0, 13, 0.9), EdgeDelta::insert(7, 29, 1.4)],
            );
            let h = ctx.handle_for(&g).unwrap();
            let st = ctx.revision_stats();
            if direct {
                assert_eq!(h.method_name(), "revision-woodbury", "{method:?}");
                assert_eq!((st.handles_built, st.delta_updates), (1, 1), "{method:?}");
            } else {
                assert_eq!(h.method_name(), method.name(), "{method:?}");
                assert_eq!((st.handles_built, st.delta_updates), (2, 0), "{method:?}");
            }
            assert_matches_fresh(&mut ctx, &g, 11, 1e-7);
        }
    }

    #[test]
    fn injected_breakdown_walks_the_downgrade_ladder() {
        let g = grid2d(5, 5);
        let mut ctx =
            SolverContext::new(SolverPolicy::default().with_method(PolicyMethod::IcholPcg));
        let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::IcholBreakdown, 0));
        ctx.set_fault_plan(Arc::clone(&plan));
        let h = ctx.handle_for(&g).unwrap();
        assert_eq!(h.method_name(), "tree-pcg", "first rung of the ladder");
        assert_eq!(ctx.revision_stats().precond_downgrades, 1);
        assert_eq!(plan.injected_count(), 1);
        // The downgraded handle still solves to policy tolerance.
        assert_matches_fresh(&mut ctx, &g, 21, 1e-8);
        // The next rebuild is past the trigger: back to the primary.
        ctx.invalidate();
        let h2 = ctx.handle_for(&g).unwrap();
        assert_eq!(h2.method_name(), "ichol-pcg");
        assert_eq!(ctx.revision_stats().precond_downgrades, 1);
    }

    #[test]
    fn injected_stagnation_surfaces_then_recovers() {
        let g = grid2d(5, 5);
        let mut ctx = SolverContext::new(SolverPolicy::default());
        let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::PcgStagnation, 0));
        ctx.set_fault_plan(Arc::clone(&plan));
        let h = ctx.handle_for(&g).unwrap();
        let b = mean_zero_rhs(25, 5);
        assert!(matches!(h.solve(&b), Err(LinalgError::NotConverged { .. })));
        // The trigger is spent: the very same handle serves the retry.
        h.solve(&b).unwrap();
        assert_eq!(plan.injected_count(), 1);
        assert_eq!(h.stats().solves, 1, "the injected failure is not a solve");
    }

    #[test]
    fn injected_woodbury_singularity_forces_refresh() {
        let n = 20;
        let mut g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0)));
        let mut ctx =
            SolverContext::new(SolverPolicy::default().with_method(PolicyMethod::TreeDirect));
        let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::WoodburySingular, 0));
        ctx.set_fault_plan(Arc::clone(&plan));
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 10, 0.5);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 10, 0.5)]);
        assert_eq!(plan.injected_count(), 1);
        assert_eq!(ctx.revision_stats().refreshes_on_numeric, 1);
        // Recovery: the next handle is a clean refactorization.
        ctx.handle_for(&g).unwrap();
        assert_eq!(ctx.handles_built(), 2);
        assert_matches_fresh(&mut ctx, &g, 22, 1e-8);
    }

    #[test]
    fn revisions_share_base_solution_rows() {
        // Two pinned revisions over a growing delta set hold the first
        // batch's rows once between them, not one copy each.
        let n = 30;
        let mut g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0)));
        let mut ctx = SolverContext::new(SolverPolicy::default());
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 15, 0.5);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 15, 0.5)]);
        let first = ctx.handle_for(&g).unwrap();
        g.add_edge(7, 22, 1.0);
        ctx.apply_deltas(&g, &[EdgeDelta::insert(7, 22, 1.0)]);
        let second = ctx.handle_for(&g).unwrap();
        assert_eq!(second.method_name(), "revision-woodbury");
        let row = &ctx.delta.as_ref().unwrap().z_rows[0];
        // The context's state plus one reference per live revision.
        assert_eq!(Arc::strong_count(row), 3);
        drop((first, second));
        let row = &ctx.delta.as_ref().unwrap().z_rows[0];
        assert_eq!(Arc::strong_count(row), 2, "the context still serves one");
    }

    #[test]
    fn near_tree_base_stays_exact_across_stacked_batches() {
        // Auto on a tree plus a few chords builds the direct near-tree
        // solve; its revisions run in Woodbury mode and every corrected
        // solve settles within 3 outer iterations until the rank cap
        // forces the rebuild.
        let n = 200;
        let mut rng = Rng::seed_from_u64(77);
        let weight = |rng: &mut Rng| 10f64.powf(rng.uniform_in(-2.0, 2.0));
        let mut g = Graph::new(n);
        for v in 1..n {
            let w = weight(&mut rng);
            g.add_edge(rng.below(v), v, w);
        }
        let chord = |g: &mut Graph, rng: &mut Rng| loop {
            let (u, v) = (rng.below(n), rng.below(n));
            if u != v && !g.has_edge(u, v) {
                let w = weight(rng);
                g.add_edge(u, v, w);
                return EdgeDelta::insert(u, v, w);
            }
        };
        for _ in 0..8 {
            chord(&mut g, &mut rng);
        }
        let mut ctx = SolverContext::new(SolverPolicy::default());
        assert_eq!(ctx.handle_for(&g).unwrap().method_name(), "tree-direct");
        let batch = 8;
        for round in 0.. {
            let deltas: Vec<EdgeDelta> = (0..batch).map(|_| chord(&mut g, &mut rng)).collect();
            ctx.apply_deltas(&g, &deltas);
            let h = ctx.handle_for(&g).unwrap();
            if ctx.handles_built() > 1 {
                assert_eq!(round * batch, MAX_DELTA_RANK, "refreshed before the cap");
                assert_eq!(ctx.revision_stats().refreshes_on_rank, 1);
                break;
            }
            assert_eq!(h.method_name(), "revision-woodbury");
            for seed in 0..3 {
                let before = h.stats().iterations;
                h.solve(&mean_zero_rhs(n, 1000 + seed)).unwrap();
                let iters = h.stats().iterations - before;
                assert!(iters <= 3, "round {round}: {iters} outer iterations");
            }
            assert_matches_fresh(&mut ctx, &g, 200 + round as u64, 1e-8);
        }
    }

    #[test]
    fn tree_base_with_off_tree_deltas_is_the_classic_case() {
        // Exact O(N) tree solve + Woodbury over the off-tree chords: the
        // corrected preconditioner is an exact inverse, so the outer PCG
        // settles in a couple of iterations.
        let n = 30;
        let mut g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0 + 0.1 * i as f64)));
        let mut ctx =
            SolverContext::new(SolverPolicy::default().with_method(PolicyMethod::TreeDirect));
        ctx.handle_for(&g).unwrap();
        g.add_edge(0, 15, 0.5);
        g.add_edge(7, 22, 1.0);
        ctx.apply_deltas(
            &g,
            &[EdgeDelta::insert(0, 15, 0.5), EdgeDelta::insert(7, 22, 1.0)],
        );
        let h = ctx.handle_for(&g).unwrap();
        let b = mean_zero_rhs(n, 9);
        h.solve(&b).unwrap();
        assert_eq!(ctx.handles_built(), 1);
        assert!(
            h.stats().iterations <= 4,
            "near-exact preconditioner should converge almost immediately, took {}",
            h.stats().iterations
        );
        assert_matches_fresh(&mut ctx, &g, 10, 1e-8);
    }
}
