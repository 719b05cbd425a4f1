//! Every refresh a `SolverContext` counts in `RevisionStats` also reaches
//! the `solver.refreshes` trace counter. This file is its own test binary
//! because the metrics registry is process-global: no other test can bump
//! the counter while this one reads it.

use sgl_graph::{EdgeDelta, Graph};
use sgl_solver::{FaultKind, FaultPlan, PolicyMethod, SolverContext, SolverPolicy};
use std::sync::Arc;

#[test]
fn numeric_refresh_in_apply_scale_is_traced() {
    let n = 20;
    let mut g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0)));
    let mut ctx = SolverContext::new(SolverPolicy::default().with_method(PolicyMethod::TreeDirect));
    // Opportunity 0 is the delta's Woodbury assembly, 1 the rescale's.
    let plan = Arc::new(FaultPlan::new().with_fault(FaultKind::WoodburySingular, 1));
    ctx.set_fault_plan(Arc::clone(&plan));
    ctx.handle_for(&g).unwrap();

    sgl_trace::enable();
    sgl_trace::reset_metrics();
    sgl_trace::clear();
    g.add_edge(0, 10, 0.5);
    ctx.apply_deltas(&g, &[EdgeDelta::insert(0, 10, 0.5)]);
    g.scale_weights(2.0);
    ctx.apply_scale(&g, 2.0);
    sgl_trace::disable();

    assert_eq!(plan.injected_count(), 1);
    let st = ctx.revision_stats();
    assert_eq!((st.delta_updates, st.refreshes_on_numeric), (1, 1));
    assert_eq!(sgl_trace::counter("solver.refreshes").get(), 1);
    let labels: Vec<_> = sgl_trace::take_events()
        .into_iter()
        .filter(|e| e.name == "handle_refresh")
        .map(|e| e.payload)
        .collect();
    assert_eq!(labels, [sgl_trace::Payload::Label("numeric")]);

    // Recovery: the next handle is a clean refactorization of the base.
    assert_eq!(ctx.handle_for(&g).unwrap().method_name(), "tree-direct");
    assert_eq!(ctx.handles_built(), 2);
}
