//! Round-trip contract of `sgl-graph::io`: read → write → read must
//! reproduce the graph exactly for both matrix interpretations, and
//! malformed headers must be rejected, not guessed around.

use sgl_graph::io::{
    read_matrix_market, write_matrix_market, write_matrix_market_kind, IoError, MatrixKind,
};
use sgl_graph::Graph;
use std::io::Cursor;

fn sample_graph() -> Graph {
    Graph::from_edges(
        7,
        [
            (0, 1, 1.0),
            (1, 2, 0.5),
            (2, 3, 2.0),
            (3, 4, 1e-7),
            (4, 5, 3.25),
            (5, 6, 7.0),
            (0, 6, 0.125),
            (2, 5, 1.0 / 3.0),
        ],
    )
}

/// The sample graph plus seeded random connected graphs with weights
/// over six decades.
fn sample_graphs() -> Vec<Graph> {
    let mut graphs = vec![sample_graph()];
    for seed in [1u64, 2, 3, 4, 5] {
        let mut rng = sgl_linalg::Rng::seed_from_u64(seed);
        let n = 2 + rng.below(14);
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge(rng.below(v), v, 10f64.powf(rng.uniform_in(-3.0, 3.0)));
        }
        for _ in 0..rng.below(15) {
            let (u, v) = (rng.below(n), rng.below(n));
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v, 10f64.powf(rng.uniform_in(-3.0, 3.0)));
            }
        }
        graphs.push(g);
    }
    graphs
}

fn assert_graphs_equal(a: &Graph, b: &Graph) {
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_eq!(a.num_edges(), b.num_edges());
    for e in a.edges() {
        let i = b
            .find_edge(e.u, e.v)
            .unwrap_or_else(|| panic!("edge ({}, {}) missing after round-trip", e.u, e.v));
        assert_eq!(
            b.edge(i).weight,
            e.weight,
            "edge ({}, {}) weight drifted",
            e.u,
            e.v
        );
    }
}

fn roundtrip(g: &Graph, kind: MatrixKind) -> Graph {
    let mut buf = Vec::new();
    write_matrix_market_kind(&mut buf, g, kind).unwrap();
    read_matrix_market(Cursor::new(buf), kind).unwrap()
}

#[test]
fn adjacency_roundtrip_is_exact() {
    // read(write(g)) == g, and a second round-trip is a fixed point.
    for g in sample_graphs() {
        let once = roundtrip(&g, MatrixKind::Adjacency);
        assert_graphs_equal(&g, &once);
        let twice = roundtrip(&once, MatrixKind::Adjacency);
        assert_graphs_equal(&once, &twice);
    }
}

#[test]
fn laplacian_roundtrip_is_exact() {
    // read(write(g)) == g, and a second round-trip is a fixed point.
    for g in sample_graphs() {
        let once = roundtrip(&g, MatrixKind::Laplacian);
        assert_graphs_equal(&g, &once);
        let twice = roundtrip(&once, MatrixKind::Laplacian);
        assert_graphs_equal(&once, &twice);
    }
}

#[test]
fn laplacian_output_carries_degrees_and_negative_offdiagonals() {
    let g = Graph::from_edges(3, [(0, 1, 2.0), (1, 2, 4.0)]);
    let mut buf = Vec::new();
    write_matrix_market_kind(&mut buf, &g, MatrixKind::Laplacian).unwrap();
    let text = String::from_utf8(buf).unwrap();
    // Size line: N + |E| stored entries.
    assert!(text.contains("3 3 5"), "size line wrong:\n{text}");
    // Weighted degree of node 1 is 6, off-diagonals are negated.
    assert!(text.contains("2 2 6"), "diagonal missing:\n{text}");
    assert!(text.contains("2 1 -2"), "off-diagonal sign wrong:\n{text}");
    // An adjacency read of Laplacian output must fail (negative weights).
    assert!(read_matrix_market(Cursor::new(text.into_bytes()), MatrixKind::Adjacency).is_err());
}

#[test]
fn adjacency_writer_shorthand_matches_kind_writer() {
    let g = sample_graph();
    let mut a = Vec::new();
    let mut b = Vec::new();
    write_matrix_market(&mut a, &g).unwrap();
    write_matrix_market_kind(&mut b, &g, MatrixKind::Adjacency).unwrap();
    assert_eq!(a, b);
}

#[test]
fn malformed_headers_are_rejected() {
    for (text, what) in [
        ("1 1 0\n", "missing banner"),
        (
            "%%MatrixMarket matrix array real general\n2 2\n",
            "array storage",
        ),
        (
            "%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n2 1 1.0 0.0\n",
            "complex field",
        ),
        ("", "empty file"),
        (
            "%%MatrixMarket matrix coordinate real symmetric\n2 2\n",
            "short size line",
        ),
    ] {
        for kind in [MatrixKind::Adjacency, MatrixKind::Laplacian] {
            let r = read_matrix_market(Cursor::new(text.as_bytes().to_vec()), kind);
            assert!(
                matches!(r, Err(IoError::Parse { .. })),
                "{what} accepted under {kind:?}"
            );
        }
    }
}
