//! Graph serialization: Matrix Market and whitespace edge lists.
//!
//! Real SDD systems usually arrive as sparse symmetric matrices in Matrix
//! Market files or as weighted edge lists; these helpers let the solver be
//! used on external inputs and let experiment workloads be exported for
//! inspection by other tools. The text readers stream line-by-line through
//! one reused buffer, so peak memory is the parsed edge list alone — never
//! the file bytes on top of it.

use std::io::{BufRead, Write};

use crate::builder::GraphBuilder;
use crate::graph::{check_scale, Edge, Graph, GraphDataError};

/// Errors produced while reading a graph.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input was syntactically or semantically malformed.
    Parse(String),
    /// The input parsed but describes an invalid graph (non-finite or
    /// non-positive weight, out-of-range endpoint). The line number of
    /// the offending record is included when known.
    InvalidGraph {
        /// 1-based line of the offending record (`0` when unknown).
        line: usize,
        /// The structural defect.
        error: GraphDataError,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(msg) => write!(f, "parse error: {msg}"),
            IoError::InvalidGraph { line, error } => {
                write!(f, "invalid graph data at line {line}: {error}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> IoError {
    IoError::Parse(msg.into())
}

/// Writes the graph as a weighted edge list: one `u v w` line per edge,
/// preceded by a `# n m` header comment. Vertices are 0-based.
pub fn write_edge_list<W: Write>(g: &Graph, mut out: W) -> Result<(), IoError> {
    writeln!(out, "# {} {}", g.n(), g.m())?;
    for e in g.edges() {
        writeln!(out, "{} {} {}", e.u, e.v, e.w)?;
    }
    Ok(())
}

/// Reads a weighted edge list written by [`write_edge_list`] (or any file
/// of `u v [w]` lines; a missing weight defaults to 1, `#`/`%` lines are
/// comments). The vertex count is the header's if present, otherwise
/// `max id + 1`.
pub fn read_edge_list<R: BufRead>(mut input: R) -> Result<Graph, IoError> {
    let mut declared_n: Option<usize> = None;
    let mut edges: Vec<Edge> = Vec::new();
    let mut max_vertex = 0u32;
    // One reused line buffer: `BufRead::lines` allocates a String per line,
    // which at 10M-edge scale is 10M short-lived allocations and a second
    // copy of every byte. `read_line` into a cleared buffer streams the
    // file with constant parser memory.
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            // Optional "# n m" header.
            let mut it = rest.split_whitespace();
            if let (Some(n), Some(_m)) = (it.next(), it.next()) {
                if let Ok(n) = n.parse::<usize>() {
                    declared_n = Some(n);
                }
            }
            continue;
        }
        if trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let u: u32 = it
            .next()
            .ok_or_else(|| parse_err(format!("line {}: missing source", lineno)))?
            .parse()
            .map_err(|e| parse_err(format!("line {}: bad source ({e})", lineno)))?;
        let v: u32 = it
            .next()
            .ok_or_else(|| parse_err(format!("line {}: missing target", lineno)))?
            .parse()
            .map_err(|e| parse_err(format!("line {}: bad target ({e})", lineno)))?;
        let w: f64 = match it.next() {
            Some(tok) => tok
                .parse()
                .map_err(|e| parse_err(format!("line {}: bad weight ({e})", lineno)))?,
            None => 1.0,
        };
        if u == v {
            continue; // ignore self loops in external data
        }
        // Reject invalid records with their line number instead of letting
        // the graph constructor panic on them later.
        if !w.is_finite() {
            return Err(IoError::InvalidGraph {
                line: lineno,
                error: GraphDataError::NonFiniteWeight {
                    edge: edges.len(),
                    weight: w,
                },
            });
        }
        if w <= 0.0 {
            return Err(IoError::InvalidGraph {
                line: lineno,
                error: GraphDataError::NonPositiveWeight {
                    edge: edges.len(),
                    weight: w,
                },
            });
        }
        if let Some(n) = declared_n {
            let ghost = if u as usize >= n {
                Some(u)
            } else if v as usize >= n {
                Some(v)
            } else {
                None
            };
            if let Some(endpoint) = ghost {
                return Err(IoError::InvalidGraph {
                    line: lineno,
                    error: GraphDataError::EndpointOutOfRange {
                        edge: edges.len(),
                        endpoint,
                        n,
                    },
                });
            }
        }
        max_vertex = max_vertex.max(u).max(v);
        edges.push(Edge::new(u, v, w));
    }
    // A header bounds the vertex set (ghosts were rejected above);
    // without one the set grows to cover every mentioned id. Every record
    // was validated inline, so the edge list moves straight into the
    // constructor — no second copy through a builder.
    let n = declared_n.unwrap_or(max_vertex as usize + 1);
    check_scale(n, edges.len()).map_err(|error| IoError::InvalidGraph { line: 0, error })?;
    Ok(Graph::from_edges_unchecked(n, edges))
}

/// Writes the graph's Laplacian structure as a symmetric Matrix Market
/// coordinate file (`%%MatrixMarket matrix coordinate real symmetric`),
/// listing only the lower triangle of the *adjacency* (off-diagonal)
/// entries with negative sign plus the diagonal, i.e. the Laplacian itself.
pub fn write_matrix_market_laplacian<W: Write>(g: &Graph, mut out: W) -> Result<(), IoError> {
    writeln!(out, "%%MatrixMarket matrix coordinate real symmetric")?;
    writeln!(out, "% Laplacian exported by parsdd")?;
    let nnz = g.m() + g.n();
    writeln!(out, "{} {} {}", g.n(), g.n(), nnz)?;
    // Diagonal (weighted degrees).
    for v in 0..g.n() {
        writeln!(out, "{} {} {}", v + 1, v + 1, g.weighted_degree(v as u32))?;
    }
    // Strict lower triangle of the off-diagonal part.
    for e in g.edges() {
        let (hi, lo) = if e.u > e.v { (e.u, e.v) } else { (e.v, e.u) };
        writeln!(out, "{} {} {}", hi + 1, lo + 1, -e.w)?;
    }
    Ok(())
}

/// Reads a symmetric Matrix Market coordinate file describing either a
/// Laplacian / SDD matrix (off-diagonals ≤ 0, diagonal ignored) or a plain
/// adjacency matrix (off-diagonals > 0). Off-diagonal entries become edges
/// with weight `|value|`; diagonal entries are ignored. 1-based indices.
pub fn read_matrix_market_graph<R: BufRead>(mut input: R) -> Result<Graph, IoError> {
    // Reused line buffer — same streaming discipline as `read_edge_list`.
    let mut line = String::new();
    if input.read_line(&mut line)? == 0 {
        return Err(parse_err("empty file"));
    }
    let header = line.trim_end();
    if !header.starts_with("%%MatrixMarket") {
        return Err(parse_err("missing MatrixMarket header"));
    }
    let lower = header.to_lowercase();
    if !lower.contains("coordinate") || !lower.contains("real") {
        return Err(parse_err("only real coordinate matrices are supported"));
    }
    // Skip comments, read the size line.
    let mut size_line = None;
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let mut it = size_line.split_whitespace();
    let rows: usize = it
        .next()
        .ok_or_else(|| parse_err("bad size line"))?
        .parse()
        .map_err(|_| parse_err("bad row count"))?;
    let cols: usize = it
        .next()
        .ok_or_else(|| parse_err("bad size line"))?
        .parse()
        .map_err(|_| parse_err("bad column count"))?;
    if rows != cols {
        return Err(parse_err("matrix must be square"));
    }
    let mut b = GraphBuilder::new(rows);
    let mut entry = 0usize;
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| parse_err("bad entry"))?
            .parse()
            .map_err(|_| parse_err("bad row index"))?;
        let j: usize = it
            .next()
            .ok_or_else(|| parse_err("bad entry"))?
            .parse()
            .map_err(|_| parse_err("bad column index"))?;
        let v: f64 = it
            .next()
            .ok_or_else(|| parse_err("bad entry"))?
            .parse()
            .map_err(|_| parse_err("bad value"))?;
        if i == 0 || j == 0 || i > rows || j > rows {
            return Err(parse_err("index out of range (Matrix Market is 1-based)"));
        }
        if !v.is_finite() {
            // A NaN/Inf entry would otherwise survive `|v|` and panic in
            // the graph constructor.
            return Err(IoError::InvalidGraph {
                line: 0,
                error: GraphDataError::NonFiniteWeight {
                    edge: entry,
                    weight: v,
                },
            });
        }
        if i == j || v == 0.0 {
            continue;
        }
        b.add_edge((i - 1) as u32, (j - 1) as u32, v.abs());
        entry += 1;
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::io::BufReader;

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::weighted_random_graph(40, 120, 0.5, 9.0, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        assert!((g2.total_weight() - g.total_weight()).abs() < 1e-9);
        for (a, b) in g.edges().iter().zip(g2.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert!((a.w - b.w).abs() < 1e-12);
        }
    }

    #[test]
    fn edge_list_defaults_and_comments() {
        let text = "% comment\n0 1\n1 2 2.5\n\n# trailing comment\n2 2 9.0\n";
        let g = read_edge_list(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2); // self-loop dropped
        assert_eq!(g.edge(0).w, 1.0);
        assert_eq!(g.edge(1).w, 2.5);
    }

    #[test]
    fn matrix_market_roundtrip_preserves_laplacian() {
        let g = generators::grid2d(5, 6, |_, _| 2.0);
        let mut buf = Vec::new();
        write_matrix_market_laplacian(&g, &mut buf).unwrap();
        let g2 = read_matrix_market_graph(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        assert!((g2.total_weight() - g.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn matrix_market_rejects_garbage() {
        assert!(read_matrix_market_graph(BufReader::new("not a matrix".as_bytes())).is_err());
        let bad = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 2 1.0\n";
        assert!(read_matrix_market_graph(BufReader::new(bad.as_bytes())).is_err());
        let out_of_range = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market_graph(BufReader::new(out_of_range.as_bytes())).is_err());
    }

    #[test]
    fn bad_edge_list_reports_line() {
        let text = "0 x 1.0\n";
        let err = read_edge_list(BufReader::new(text.as_bytes())).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("line 1"), "{msg}");
    }

    #[test]
    fn edge_list_rejects_invalid_weights_and_ghosts() {
        use crate::graph::GraphDataError;
        let nan = "0 1 NaN\n";
        match read_edge_list(BufReader::new(nan.as_bytes())).unwrap_err() {
            IoError::InvalidGraph {
                line: 1,
                error: GraphDataError::NonFiniteWeight { .. },
            } => {}
            other => panic!("expected NonFiniteWeight, got {other:?}"),
        }
        let neg = "0 1 2.0\n1 2 -3.0\n";
        match read_edge_list(BufReader::new(neg.as_bytes())).unwrap_err() {
            IoError::InvalidGraph {
                line: 2,
                error: GraphDataError::NonPositiveWeight { .. },
            } => {}
            other => panic!("expected NonPositiveWeight, got {other:?}"),
        }
        let inf = "0 1 inf\n";
        assert!(matches!(
            read_edge_list(BufReader::new(inf.as_bytes())).unwrap_err(),
            IoError::InvalidGraph { .. }
        ));
        // Header declares 2 vertices; vertex 7 is a ghost.
        let ghost = "# 2 1\n0 7 1.0\n";
        match read_edge_list(BufReader::new(ghost.as_bytes())).unwrap_err() {
            IoError::InvalidGraph {
                line: 2,
                error:
                    GraphDataError::EndpointOutOfRange {
                        endpoint: 7, n: 2, ..
                    },
            } => {}
            other => panic!("expected EndpointOutOfRange, got {other:?}"),
        }
        // Declared or implied vertex counts past the u32 ids.
        for text in ["# 4294967295 1\n0 1 1.0\n", "0 4294967294 1.0\n"] {
            match read_edge_list(BufReader::new(text.as_bytes())).unwrap_err() {
                IoError::InvalidGraph {
                    error:
                        GraphDataError::TooLarge {
                            n: 4294967295,
                            m: 1,
                        },
                    ..
                } => {}
                other => panic!("expected TooLarge, got {other:?}"),
            }
        }
    }

    #[test]
    fn matrix_market_rejects_non_finite_values() {
        let nan = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 NaN\n";
        assert!(matches!(
            read_matrix_market_graph(BufReader::new(nan.as_bytes())).unwrap_err(),
            IoError::InvalidGraph { .. }
        ));
        let inf = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -inf\n";
        assert!(matches!(
            read_matrix_market_graph(BufReader::new(inf.as_bytes())).unwrap_err(),
            IoError::InvalidGraph { .. }
        ));
    }

    #[test]
    fn validated_graph_classifies_defects() {
        use crate::graph::{Edge, Graph, GraphDataError};
        let ok = Graph::validated(3, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)]);
        assert_eq!(ok.unwrap().m(), 2);
        assert!(matches!(
            Graph::validated(3, vec![Edge::new(0, 1, f64::NAN)]),
            Err(GraphDataError::NonFiniteWeight { edge: 0, .. })
        ));
        assert!(matches!(
            Graph::validated(3, vec![Edge::new(0, 1, 0.0)]),
            Err(GraphDataError::NonPositiveWeight { edge: 0, .. })
        ));
        assert!(matches!(
            Graph::validated(3, vec![Edge::new(2, 2, 1.0)]),
            Err(GraphDataError::SelfLoop { edge: 0, vertex: 2 })
        ));
        assert!(matches!(
            Graph::validated(2, vec![Edge::new(0, 5, 1.0)]),
            Err(GraphDataError::EndpointOutOfRange {
                edge: 0,
                endpoint: 5,
                n: 2
            })
        ));
    }
}
