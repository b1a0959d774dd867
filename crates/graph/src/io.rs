//! Graph serialization: Matrix Market, whitespace edge lists, and the
//! binary `PCSR` format for large inputs.
//!
//! Real SDD systems usually arrive as sparse symmetric matrices in Matrix
//! Market files or as weighted edge lists; these helpers let the solver be
//! used on external inputs and let experiment workloads be exported for
//! inspection by other tools. The text readers stream line-by-line through
//! one reused buffer, so peak memory is the parsed edge list alone — never
//! the file bytes on top of it.
//!
//! For web-scale graphs the text formats are the bottleneck, so
//! [`write_binary_csr`]/[`read_binary_csr`] serialize a [`Csr`] as flat
//! little-endian arrays behind a 64-byte header, and [`MappedCsr`] (Unix)
//! maps the same file zero-copy and serves traversals straight off the page
//! cache via [`CsrLike`](crate::frontier::CsrLike).

use std::io::{BufRead, Read, Write};

use crate::builder::GraphBuilder;
use crate::csr::Csr;
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

// ---------------------------------------------------------------------------
// Binary CSR ("PCSR"): the large-input format.
//
// Layout (all little-endian):
//   bytes 0..4    magic "PCSR"
//   bytes 4..8    version (u32, currently 1)
//   bytes 8..12   flags (u32, reserved, must be 0)
//   bytes 16..24  n (u64, vertex count)
//   bytes 24..32  m (u64, undirected edge count)
//   bytes 32..64  zero padding
//   then          offsets   u64 × (n + 1)
//   then          weights   f64 × 2m
//   then          neighbors u32 × 2m
//
// Every section start is 8-byte aligned (the header is 64 bytes and the
// u64/f64 sections precede the u32 one), so a page-aligned mmap of the file
// can hand out the arrays as zero-copy slices.
// ---------------------------------------------------------------------------

/// Magic bytes opening a binary CSR file.
pub const PCSR_MAGIC: [u8; 4] = *b"PCSR";
/// Current binary CSR format version.
pub const PCSR_VERSION: u32 = 1;
/// Fixed header length of the binary CSR format.
pub const PCSR_HEADER_LEN: usize = 64;

/// Elements converted per buffer refill in the streamed binary reader and
/// writer (bounds parser memory to ~512 KiB regardless of graph size).
const BIN_CHUNK: usize = 1 << 16;

fn write_le_chunked<W: Write, T: Copy>(
    out: &mut W,
    vals: &[T],
    width: usize,
    encode: impl Fn(T, &mut [u8]),
) -> Result<(), IoError> {
    let mut buf = vec![0u8; width * BIN_CHUNK.min(vals.len().max(1))];
    for chunk in vals.chunks(BIN_CHUNK) {
        let bytes = &mut buf[..width * chunk.len()];
        for (v, dst) in chunk.iter().zip(bytes.chunks_exact_mut(width)) {
            encode(*v, dst);
        }
        out.write_all(bytes)?;
    }
    Ok(())
}

fn read_le_chunked<R: Read, T>(
    input: &mut R,
    count: usize,
    width: usize,
    decode: impl Fn(&[u8]) -> T,
) -> Result<Vec<T>, IoError> {
    let mut out = Vec::with_capacity(count);
    let mut buf = vec![0u8; width * BIN_CHUNK.min(count.max(1))];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(BIN_CHUNK);
        let bytes = &mut buf[..width * take];
        input.read_exact(bytes)?;
        out.extend(bytes.chunks_exact(width).map(&decode));
        remaining -= take;
    }
    Ok(out)
}

/// Writes a [`Csr`] in the binary `PCSR` format. The writer streams the
/// arrays through a bounded scratch buffer, so memory stays constant no
/// matter the graph size; wrap `out` in a `BufWriter` when writing to a
/// file.
pub fn write_binary_csr<W: Write>(csr: &Csr, mut out: W) -> Result<(), IoError> {
    let mut header = [0u8; PCSR_HEADER_LEN];
    header[0..4].copy_from_slice(&PCSR_MAGIC);
    header[4..8].copy_from_slice(&PCSR_VERSION.to_le_bytes());
    // flags (8..12) and padding stay zero.
    header[16..24].copy_from_slice(&(csr.n() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(csr.m() as u64).to_le_bytes());
    out.write_all(&header)?;
    write_le_chunked(&mut out, csr.offsets(), 8, |v, d| {
        d.copy_from_slice(&v.to_le_bytes())
    })?;
    write_le_chunked(&mut out, csr.raw_weights(), 8, |v, d| {
        d.copy_from_slice(&v.to_le_bytes())
    })?;
    write_le_chunked(&mut out, csr.raw_neighbors(), 4, |v, d| {
        d.copy_from_slice(&v.to_le_bytes())
    })?;
    Ok(())
}

struct PcsrHeader {
    n: usize,
    m: usize,
}

fn parse_pcsr_header(header: &[u8; PCSR_HEADER_LEN]) -> Result<PcsrHeader, IoError> {
    if header[0..4] != PCSR_MAGIC {
        return Err(parse_err("not a PCSR file (bad magic)"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != PCSR_VERSION {
        return Err(parse_err(format!("unsupported PCSR version {version}")));
    }
    let flags = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if flags != 0 {
        return Err(parse_err(format!("unknown PCSR flags {flags:#x}")));
    }
    let n = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let m = u64::from_le_bytes(header[24..32].try_into().unwrap());
    if n > u32::MAX as u64 + 1 || m > (u32::MAX as u64 + 1) * (u32::MAX as u64) / 2 {
        return Err(parse_err("PCSR dimensions out of range"));
    }
    Ok(PcsrHeader {
        n: n as usize,
        m: m as usize,
    })
}

fn validate_csr_parts(n: usize, offsets: &[u64], neighbors: &[u32]) -> Result<(), IoError> {
    if offsets.first() != Some(&0) {
        return Err(parse_err("PCSR offsets must start at 0"));
    }
    if offsets[n] as usize != neighbors.len() {
        return Err(parse_err("PCSR offsets must end at the arc count"));
    }
    if !offsets.windows(2).all(|w| w[0] <= w[1]) {
        return Err(parse_err("PCSR offsets must be non-decreasing"));
    }
    if !neighbors.iter().all(|&t| (t as usize) < n) {
        return Err(parse_err("PCSR neighbor id out of range"));
    }
    Ok(())
}

/// Reads a binary `PCSR` file written by [`write_binary_csr`], streaming
/// through a bounded buffer (peak memory = the final arrays plus ~512 KiB).
/// Malformed input yields [`IoError`] instead of panicking.
pub fn read_binary_csr<R: Read>(mut input: R) -> Result<Csr, IoError> {
    let mut header = [0u8; PCSR_HEADER_LEN];
    input.read_exact(&mut header)?;
    let h = parse_pcsr_header(&header)?;
    let arcs = 2 * h.m;
    let offsets = read_le_chunked(&mut input, h.n + 1, 8, |b| {
        u64::from_le_bytes(b.try_into().unwrap())
    })?;
    let weights = read_le_chunked(&mut input, arcs, 8, |b| {
        f64::from_le_bytes(b.try_into().unwrap())
    })?;
    let neighbors = read_le_chunked(&mut input, arcs, 4, |b| {
        u32::from_le_bytes(b.try_into().unwrap())
    })?;
    validate_csr_parts(h.n, &offsets, &neighbors)?;
    Ok(Csr::from_parts(h.n, offsets, neighbors, weights))
}

/// Convenience: writes `g` as binary CSR to `path` (via a `BufWriter`).
pub fn write_binary_csr_file(csr: &Csr, path: &std::path::Path) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    write_binary_csr(csr, std::io::BufWriter::new(file))
}

/// Convenience: reads a binary CSR from `path` (via a `BufReader`).
pub fn read_binary_csr_file(path: &std::path::Path) -> Result<Csr, IoError> {
    let file = std::fs::File::open(path)?;
    read_binary_csr(std::io::BufReader::new(file))
}

#[cfg(all(unix, target_endian = "little"))]
pub use memmap::MappedCsr;

/// Zero-copy mmap view of a `PCSR` file (Unix, little-endian hosts).
#[cfg(all(unix, target_endian = "little"))]
mod memmap {
    use super::{parse_err, parse_pcsr_header, validate_csr_parts, IoError, PCSR_HEADER_LEN};
    use crate::csr::Csr;
    use crate::frontier::CsrLike;
    use crate::graph::VertexId;
    use core::ffi::c_void;
    use std::os::unix::io::AsRawFd;

    // `std` already links libc on every Unix target, so these declarations
    // resolve without adding a dependency.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only memory-mapped `PCSR` graph. Implements
    /// [`CsrLike`], so [`edge_map`](crate::frontier::edge_map)-based
    /// traversals (BFS, components, PageRank) run directly off the page
    /// cache without ever materialising the arrays on the heap.
    ///
    /// The mapping is private and read-only; the header and array bounds
    /// are validated at open, so the accessors cannot slice out of the
    /// mapping.
    pub struct MappedCsr {
        base: *const u8,
        map_len: usize,
        n: usize,
        m: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ, validated at open) for
    // the lifetime of the value, so shared references across threads are
    // data-race free.
    unsafe impl Send for MappedCsr {}
    unsafe impl Sync for MappedCsr {}

    impl MappedCsr {
        /// Maps the `PCSR` file at `path` and validates its header and
        /// structure (offset monotonicity, neighbor ranges).
        pub fn open(path: &std::path::Path) -> Result<Self, IoError> {
            let file = std::fs::File::open(path)?;
            let map_len = file.metadata()?.len() as usize;
            if map_len < PCSR_HEADER_LEN {
                return Err(parse_err("file too short for a PCSR header"));
            }
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    map_len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if base as isize == -1 {
                return Err(IoError::Io(std::io::Error::last_os_error()));
            }
            // Constructed before any validation so every early-return path
            // unmaps through Drop.
            let mut mapped = MappedCsr {
                base: base as *const u8,
                map_len,
                n: 0,
                m: 0,
            };
            let mut header = [0u8; PCSR_HEADER_LEN];
            header.copy_from_slice(unsafe {
                std::slice::from_raw_parts(mapped.base, PCSR_HEADER_LEN)
            });
            let h = parse_pcsr_header(&header)?;
            let expected = PCSR_HEADER_LEN + 8 * (h.n + 1) + 8 * (2 * h.m) + 4 * (2 * h.m);
            if map_len < expected {
                return Err(parse_err(format!(
                    "PCSR file truncated: {map_len} bytes, need {expected}"
                )));
            }
            mapped.n = h.n;
            mapped.m = h.m;
            validate_csr_parts(h.n, mapped.offsets(), mapped.neighbors())?;
            Ok(mapped)
        }

        /// Number of vertices.
        pub fn n(&self) -> usize {
            self.n
        }

        /// Number of undirected edges.
        pub fn m(&self) -> usize {
            self.m
        }

        /// The offset array (`n + 1` entries), straight from the mapping.
        pub fn offsets(&self) -> &[u64] {
            // SAFETY: section bounds were validated at open; the header is
            // 64 bytes, so the u64 section is 8-aligned in the page-aligned
            // mapping.
            unsafe {
                std::slice::from_raw_parts(self.base.add(PCSR_HEADER_LEN) as *const u64, self.n + 1)
            }
        }

        /// The arc-weight array (`2m` entries), straight from the mapping.
        pub fn weights(&self) -> &[f64] {
            let off = PCSR_HEADER_LEN + 8 * (self.n + 1);
            // SAFETY: as above; the f64 section follows the u64 one, so it
            // stays 8-aligned.
            unsafe { std::slice::from_raw_parts(self.base.add(off) as *const f64, 2 * self.m) }
        }

        /// The arc-target array (`2m` entries), straight from the mapping.
        pub fn neighbors(&self) -> &[u32] {
            let off = PCSR_HEADER_LEN + 8 * (self.n + 1) + 8 * (2 * self.m);
            // SAFETY: as above; every preceding section has 8-byte width,
            // so the u32 section is (at least) 4-aligned.
            unsafe { std::slice::from_raw_parts(self.base.add(off) as *const u32, 2 * self.m) }
        }

        /// Copies the mapping into an owned [`Csr`].
        pub fn to_csr(&self) -> Csr {
            Csr::from_parts(
                self.n,
                self.offsets().to_vec(),
                self.neighbors().to_vec(),
                self.weights().to_vec(),
            )
        }
    }

    impl Drop for MappedCsr {
        fn drop(&mut self) {
            // SAFETY: base/map_len came from a successful mmap.
            unsafe {
                munmap(self.base as *mut c_void, self.map_len);
            }
        }
    }

    impl std::fmt::Debug for MappedCsr {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("MappedCsr")
                .field("n", &self.n)
                .field("m", &self.m)
                .field("map_len", &self.map_len)
                .finish()
        }
    }

    impl CsrLike for MappedCsr {
        #[inline]
        fn n(&self) -> usize {
            self.n
        }
        #[inline]
        fn arc_count(&self) -> usize {
            2 * self.m
        }
        #[inline]
        fn arc_range(&self, v: VertexId) -> (usize, usize) {
            let o = self.offsets();
            (o[v as usize] as usize, o[v as usize + 1] as usize)
        }
        #[inline]
        fn arc_targets(&self) -> &[VertexId] {
            self.neighbors()
        }
        #[inline]
        fn arc_weights(&self) -> &[f64] {
            self.weights()
        }
    }
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
    fn binary_csr_roundtrip_is_bitwise() {
        let g = generators::weighted_random_graph(120, 400, 0.25, 16.0, 17);
        let c = Csr::from_graph(&g);
        let mut buf = Vec::new();
        write_binary_csr(&c, &mut buf).unwrap();
        assert_eq!(
            buf.len(),
            PCSR_HEADER_LEN + 8 * (c.n() + 1) + 8 * c.arc_count() + 4 * c.arc_count()
        );
        let c2 = read_binary_csr(buf.as_slice()).unwrap();
        assert_eq!(c2.n(), c.n());
        assert_eq!(c2.m(), c.m());
        assert_eq!(c2.offsets(), c.offsets());
        assert_eq!(c2.raw_neighbors(), c.raw_neighbors());
        // Bit-exact weights: the format stores raw f64 bits.
        for (a, b) in c2.raw_weights().iter().zip(c.raw_weights()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn binary_csr_rejects_malformed() {
        let g = generators::path(4, 1.0);
        let c = Csr::from_graph(&g);
        let mut buf = Vec::new();
        write_binary_csr(&c, &mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_binary_csr(bad.as_slice()).is_err());
        // Bad version.
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(read_binary_csr(bad.as_slice()).is_err());
        // Truncated payload.
        let bad = &buf[..buf.len() - 3];
        assert!(read_binary_csr(bad).is_err());
        // Out-of-range neighbor id.
        let mut bad = buf.clone();
        let nbr_start = PCSR_HEADER_LEN + 8 * (c.n() + 1) + 8 * c.arc_count();
        bad[nbr_start..nbr_start + 4].copy_from_slice(&77u32.to_le_bytes());
        assert!(read_binary_csr(bad.as_slice()).is_err());
    }

    #[cfg(all(unix, target_endian = "little"))]
    #[test]
    fn mmap_view_matches_streamed_reader() {
        use crate::frontier::CsrLike;
        let g = generators::weighted_random_graph(90, 300, 1.0, 5.0, 23);
        let c = Csr::from_graph(&g);
        let path = std::env::temp_dir().join(format!("parsdd-pcsr-{}.bin", std::process::id()));
        write_binary_csr_file(&c, &path).unwrap();
        let mapped = MappedCsr::open(&path).unwrap();
        assert_eq!(mapped.n(), c.n());
        assert_eq!(mapped.m(), c.m());
        assert_eq!(mapped.offsets(), c.offsets());
        assert_eq!(mapped.neighbors(), c.raw_neighbors());
        for (a, b) in mapped.weights().iter().zip(c.raw_weights()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The CsrLike view drives traversals identically to the owned Csr:
        // edge_map rounds from vertex 0 until the frontier empties.
        fn traversal<G: CsrLike>(g: &G) -> (Vec<Vec<u32>>, Vec<u64>) {
            use crate::frontier::{edge_map, tests::MinClaim, EdgeMapOptions, Frontier};
            let op = MinClaim::new(g.n());
            let (mut frontier, mut rounds) = (Frontier::singleton(0), Vec::new());
            while !frontier.is_empty() {
                frontier = edge_map(g, &frontier, &op, EdgeMapOptions::default()).frontier;
                rounds.push(frontier.to_sorted_vec());
            }
            (rounds, op.labels())
        }
        let owned_view = traversal(&c);
        assert!(
            owned_view.1.iter().all(|&l| l != u64::MAX),
            "reaches every vertex"
        );
        assert_eq!(traversal(&mapped), owned_view);
        assert_eq!(CsrLike::arc_count(&mapped), c.arc_count());
        let owned = mapped.to_csr();
        assert_eq!(owned.raw_neighbors(), c.raw_neighbors());
        drop(mapped);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(all(unix, target_endian = "little"))]
    #[test]
    fn mmap_rejects_truncated_file() {
        let g = generators::path(5, 1.0);
        let c = Csr::from_graph(&g);
        let mut buf = Vec::new();
        write_binary_csr(&c, &mut buf).unwrap();
        let path =
            std::env::temp_dir().join(format!("parsdd-pcsr-trunc-{}.bin", std::process::id()));
        std::fs::write(&path, &buf[..buf.len() - 5]).unwrap();
        assert!(MappedCsr::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
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
