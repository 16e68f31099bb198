//! Plain-text edge-list input/output.
//!
//! The format matches SNAP's: one edge per line, `src dst` or `src dst weight`
//! separated by whitespace, with `#`-prefixed comment lines. The paper's
//! ingress loads such text files from HDFS; we read from the local filesystem
//! (see DESIGN.md for the substitution rationale).

use crate::graph::{Graph, VertexId};
use crate::GraphBuilder;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors surfaced while parsing an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem / reader error.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number (0 for non-line-oriented formats).
        line: usize,
        /// The offending content or a description of the corruption.
        content: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "parse error at line {line}: {content:?}")
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

/// Most vertex ids an edge list may imply per edge line. Ids are taken
/// verbatim, so one line naming a huge id would otherwise make the loader
/// allocate per-vertex arrays for billions of vertices and abort. Real
/// inputs sit far below this: isolated vertices never appear in an edge
/// list, so `max id + 1` stays within a small multiple of the edge count.
const MAX_IDS_PER_EDGE: usize = 64;

/// Floor of the implied-vertex-count bound, so small hand-written files
/// may still use sparse ids.
const MIN_ID_BOUND: usize = 1 << 20;

/// Reads an edge list from any reader. Vertex ids are taken verbatim, and the
/// vertex count is `max id + 1` (or larger if `min_vertices` says so).
/// Weighted and unweighted lines must not be mixed. An input whose implied
/// vertex count `max id + 1` exceeds `max(64·E, 2^20)` for `E` edge lines is
/// rejected with a parse error naming the line that holds the largest id.
pub fn read_edge_list<R: Read>(reader: R, min_vertices: usize) -> Result<Graph, IoError> {
    let reader = BufReader::new(reader);
    let mut b = GraphBuilder::new(min_vertices);
    // Weightedness of the first edge line; every later line must match.
    let mut weighted: Option<bool> = None;
    // Largest id seen and the 1-based line holding it.
    let (mut max_id, mut max_line) = (0usize, 0usize);
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let bad = |content: String| IoError::Parse {
            line: idx + 1,
            content,
        };
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<u64> { tok.and_then(|t| t.parse().ok()) };
        let (src, dst) = match (parse(it.next()), parse(it.next())) {
            (Some(s), Some(d)) if s <= u32::MAX as u64 && d <= u32::MAX as u64 => {
                (s as VertexId, d as VertexId)
            }
            _ => return Err(bad(trimmed.to_string())),
        };
        let weight = match it.next() {
            Some(tok) => Some(tok.parse::<f64>().map_err(|_| bad(trimmed.to_string()))?),
            None => None,
        };
        if *weighted.get_or_insert(weight.is_some()) != weight.is_some() {
            return Err(bad("mixed weighted and unweighted lines".to_string()));
        }
        let hi = src.max(dst) as usize;
        if hi > max_id {
            (max_id, max_line) = (hi, idx + 1);
        }
        b.ensure_vertices(hi + 1);
        match weight {
            Some(w) => b.add_weighted_edge(src, dst, w),
            None => b.add_edge(src, dst),
        }
    }
    let limit = (MAX_IDS_PER_EDGE * b.num_edges()).max(MIN_ID_BOUND);
    if max_id >= limit {
        return Err(IoError::Parse {
            line: max_line,
            content: format!(
                "vertex id {max_id} implies {} vertices for {} edge lines (limit {limit})",
                max_id + 1,
                b.num_edges()
            ),
        });
    }
    Ok(b.build())
}

/// Reads an edge-list file from `path`. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    let f = std::fs::File::open(path)?;
    read_edge_list(f, 0)
}

/// Writes `graph` as an edge list. Weights are emitted only for weighted
/// graphs. The output round-trips through [`read_edge_list`].
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# cyclops edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (s, t, weight) in graph.edges() {
        if graph.is_weighted() {
            writeln!(w, "{s} {t} {weight}")?;
        } else {
            writeln!(w, "{s} {t}")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes `graph` to the file at `path`. See [`write_edge_list`].
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), IoError> {
    let f = std::fs::File::create(path)?;
    write_edge_list(graph, f)
}

/// Magic prefix of the binary graph format.
const BINARY_MAGIC: &[u8; 8] = b"CYCLGR01";

/// Writes `graph` in a compact little-endian binary format — the fast path
/// for repeatedly-processed graphs (text parsing dominates text-format
/// ingress). Layout: magic, vertex count, edge count, weighted flag, then
/// the edge stream as `(u32 src, u32 dst[, f64 w])` in CSR order.
pub fn write_binary<W: Write>(graph: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    w.write_all(&[graph.is_weighted() as u8])?;
    for (s, t, weight) in graph.edges() {
        w.write_all(&s.to_le_bytes())?;
        w.write_all(&t.to_le_bytes())?;
        if graph.is_weighted() {
            w.write_all(&weight.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a graph written by [`write_binary`].
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, IoError> {
    let mut r = BufReader::new(reader);
    let corrupt = |what: &str| IoError::Parse {
        line: 0,
        content: format!("binary graph: {what}"),
    };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let n = u64::from_le_bytes(u64buf) as usize;
    r.read_exact(&mut u64buf)?;
    let m = u64::from_le_bytes(u64buf) as usize;
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let weighted = match flag[0] {
        0 => false,
        1 => true,
        _ => return Err(corrupt("bad weighted flag")),
    };
    if n > u32::MAX as usize {
        return Err(corrupt("vertex count exceeds u32"));
    }
    let mut b = GraphBuilder::new(n);
    let mut u32buf = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut u32buf)?;
        let s = u32::from_le_bytes(u32buf);
        r.read_exact(&mut u32buf)?;
        let t = u32::from_le_bytes(u32buf);
        if s as usize >= n || t as usize >= n {
            return Err(corrupt("edge endpoint out of range"));
        }
        if weighted {
            r.read_exact(&mut u64buf)?;
            b.add_weighted_edge(s, t, f64::from_le_bytes(u64buf));
        } else {
            b.add_edge(s, t);
        }
    }
    Ok(b.build())
}

/// Writes the binary format to `path`. See [`write_binary`].
pub fn write_binary_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), IoError> {
    write_binary(graph, std::fs::File::create(path)?)
}

/// Reads the binary format from `path`. See [`read_binary`].
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# header\n\n0 1\n1 2\n# trailer\n2 0\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1]);
    }

    #[test]
    fn parses_weights() {
        let text = "0 1 2.5\n1 0 0.25\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0), &[2.5]);
    }

    #[test]
    fn rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes(), 0).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_mixed_weightedness() {
        let err = read_edge_list("0 1 2.0\n1 0\n".as_bytes(), 0).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }));
    }

    #[test]
    fn mixed_weightedness_names_the_file_line() {
        // Comment and blank lines count toward the reported line number.
        let text = "# header\n0 1\n\n1 2\n2 0 1.5\n";
        let err = read_edge_list(text.as_bytes(), 0).unwrap_err();
        match err {
            IoError::Parse { line, content } => {
                assert_eq!(line, 5);
                assert!(content.contains("mixed"), "{content}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_ids_far_beyond_the_edge_count() {
        // One edge naming the largest u32 id would imply ~4 billion vertices.
        let err = read_edge_list("0 4294967295\n".as_bytes(), 0).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
        // The error names the line holding the largest id, not the last one.
        let text = "# big ids\n0 1\n3000000 2\n2 1\n";
        let err = read_edge_list(text.as_bytes(), 0).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err}");
        // Ids up to the 2^20 floor load even from a one-line file...
        let g = read_edge_list("0 1048575\n".as_bytes(), 0).unwrap();
        assert_eq!(g.num_vertices(), 1 << 20);
        assert!(read_edge_list("0 1048576\n".as_bytes(), 0).is_err());
        // ...and `min_vertices` is the caller's choice, never bounded.
        let g = read_edge_list("0 1\n".as_bytes(), 2_000_000).unwrap();
        assert_eq!(g.num_vertices(), 2_000_000);
    }

    #[test]
    fn min_vertices_pads_isolated_tail() {
        let g = read_edge_list("0 1\n".as_bytes(), 10).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn round_trip_unweighted() {
        let text = "0 2\n2 1\n1 0\n0 1\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], 0).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_round_trip_unweighted() {
        let g = read_edge_list("0 1\n1 2\n2 0\n".as_bytes(), 0).unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
    }

    #[test]
    fn binary_round_trip_weighted() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.5);
        b.add_weighted_edge(2, 0, -3.25);
        let g = b.build();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(read_binary(&b"NOTAGRPH"[..]).is_err());
        let mut buf = Vec::new();
        write_binary(&Graph::empty(3), &mut buf).unwrap();
        buf[3] ^= 0xff; // corrupt the magic
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = read_edge_list("0 1\n1 2\n".as_bytes(), 0).unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("cyclops-bin-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = crate::gen::erdos_renyi(100, 500, 1);
        write_binary_file(&g, &path).unwrap();
        assert_eq!(read_binary_file(&path).unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trip_weighted_file() {
        let dir = std::env::temp_dir().join(format!("cyclops-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.5);
        b.add_weighted_edge(2, 0, 3.25);
        let g = b.build();
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
