//! MatrixMarket (`.mtx`) coordinate-format IO.
//!
//! The paper's matrices come from the University of Florida collection,
//! which distributes MatrixMarket files. This reader supports the
//! `matrix coordinate {real,integer,pattern} {general,symmetric}` subset —
//! enough to load every matrix of Table 2 if the user supplies the files —
//! and the writer emits `general real` files.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::coo::CooMatrix;
use crate::error::MatrixError;
use crate::scalar::Scalar;

/// Upper bound on the entries pre-allocated from the size line's `nnz`.
/// The header is untrusted: a crafted count must not make the reader
/// request memory the file cannot back. Larger matrices still load, and
/// their vectors grow as entries are actually read.
const PREALLOC_CAP: usize = 1 << 20;

/// Parses a MatrixMarket stream into a COO matrix.
///
/// Symmetric matrices are expanded (mirror entries added for off-diagonal
/// elements). Pattern matrices get unit values. 1-based indices are
/// converted to 0-based.
pub fn read_matrix_market<T: Scalar, R: Read>(reader: R) -> Result<CooMatrix<T>, MatrixError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header line.
    let (line_no, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(MatrixError::Parse { line: 1, message: "empty file".into() });
            }
        }
    };
    let tokens: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(MatrixError::Parse {
            line: line_no,
            message: format!("bad MatrixMarket header: {header}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(MatrixError::Parse {
            line: line_no,
            message: format!("unsupported format '{}', only 'coordinate' is supported", tokens[2]),
        });
    }
    let field = tokens[3].as_str();
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(MatrixError::Parse {
            line: line_no,
            message: format!("unsupported field type '{field}'"),
        });
    }
    let symmetry = tokens[4].as_str();
    if !matches!(symmetry, "general" | "symmetric") {
        return Err(MatrixError::Parse {
            line: line_no,
            message: format!("unsupported symmetry '{symmetry}'"),
        });
    }
    let pattern = field == "pattern";
    let symmetric = symmetry == "symmetric";

    // Size line (skipping comments).
    let (size_line_no, size_line) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (i + 1, line);
            }
            None => {
                return Err(MatrixError::Parse {
                    line: line_no,
                    message: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>().map_err(|_| MatrixError::Parse {
                line: size_line_no,
                message: format!("bad size token '{t}'"),
            })
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(MatrixError::Parse {
            line: size_line_no,
            message: "size line must contain rows cols nnz".into(),
        });
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);

    let cap = nnz.min(PREALLOC_CAP);
    let mut ri = Vec::with_capacity(cap);
    let mut ci = Vec::with_capacity(cap);
    let mut vals: Vec<T> = Vec::with_capacity(cap);
    let mut seen = 0usize;
    for (i, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse_idx = |tok: Option<&str>| -> Result<usize, MatrixError> {
            let tok =
                tok.ok_or(MatrixError::Parse { line: i + 1, message: "missing index".into() })?;
            tok.parse::<usize>().map_err(|_| MatrixError::Parse {
                line: i + 1,
                message: format!("bad index '{tok}'"),
            })
        };
        let r = parse_idx(it.next())?;
        let c = parse_idx(it.next())?;
        if r == 0 || c == 0 {
            return Err(MatrixError::Parse {
                line: i + 1,
                message: "MatrixMarket indices are 1-based".into(),
            });
        }
        let v = if pattern {
            T::ONE
        } else {
            let tok = it
                .next()
                .ok_or(MatrixError::Parse { line: i + 1, message: "missing value".into() })?;
            T::from_f64(tok.parse::<f64>().map_err(|_| MatrixError::Parse {
                line: i + 1,
                message: format!("bad value '{tok}'"),
            })?)
        };
        ri.push(r - 1);
        ci.push(c - 1);
        vals.push(v);
        if symmetric && r != c {
            ri.push(c - 1);
            ci.push(r - 1);
            vals.push(v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MatrixError::Parse {
            line: 0,
            message: format!("expected {nnz} entries, found {seen}"),
        });
    }
    CooMatrix::from_triplets(rows, cols, &ri, &ci, &vals)
}

/// Reads a MatrixMarket file from disk.
pub fn read_matrix_market_file<T: Scalar>(
    path: impl AsRef<Path>,
) -> Result<CooMatrix<T>, MatrixError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Writes a COO matrix as a `general real` MatrixMarket stream.
pub fn write_matrix_market<T: Scalar, W: Write>(
    a: &CooMatrix<T>,
    writer: W,
) -> Result<(), MatrixError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% generated by bro-spmv")?;
    writeln!(w, "{} {} {}", a.rows(), a.cols(), a.nnz())?;
    for (r, c, v) in a.iter() {
        writeln!(w, "{} {} {:e}", r + 1, c + 1, v.to_f64())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a COO matrix to a `.mtx` file on disk.
pub fn write_matrix_market_file<T: Scalar>(
    a: &CooMatrix<T>,
    path: impl AsRef<Path>,
) -> Result<(), MatrixError> {
    write_matrix_market(a, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   3 3 2\n\
                   1 1 1.5\n\
                   3 2 -2.0\n";
        let a: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.values(), &[1.5, -2.0]);
        assert_eq!(a.row_indices(), &[0, 2]);
    }

    #[test]
    fn expands_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
                   2 2 2\n\
                   1 1 1.0\n\
                   2 1 5.0\n";
        let a: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 3); // diagonal entry not mirrored
        let (cols, vals) = a.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[1.0, 5.0]);
    }

    #[test]
    fn pattern_gets_unit_values() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 1\n\
                   1 2\n";
        let a: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a.values(), &[1.0]);
    }

    #[test]
    fn rejects_bad_header() {
        let src = "%%NotMatrixMarket nope\n1 1 0\n";
        assert!(read_matrix_market::<f64, _>(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_array_format() {
        let src = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        let err = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("coordinate"));
    }

    #[test]
    fn rejects_entry_count_mismatch() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(src.as_bytes()).is_err());
    }

    #[test]
    fn huge_header_nnz_is_an_error_not_an_abort() {
        let src = "%%MatrixMarket matrix coordinate real general\n3 3 99999999999999999\n";
        let err = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 99999999999999999 entries, found 0"));
    }

    #[test]
    fn rejects_zero_based_index() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        let err = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("1-based"));
    }

    #[test]
    fn write_read_round_trip() {
        let a =
            CooMatrix::from_triplets(3, 4, &[0, 1, 2, 2], &[3, 0, 1, 2], &[0.5, -1.25, 3.0, 1e-8])
                .unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b: CooMatrix<f64> = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn file_round_trip() {
        let a = CooMatrix::from_triplets(2, 2, &[0, 1], &[1, 0], &[1.0, 2.0]).unwrap();
        let path = std::env::temp_dir().join("bro_spmv_io_test.mtx");
        write_matrix_market_file(&a, &path).unwrap();
        let b: CooMatrix<f64> = read_matrix_market_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, b);
    }
}
