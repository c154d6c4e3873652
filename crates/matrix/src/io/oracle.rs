//! Test-only oracle: the reader as first written, on `BufRead::lines`.
//! `read_matrix_market` must accept exactly the streams it accepts and
//! return the same matrix.

use std::io::{BufRead, BufReader, Read};

use super::PREALLOC_CAP;
use crate::coo::CooMatrix;
use crate::error::MatrixError;
use crate::scalar::Scalar;

pub(super) fn read_matrix_market<T: Scalar, R: Read>(
    reader: R,
) -> Result<CooMatrix<T>, MatrixError> {
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
