//! MatrixMarket (`.mtx`) coordinate-format IO.
//!
//! The paper's matrices come from the University of Florida collection,
//! which distributes MatrixMarket files. This reader supports the
//! `matrix coordinate {real,integer,pattern} {general,symmetric}` subset —
//! enough to load every matrix of Table 2 if the user supplies the files —
//! and the writer emits `general real` files.

use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use crate::coo::CooMatrix;
use crate::error::MatrixError;
use crate::scalar::Scalar;

/// Upper bound on the entries pre-allocated from the size line's `nnz`.
/// The header is untrusted: a crafted count must not make the reader
/// request memory the file cannot back. Larger matrices still load, and
/// their vectors grow as entries are actually read.
const PREALLOC_CAP: usize = 1 << 20;

/// Bytes requested from the reader at a time.
const BLOCK: u64 = 1 << 16;

fn invalid_utf8() -> MatrixError {
    io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8").into()
}

/// Lines of a stream, as `BufRead::lines` splits them, without a copy or an
/// allocation per line. The stream is read a block at a time; the block's
/// complete lines are checked as UTF-8 in one call and moved to `text`, from
/// which lines are borrowed. Neither buffer ever holds the whole stream,
/// only a block and the line it ends inside.
struct Lines<R> {
    reader: R,
    /// Complete lines not yet handed out start at `pos`.
    text: String,
    pos: usize,
    /// Bytes read after the last complete line: the start of a line.
    raw: Vec<u8>,
    eof: bool,
    /// A line after those in `text` is not UTF-8.
    bad: bool,
    /// 1-based number of the last line handed out.
    line_no: usize,
}

impl<R: Read> Lines<R> {
    fn new(reader: R) -> Self {
        Lines {
            reader,
            text: String::new(),
            pos: 0,
            raw: Vec::new(),
            eof: false,
            bad: false,
            line_no: 0,
        }
    }

    /// The next line and its number, without the trailing `\n` or `\r\n`,
    /// or `None` at the end of the stream. A line that is not UTF-8 is an
    /// error, as for `BufRead::lines`, once the lines before it are out.
    fn next(&mut self) -> Result<Option<(usize, &str)>, MatrixError> {
        while self.pos == self.text.len() {
            if !self.refill()? {
                return Ok(None);
            }
        }
        let rest = &self.text[self.pos..];
        let line = match rest.find('\n') {
            Some(i) => {
                self.pos += i + 1;
                rest[..i].strip_suffix('\r').unwrap_or(&rest[..i])
            }
            None => {
                self.pos += rest.len();
                rest
            }
        };
        self.line_no += 1;
        Ok(Some((self.line_no, line)))
    }

    /// Replaces `text` with the next complete lines; `false` at the end.
    fn refill(&mut self) -> Result<bool, MatrixError> {
        if self.bad {
            return Err(invalid_utf8());
        }
        self.text.clear();
        self.pos = 0;
        let complete = loop {
            if self.eof {
                break self.raw.len();
            }
            let filled = self.raw.len();
            self.eof = (&mut self.reader).take(BLOCK).read_to_end(&mut self.raw)? == 0;
            if let Some(i) = self.raw[filled..].iter().rposition(|&b| b == b'\n') {
                break filled + i + 1;
            }
        };
        if complete == 0 {
            return Ok(false);
        }
        let text = match std::str::from_utf8(&self.raw[..complete]) {
            Ok(text) => text,
            Err(e) => {
                self.bad = true;
                let good = self.raw[..e.valid_up_to()]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                std::str::from_utf8(&self.raw[..good]).unwrap_or_default()
            }
        };
        self.text.push_str(text);
        self.raw.drain(..complete);
        Ok(true)
    }
}

/// Parses a MatrixMarket stream into a COO matrix.
///
/// Symmetric matrices are expanded (mirror entries added for off-diagonal
/// elements). Pattern matrices get unit values. 1-based indices are
/// converted to 0-based.
pub fn read_matrix_market<T: Scalar, R: Read>(reader: R) -> Result<CooMatrix<T>, MatrixError> {
    let mut lines = Lines::new(reader);

    // Header line.
    let (line_no, header) = loop {
        match lines.next()? {
            Some((i, line)) if !line.trim().is_empty() => break (i, line),
            Some(_) => {}
            None => return Err(MatrixError::Parse { line: 1, message: "empty file".into() }),
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
        match lines.next()? {
            Some((i, line)) => {
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (i, line);
                }
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
    while let Some((i, line)) = lines.next()? {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        if seen == nnz {
            return Err(MatrixError::Parse {
                line: i,
                message: format!("expected {nnz} entries, found more"),
            });
        }
        let mut it = t.split_whitespace();
        let parse_idx = |tok: Option<&str>| -> Result<usize, MatrixError> {
            let tok =
                tok.ok_or_else(|| MatrixError::Parse { line: i, message: "missing index".into() })?;
            tok.parse::<usize>()
                .map_err(|_| MatrixError::Parse { line: i, message: format!("bad index '{tok}'") })
        };
        let r = parse_idx(it.next())?;
        let c = parse_idx(it.next())?;
        if r == 0 || c == 0 {
            return Err(MatrixError::Parse {
                line: i,
                message: "MatrixMarket indices are 1-based".into(),
            });
        }
        let v = if pattern {
            T::ONE
        } else {
            let tok = it
                .next()
                .ok_or_else(|| MatrixError::Parse { line: i, message: "missing value".into() })?;
            T::from_f64(tok.parse::<f64>().map_err(|_| MatrixError::Parse {
                line: i,
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
            line: lines.line_no,
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
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

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
    fn short_file_names_its_last_line() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n% end\n";
        let err = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            MatrixError::Parse { line: 4, message: "expected 3 entries, found 1".into() }
        );
    }

    #[test]
    fn extra_entry_stops_the_reader_at_its_line() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n\n2 2 2.0\nnot an entry\n";
        let err = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            MatrixError::Parse { line: 5, message: "expected 1 entries, found more".into() }
        );
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

    /// A written `.mtx` file under one of six headers; symmetric ones hold
    /// only the lower triangle.
    fn seeded_file(rng: &mut rand_chacha::ChaCha8Rng, dim: std::ops::Range<usize>) -> Vec<u8> {
        let (m, n) = (rng.gen_range(dim.clone()), rng.gen_range(dim));
        let header = [
            "real general",
            "real symmetric",
            "pattern general",
            "pattern symmetric",
            "integer general",
            "integer symmetric",
        ][rng.gen_range(0..6usize)];
        let symmetric = header.ends_with("symmetric");
        let (mut ri, mut ci, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..m {
            for c in 0..n {
                if rng.gen_bool(0.4) && (!symmetric || c <= r) {
                    ri.push(r);
                    ci.push(c);
                    vals.push(if header.starts_with("integer") {
                        rng.gen_range(-9..10i32) as f64
                    } else {
                        rng.gen_range(-1e3..1e3f64)
                    });
                }
            }
        }
        let a = CooMatrix::from_triplets(m, n, &ri, &ci, &vals).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        String::from_utf8(buf).unwrap().replacen("real general", header, 1).into_bytes()
    }

    /// One seeded byte-level mutation of a `.mtx` stream.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut rand_chacha::ChaCha8Rng) {
        let at = |rng: &mut rand_chacha::ChaCha8Rng, len: usize| rng.gen_range(0..len + 1);
        let spaces: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b' ').collect();
        let newlines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        match rng.gen_range(0..10) {
            0 if !bytes.is_empty() => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => bytes.truncate(at(rng, bytes.len())),
            2 => {
                *bytes = bytes
                    .iter()
                    .flat_map(|&b| if b == b'\n' { vec![b'\r', b'\n'] } else { vec![b] })
                    .collect()
            }
            3 if !spaces.is_empty() => bytes[spaces[rng.gen_range(0..spaces.len())]] = b'\t',
            4 if !spaces.is_empty() => {
                bytes.insert(spaces[rng.gen_range(0..spaces.len())] + 1, b'+')
            }
            5 if !newlines.is_empty() => {
                let i = newlines[rng.gen_range(0..newlines.len())] + 1;
                bytes.splice(i..i, b"% between entries\n".iter().copied());
            }
            6 => bytes.insert(at(rng, bytes.len()), [0xFF, 0xC3, 0x80][rng.gen_range(0..3usize)]),
            7 if !spaces.is_empty() => {
                let i = spaces[rng.gen_range(0..spaces.len())];
                let space =
                    ["\u{a0}", "\u{85}", "\u{2003}", "\x0b", "\x0c"][rng.gen_range(0..5usize)];
                bytes.splice(i..=i, space.bytes());
            }
            8 if newlines.len() > 1 => {
                // Repeat one line: an extra entry, or a second size line.
                let k = rng.gen_range(1..newlines.len());
                let line = bytes[newlines[k - 1] + 1..=newlines[k]].to_vec();
                bytes.splice(newlines[k] + 1..newlines[k] + 1, line);
            }
            _ => {
                let i = at(rng, bytes.len());
                bytes.splice(i..i, [" \t\n", "\n", "\r"][rng.gen_range(0..3usize)].bytes());
            }
        }
    }

    /// Reads seeded, mutated files of up to `dim` rows and columns with
    /// both readers; returns how many the oracle accepted and rejected.
    fn compare_with_oracle(seeds: std::ops::Range<u64>, dim: std::ops::Range<usize>) -> (u32, u32) {
        let (mut ok, mut err) = (0, 0);
        for seed in seeds {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut bytes = seeded_file(&mut rng, dim.clone());
            for _ in 0..rng.gen_range(0..4usize) {
                mutate(&mut bytes, &mut rng);
            }
            let got = read_matrix_market::<f64, _>(&bytes[..]);
            match oracle::read_matrix_market::<f64, _>(&bytes[..]) {
                Ok(want) => {
                    let got = got.unwrap_or_else(|e| panic!("seed {seed}: oracle Ok, got {e}"));
                    assert_eq!(
                        (got.rows(), got.cols(), got.row_indices(), got.col_indices()),
                        (want.rows(), want.cols(), want.row_indices(), want.col_indices()),
                        "seed {seed}"
                    );
                    let bits = |a: &CooMatrix<f64>| {
                        a.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&got), bits(&want), "seed {seed}");
                    ok += 1;
                }
                Err(e) => {
                    assert!(got.is_err(), "seed {seed}: oracle failed with {e}, got Ok");
                    err += 1;
                }
            }
        }
        (ok, err)
    }

    #[test]
    fn mutated_files_read_as_the_lines_oracle_reads_them() {
        let (ok, err) = compare_with_oracle(0..3000, 1..9);
        // Both outcomes must be well represented for the comparison to mean anything.
        assert!(ok > 500 && err > 500, "ok {ok} err {err}");
    }

    #[test]
    fn mutated_files_over_many_blocks_read_as_the_oracle_reads_them() {
        // Files of 100-400 KB: lines straddle the reader's block boundaries.
        let (ok, err) = compare_with_oracle(0..40, 100..180);
        assert!(ok > 5 && err > 5, "ok {ok} err {err}");
    }

    #[test]
    fn error_lines_are_counted_across_blocks() {
        let mut src =
            String::from("%%MatrixMarket matrix coordinate real general\n200 200 20000\n");
        for i in 0..19_999 {
            src.push_str(&format!("{} {} 1.0\r\n", 1 + i / 200, 1 + i % 200));
        }
        src.push_str("1 x 1.0\n");
        let err = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert_eq!(err, MatrixError::Parse { line: 20_002, message: "bad index 'x'".into() });
    }
}
