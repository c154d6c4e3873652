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
/// complete lines are checked as UTF-8 in one call and lines are borrowed
/// from them. The block's buffer moves between the read and `text` without
/// a copy; only the line a block ends inside is carried over. Neither
/// buffer ever holds the whole stream.
///
/// Each line comes with whether its block is all ASCII, as every generated
/// file is. The reader parses such a line on a byte-level fast path
/// ([`ascii_entry`]); any other line, and an ASCII line of another shape,
/// takes the `&str` path (`str::trim`, `split_whitespace`, `from_str`),
/// so Unicode whitespace and invalid UTF-8 are read exactly as before,
/// with the same line numbers and messages. Checking whole blocks keeps
/// the check off the per-line path: safe Rust cannot make a `&str` of a
/// byte field without checking it again.
struct Lines<R> {
    reader: R,
    /// Complete lines not yet handed out start at `pos`.
    text: String,
    pos: usize,
    /// Whether `text` is all ASCII.
    ascii: bool,
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
            ascii: true,
            raw: Vec::new(),
            eof: false,
            bad: false,
            line_no: 0,
        }
    }

    /// The next line and its number, without the trailing `\n` or `\r\n`,
    /// and whether the line is known to be ASCII (its block is), or `None`
    /// at the end of the stream. A line that is not UTF-8 is an error, as
    /// for `BufRead::lines`, once the lines before it are out.
    fn next(&mut self) -> Result<Option<(usize, &str, bool)>, MatrixError> {
        while self.pos == self.text.len() {
            if !self.refill()? {
                return Ok(None);
            }
        }
        let rest = &self.text[self.pos..];
        let line = match find_newline(rest.as_bytes()) {
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
        Ok(Some((self.line_no, line, self.ascii)))
    }

    /// Replaces `text` with the next complete lines; `false` at the end.
    fn refill(&mut self) -> Result<bool, MatrixError> {
        if self.bad {
            return Err(invalid_utf8());
        }
        let mut block = std::mem::take(&mut self.text).into_bytes();
        block.clear();
        block.append(&mut self.raw);
        self.pos = 0;
        let complete = loop {
            if self.eof {
                break block.len();
            }
            let filled = block.len();
            self.eof = (&mut self.reader).take(BLOCK).read_to_end(&mut block)? == 0;
            if let Some(i) = block[filled..].iter().rposition(|&b| b == b'\n') {
                break filled + i + 1;
            }
        };
        if complete == 0 {
            return Ok(false);
        }
        self.raw.extend_from_slice(&block[complete..]);
        block.truncate(complete);
        self.text = String::from_utf8(block).unwrap_or_else(|e| {
            self.bad = true;
            let valid = e.utf8_error().valid_up_to();
            let mut block = e.into_bytes();
            let good = block[..valid].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            block.truncate(good);
            String::from_utf8(block).unwrap_or_default()
        });
        self.ascii = self.text.is_ascii();
        Ok(true)
    }
}

/// Index of the first `\n` of `s`, eight bytes at a time. After an XOR
/// with `\n`, the carry trick of "does a word have a zero byte" marks the
/// newlines of a word; its lowest mark is always exact.
#[inline]
fn find_newline(s: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const NEWLINES: u64 = ONES * b'\n' as u64;
    let mut at = 0;
    while at + 8 <= s.len() {
        let x = u64::from_le_bytes(s[at..at + 8].try_into().expect("eight bytes")) ^ NEWLINES;
        let marked = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if marked != 0 {
            return Some(at + (marked.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    s[at..].iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// The six ASCII bytes with the Unicode `White_Space` property, on which
/// `str::trim` and `str::split_whitespace` cut ASCII text. Unlike
/// `u8::is_ascii_whitespace` this includes the vertical tab `\x0B`.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// The first position from `at` on that is not whitespace.
#[inline]
fn skip_space(b: &[u8], mut at: usize) -> usize {
    while at < b.len() && is_space(b[at]) {
        at += 1;
    }
    at
}

/// An index of 1 to 19 digits at `at`, ended by whitespace or the end of
/// `b`, and the position after it; `None` for anything else.
#[inline]
fn index_at(b: &[u8], at: usize) -> Option<(usize, usize)> {
    let (mut n, mut end) = (0u64, at);
    while end < b.len() && end - at < 19 {
        let d = b[end].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        n = n * 10 + d as u64;
        end += 1;
    }
    let ended = b.get(end).is_none_or(|&x| is_space(x));
    (end > at && ended).then_some((usize::try_from(n).ok()?, end))
}

/// The common shape of an ASCII data line, read in one pass: two indices
/// of 1 to 19 digits, then the rest of the line from the value field on,
/// if there is one, without trailing whitespace; fields are separated by
/// the six ASCII `White_Space` bytes. Any other line gives `None` and takes
/// the `&str` path, which splits a line of this shape into the same fields
/// and parses them to the same indices.
#[inline]
fn ascii_entry(line: &str) -> Option<(usize, usize, Option<&str>)> {
    let b = line.as_bytes();
    let (r, at) = index_at(b, skip_space(b, 0))?;
    let (c, at) = index_at(b, skip_space(b, at))?;
    let start = skip_space(b, at);
    let mut end = b.len();
    while end > start && is_space(b[end - 1]) {
        end -= 1;
    }
    Some((r, c, (start < end).then(|| &line[start..end])))
}

/// The entries of a stream, kept as `CooMatrix` keeps them, with `u32`
/// indices. What `CooMatrix::from_triplets` checks, indices inside the
/// shape and strictly row-major order, is tracked as entries arrive; its
/// errors are reported as it reports them, after the parse.
struct Entries<T> {
    rows: usize,
    cols: usize,
    ri: Vec<u32>,
    ci: Vec<u32>,
    vals: Vec<T>,
    /// The first entry outside the shape.
    outside: Option<(usize, usize)>,
    /// Whether the entries so far are strictly row-major.
    sorted: bool,
    /// Every index as read, once one needs more than 32 bits; then
    /// `from_triplets` gets them all.
    wide: Option<(Vec<usize>, Vec<usize>)>,
}

fn widen(indices: &[u32]) -> Vec<usize> {
    indices.iter().map(|&i| i as usize).collect()
}

impl<T: Scalar> Entries<T> {
    fn new(rows: usize, cols: usize, cap: usize) -> Self {
        Entries {
            rows,
            cols,
            ri: Vec::with_capacity(cap),
            ci: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
            outside: None,
            sorted: true,
            wide: None,
        }
    }

    #[inline]
    fn push(&mut self, r: usize, c: usize, v: T) {
        self.vals.push(v);
        if let Some((wr, wc)) = &mut self.wide {
            wr.push(r);
            wc.push(c);
        } else if let (Ok(r32), Ok(c32)) = (u32::try_from(r), u32::try_from(c)) {
            if self.outside.is_none() && (r >= self.rows || c >= self.cols) {
                self.outside = Some((r, c));
            }
            let last = self.ri.last().zip(self.ci.last());
            self.sorted &= last.is_none_or(|(&pr, &pc)| (pr, pc) < (r32, c32));
            self.ri.push(r32);
            self.ci.push(c32);
        } else {
            let (mut wr, mut wc) = (widen(&self.ri), widen(&self.ci));
            wr.push(r);
            wc.push(c);
            self.wide = Some((wr, wc));
        }
    }

    /// The matrix, as `from_triplets` builds it from the entries.
    fn finish(self) -> Result<CooMatrix<T>, MatrixError> {
        let Entries { rows, cols, ri, ci, vals, outside, sorted, wide } = self;
        match (wide, outside) {
            (Some((wr, wc)), _) => CooMatrix::from_triplets(rows, cols, &wr, &wc, &vals),
            (None, Some((row, col))) => Err(MatrixError::IndexOutOfBounds { row, col, rows, cols }),
            (None, None) if sorted => Ok(CooMatrix::from_sorted_parts(rows, cols, ri, ci, vals)),
            (None, None) => CooMatrix::from_triplets(rows, cols, &widen(&ri), &widen(&ci), &vals),
        }
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
            Some((i, line, _)) if !line.trim().is_empty() => break (i, line),
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
            Some((i, line, _)) => {
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

    let mut entries = Entries::new(rows, cols, nnz.min(PREALLOC_CAP));
    let mut seen = 0usize;
    let found_more =
        |line| MatrixError::Parse { line, message: format!("expected {nnz} entries, found more") };
    while let Some((i, line, ascii)) = lines.next()? {
        let entry = if ascii { ascii_entry(line) } else { None };
        let (r, c, value) = match entry {
            Some(entry) => {
                if seen == nnz {
                    return Err(found_more(i));
                }
                entry
            }
            None => {
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                if seen == nnz {
                    return Err(found_more(i));
                }
                let mut it = t.split_whitespace();
                let mut parse_idx = || -> Result<usize, MatrixError> {
                    let tok = it.next().ok_or_else(|| MatrixError::Parse {
                        line: i,
                        message: "missing index".into(),
                    })?;
                    tok.parse::<usize>().map_err(|_| MatrixError::Parse {
                        line: i,
                        message: format!("bad index '{tok}'"),
                    })
                };
                (parse_idx()?, parse_idx()?, it.next())
            }
        };
        if r == 0 || c == 0 {
            return Err(MatrixError::Parse {
                line: i,
                message: "MatrixMarket indices are 1-based".into(),
            });
        }
        let v = if pattern {
            T::ONE
        } else {
            let rest = value
                .ok_or_else(|| MatrixError::Parse { line: i, message: "missing value".into() })?;
            // `rest` starts with the value field, and parses as a number
            // only if it is that field alone (a number holds no space).
            let v = rest.parse::<f64>().or_else(|_| {
                let end = rest.bytes().position(is_space).unwrap_or(rest.len());
                let tok = &rest[..end];
                tok.parse::<f64>().map_err(|_| MatrixError::Parse {
                    line: i,
                    message: format!("bad value '{tok}'"),
                })
            })?;
            T::from_f64(v)
        };
        entries.push(r - 1, c - 1, v);
        if symmetric && r != c {
            entries.push(c - 1, r - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MatrixError::Parse {
            line: lines.line_no,
            message: format!("expected {nnz} entries, found {seen}"),
        });
    }
    entries.finish()
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
                // A sign, or zeros that make the next field 20 digits or more.
                let i = spaces[rng.gen_range(0..spaces.len())] + 1;
                let prefix: &[u8] = [&b"+"[..], b"0000000000000000000"][rng.gen_range(0..2usize)];
                bytes.splice(i..i, prefix.iter().copied());
            }
            5 if !newlines.is_empty() => {
                let i = newlines[rng.gen_range(0..newlines.len())] + 1;
                bytes.splice(i..i, b"% between entries\n".iter().copied());
            }
            6 => bytes.insert(at(rng, bytes.len()), [0xFF, 0xC3, 0x80][rng.gen_range(0..3usize)]),
            7 if !spaces.is_empty() => {
                let i = spaces[rng.gen_range(0..spaces.len())];
                let space = ["\u{a0}", "\u{85}", "\u{2003}", "\u{3000}", "\x0b", "\x0c"]
                    [rng.gen_range(0..6usize)];
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
    fn boundary_lines_read_as_the_oracle_reads_them() {
        let head = "%%MatrixMarket matrix coordinate real general\n3 3 2\n";
        let bodies: [&[u8]; 14] = [
            b"1\x0B1 1.5\n2\x0C2\x0B2.5\x0C\n",
            b"1 1 1.5\n\x0B\x0C\n2 2 2.5\n",
            "1\u{a0}1 1.5\n2 2\u{a0}2.5\n".as_bytes(),
            "1\u{3000}1 1.5\n\u{3000}2 2 2.5\u{3000}\n".as_bytes(),
            b"1 1 1.5\r\n2 2 2.5\r\n",
            b"+1 1 1.5\n2 +2 2.5\n",
            b"1 1 1.5\n2 -2 2.5\n",
            b"1 1 1.5\n00000000000000000002 2 2.5\n",
            b"1 1 1.5\n2 18446744073709551617 2.5\n",
            b"1 1 1.5\n2 9999999999999999999 2.5\n",
            b"1 x 1.5\n\xFF 2 2.5\n",
            b"1 1 1.5\n2 \xFF2 2.5\n",
            b"1 1 1.5 extra\t9\n2 2 2.5 \n",
            b"1 1 1.5\n2 2 2.5x extra\n",
        ];
        for body in bodies {
            reads_as_the_oracle(&[head.as_bytes(), body].concat());
        }
    }

    /// `bytes` read to the oracle's matrix, or to its error message.
    fn reads_as_the_oracle(bytes: &[u8]) {
        let got = read_matrix_market::<f64, _>(bytes);
        let want = oracle::read_matrix_market::<f64, _>(bytes);
        let shown = String::from_utf8_lossy(bytes);
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{shown:?}"),
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{shown:?}"),
            (got, want) => panic!("{shown:?}: got {got:?}, oracle {want:?}"),
        }
    }

    #[test]
    fn shape_and_order_are_checked_as_from_triplets_checks_them() {
        let wide = "5000000000 3 2\n";
        for (kind, body) in [
            ("general", "3 3 2\n4 1 1.0\n1 1 2.0\n"),
            // A parse error after an entry outside the shape comes first.
            ("general", "3 3 2\n4 1 1.0\n1 x 2.0\n"),
            ("general", "3 3 3\n2 1 1.0\n1 1 2.0\n3 3 1\n"),
            ("general", "3 3 2\n1 1 1.0\n1 1 2.0\n"),
            ("general", "3 3 2\n2 2 1.0\n1 3 -0.0\n"),
            ("symmetric", "3 3 2\n2 1 1.0\n3 2 2.0\n"),
            ("symmetric", "3 3 1\n1 4 1.0\n"),
            // Indices past 2^32 fit only a shape with more rows than that.
            ("general", &format!("{wide}4294967297 1 1.0\n1 1 2.0\n")),
            ("general", &format!("{wide}1 1 1.0\n4294967297 1 2.0\n")),
            ("general", "3 3 1\n4294967297 1 1.0\n"),
        ] {
            reads_as_the_oracle(
                format!("%%MatrixMarket matrix coordinate real {kind}\n{body}").as_bytes(),
            );
        }
    }

    #[test]
    fn word_search_finds_the_first_newline() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        // Bytes next to `\n` (borrows), zero, and high bytes.
        let others = b"\x0B\x09\x0E\x00\x01\x08\x8A\x80\xFF0a ";
        for _ in 0..20_000 {
            let len = rng.gen_range(0..40usize);
            let s: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.05) {
                        b'\n'
                    } else {
                        others[rng.gen_range(0..others.len())]
                    }
                })
                .collect();
            assert_eq!(find_newline(&s), s.iter().position(|&b| b == b'\n'), "{s:?}");
        }
    }

    #[test]
    fn index_fields_parse_as_usize_from_str() {
        let fields = [
            "1",
            "007",
            "+5",
            "-5",
            "1_0",
            "\u{663}",
            "18446744073709551615",
            "18446744073709551616",
            "9999999999999999999",
            "00000000000000000000001",
        ];
        for field in fields {
            for line in [format!("{field} 1 2.5"), format!("1 {field}\t2.5"), format!("1 {field}")]
            {
                let fast = line.is_ascii().then(|| ascii_entry(&line)).flatten();
                let mut words = line.split_whitespace();
                let parsed = (words.next().unwrap().parse(), words.next().unwrap().parse());
                match (fast, parsed) {
                    (Some((r, c, _)), (Ok(pr), Ok(pc))) => assert_eq!((r, c), (pr, pc), "{line:?}"),
                    // The `&str` path reads every line the fast path leaves.
                    (None, _) => {}
                    (fast, parsed) => panic!("{line:?}: fast {fast:?}, from_str {parsed:?}"),
                }
            }
        }
        assert_eq!(ascii_entry(" 12\x0B34\x0C-1e3\r"), Some((12, 34, Some("-1e3"))));
        assert_eq!(ascii_entry("12 34 1.5 extra "), Some((12, 34, Some("1.5 extra"))));
        assert_eq!(ascii_entry("12 34"), Some((12, 34, None)));
        assert_eq!(ascii_entry("% 1 2 3"), None);
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
