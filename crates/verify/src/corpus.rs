//! Regression corpus: persisted failing (or historically interesting)
//! cases, replayed deterministically by the test suite and the CLI.
//!
//! A corpus case is a small self-contained text file:
//!
//! ```text
//! # bro-verify corpus v1
//! family near-overflow-deltas
//! seed 42
//! note delta at the 2^8 boundary dropped the top bit
//! matrix 3 300 4
//! 0 0 1
//! 0 255 1
//! 0 256 -2
//! 2 299 0.5
//! x 1 1 1 ... (cols values)
//! ```
//!
//! Values use Rust's shortest round-trip float formatting, so files are
//! byte-stable and parse back to bit-identical `f64`s.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use bro_matrix::CooMatrix;

/// Most triplets reserved up front: the header's `nnz` is untrusted, so a
/// longer list grows as its lines arrive.
const PREALLOC_CAP: usize = 1 << 16;

/// One persisted case: a matrix, an input vector, and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusCase {
    /// Generator family that produced the original failure (free-form for
    /// hand-written cases).
    pub family: String,
    /// Seed of the original failing iteration.
    pub seed: u64,
    /// Human note: what regression this case pins.
    pub note: String,
    /// The (usually shrunk) matrix.
    pub matrix: CooMatrix<f64>,
    /// The input vector, length = matrix cols.
    pub x: Vec<f64>,
}

/// Errors from corpus parsing.
#[derive(Debug)]
pub enum CorpusError {
    /// IO failure.
    Io(std::io::Error),
    /// Structural problem with the file.
    Malformed(String),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "io error: {e}"),
            CorpusError::Malformed(m) => write!(f, "malformed corpus file: {m}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<std::io::Error> for CorpusError {
    fn from(e: std::io::Error) -> Self {
        CorpusError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> CorpusError {
    CorpusError::Malformed(msg.into())
}

impl CorpusCase {
    /// Serializes the case to its canonical byte-stable text form.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "# bro-verify corpus v1")?;
        writeln!(out, "family {}", self.family)?;
        writeln!(out, "seed {}", self.seed)?;
        writeln!(out, "note {}", self.note)?;
        writeln!(
            out,
            "matrix {} {} {}",
            self.matrix.rows(),
            self.matrix.cols(),
            self.matrix.nnz()
        )?;
        for (r, c, v) in self.matrix.iter() {
            writeln!(out, "{r} {c} {v}")?;
        }
        write!(out, "x")?;
        for v in &self.x {
            write!(out, " {v}")?;
        }
        writeln!(out)?;
        Ok(())
    }

    /// Parses a case from its text form.
    pub fn read_from(input: &mut impl BufRead) -> Result<CorpusCase, CorpusError> {
        let mut family = String::new();
        let mut seed = 0u64;
        let mut note = String::new();
        let mut matrix: Option<CooMatrix<f64>> = None;
        let mut x: Option<Vec<f64>> = None;

        let mut lines = input.lines();
        while let Some(line) = lines.next() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "family" => family = rest.to_string(),
                "seed" => {
                    seed = rest.parse().map_err(|e| malformed(format!("seed: {e}")))?;
                }
                "note" => note = rest.to_string(),
                "matrix" => {
                    let dims: Vec<usize> = rest
                        .split_whitespace()
                        .map(|t| t.parse().map_err(|e| malformed(format!("matrix header: {e}"))))
                        .collect::<Result<_, _>>()?;
                    let [rows, cols, nnz] = dims[..] else {
                        return Err(malformed("matrix header needs 'rows cols nnz'"));
                    };
                    let cap = nnz.min(PREALLOC_CAP);
                    let mut ri = Vec::with_capacity(cap);
                    let mut ci = Vec::with_capacity(cap);
                    let mut vs = Vec::with_capacity(cap);
                    for _ in 0..nnz {
                        let entry =
                            lines.next().ok_or_else(|| malformed("truncated triplet list"))??;
                        let toks: Vec<&str> = entry.split_whitespace().collect();
                        let [r, c, v] = toks[..] else {
                            return Err(malformed(format!("bad triplet line '{entry}'")));
                        };
                        ri.push(r.parse::<usize>().map_err(|e| malformed(format!("row: {e}")))?);
                        ci.push(c.parse::<usize>().map_err(|e| malformed(format!("col: {e}")))?);
                        vs.push(v.parse::<f64>().map_err(|e| malformed(format!("val: {e}")))?);
                    }
                    matrix = Some(
                        CooMatrix::from_triplets(rows, cols, &ri, &ci, &vs)
                            .map_err(|e| malformed(format!("invalid matrix: {e}")))?,
                    );
                }
                "x" => {
                    x = Some(
                        rest.split_whitespace()
                            .map(|t| t.parse::<f64>().map_err(|e| malformed(format!("x: {e}"))))
                            .collect::<Result<_, _>>()?,
                    );
                }
                other => return Err(malformed(format!("unknown key '{other}'"))),
            }
        }
        let matrix = matrix.ok_or_else(|| malformed("missing 'matrix' section"))?;
        let x = x.ok_or_else(|| malformed("missing 'x' line"))?;
        if x.len() != matrix.cols() {
            return Err(malformed(format!(
                "x has {} entries, matrix has {} columns",
                x.len(),
                matrix.cols()
            )));
        }
        Ok(CorpusCase { family, seed, note, matrix, x })
    }

    /// Writes the case to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut buf = Vec::new();
        self.write_to(&mut buf)?;
        std::fs::write(path, buf)
    }

    /// Reads a case from a file.
    pub fn load(path: &Path) -> Result<CorpusCase, CorpusError> {
        let file = std::fs::File::open(path)?;
        CorpusCase::read_from(&mut std::io::BufReader::new(file))
    }
}

/// The committed regression corpus: `tests/corpus` at the repository root
/// (resolved relative to this crate, so it works from any working directory).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"))
}

/// Loads every `*.corpus` file in a directory, sorted by file name for
/// deterministic replay order. A missing directory is an empty corpus.
pub fn load_dir(dir: &Path) -> Result<Vec<(String, CorpusCase)>, CorpusError> {
    let mut cases = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(cases),
        Err(e) => return Err(e.into()),
    };
    let mut paths: Vec<_> = entries
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "corpus"))
        .collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        let case = CorpusCase::load(&p).map_err(|e| malformed(format!("{}: {e}", p.display())))?;
        cases.push((name, case));
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CorpusCase {
        CorpusCase {
            family: "near-overflow-deltas".into(),
            seed: 42,
            note: "delta at the 2^8 boundary".into(),
            matrix: CooMatrix::from_triplets(
                3,
                300,
                &[0, 0, 0, 2],
                &[0, 255, 256, 299],
                &[1.0, 1.0, -2.0, 0.5],
            )
            .unwrap(),
            x: (0..300).map(|i| 1.0 + (i % 3) as f64 * 0.25).collect(),
        }
    }

    #[test]
    fn round_trips_exactly() {
        let case = sample();
        let mut buf = Vec::new();
        case.write_to(&mut buf).unwrap();
        let back = CorpusCase::read_from(&mut &buf[..]).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn serialization_is_byte_stable() {
        let case = sample();
        let mut a = Vec::new();
        case.write_to(&mut a).unwrap();
        let back = CorpusCase::read_from(&mut &a[..]).unwrap();
        let mut b = Vec::new();
        back.write_to(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn extreme_floats_survive() {
        let mut case = sample();
        case.x[0] = f64::MIN_POSITIVE;
        case.x[1] = 1.0 + f64::EPSILON;
        case.x[2] = -1.23456789012345e-300;
        let mut buf = Vec::new();
        case.write_to(&mut buf).unwrap();
        let back = CorpusCase::read_from(&mut &buf[..]).unwrap();
        assert_eq!(back.x[0].to_bits(), case.x[0].to_bits());
        assert_eq!(back.x[1].to_bits(), case.x[1].to_bits());
        assert_eq!(back.x[2].to_bits(), case.x[2].to_bits());
    }

    #[test]
    fn rejects_inconsistent_x_length() {
        let case = sample();
        let mut buf = Vec::new();
        case.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap().replace("matrix 3 300 4", "matrix 3 301 4");
        let err = CorpusCase::read_from(&mut text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("columns"));
    }

    #[test]
    fn rejects_truncated_triplets() {
        let text = "family f\nseed 1\nnote n\nmatrix 2 2 3\n0 0 1\n";
        let err = CorpusCase::read_from(&mut text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn huge_header_counts_are_errors_not_aborts() {
        for text in ["matrix 1 1 1000000000000000\n0 0 1\n", "matrix 1 1 18446744073709551615\n"] {
            let err = CorpusCase::read_from(&mut text.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("truncated"), "{text:?}: {err}");
        }
    }

    /// One seeded edit of a corpus file: a bit flip, a cut, a dropped
    /// byte, an inserted digit or separator, or a span copied elsewhere.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut rand_chacha::ChaCha8Rng) {
        use rand::Rng;
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..5) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => bytes.truncate(at),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                let pick = b"0179 \n-.e";
                bytes.insert(at, pick[rng.gen_range(0..pick.len())]);
            }
            _ => {
                let from = rng.gen_range(0..bytes.len() + 1);
                let len = rng.gen_range(0..32usize).min(bytes.len() - from);
                let piece = bytes[from..from + len].to_vec();
                bytes.splice(at..at, piece);
            }
        }
    }

    /// Seeded mutations of the committed regression corpus: reading returns
    /// `Err`, or a case that every kernel replays within tolerance. It never
    /// panics.
    #[test]
    fn mutated_corpus_files_read_to_err_or_replay_clean() {
        use rand::{Rng, SeedableRng};
        let mut files: Vec<_> = std::fs::read_dir(corpus_dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "corpus"))
            .collect();
        files.sort();
        let texts: Vec<Vec<u8>> = files.iter().map(|p| std::fs::read(p).unwrap()).collect();
        assert!(!texts.is_empty());
        let (mut replayed, mut rejected) = (0, 0);
        for seed in 0..2000u64 {
            let file = seed as usize % texts.len();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut bytes = texts[file].clone();
            for _ in 0..rng.gen_range(1..3usize) {
                mutate(&mut bytes, &mut rng);
            }
            match CorpusCase::read_from(&mut &bytes[..]) {
                Ok(case) => {
                    let tol = crate::Tolerance::default();
                    if let Some((format, m)) = crate::replay(&case, crate::kernels(), &tol) {
                        panic!("seed {seed} ({}): {format}: {m}", files[file].display());
                    }
                    replayed += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        // Both outcomes occur, so the oracle is not vacuous.
        assert!(replayed > 50 && rejected > 50, "replayed {replayed}, rejected {rejected}");
    }

    #[test]
    fn load_dir_missing_is_empty() {
        let cases = load_dir(Path::new("/nonexistent/bro-verify-corpus")).unwrap();
        assert!(cases.is_empty());
    }
}
