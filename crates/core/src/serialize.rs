//! Binary serialization of compressed matrices.
//!
//! Compression is an offline step; a production deployment compresses a
//! matrix once and reuses the artifact across solver runs. This module
//! defines a small, versioned little-endian container:
//!
//! ```text
//! magic   "BROSPMV1"                     8 bytes
//! format  1 = BRO-ELL, 2 = BRO-COO       u8
//! scalar  4 = f32, 8 = f64               u8
//! symbol  4 = u32, 8 = u64               u8
//! payload format-specific                …
//! ```
//!
//! Readers validate the header against the requested types and every length
//! field against the remaining payload, so truncated or mistyped files are
//! rejected instead of mis-decoded. They also decode every slice and
//! interval once: a stream whose indices fall outside the matrix, or whose
//! entry count disagrees with the header, is an error, so a matrix that
//! reads back can be decompressed and multiplied without panicking.

use std::io::{Read, Write};

use bro_bitstream::{Symbol, WarpDecoder};
use bro_matrix::Scalar;

use crate::bro_coo::{BroCoo, BroCooInterval};
use crate::bro_ell::{BroEll, BroEllSlice, MAX_SLICE_HEIGHT};

/// File magic.
pub const MAGIC: &[u8; 8] = b"BROSPMV1";

/// Serialization errors.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Bad magic, wrong format tag, or type mismatch.
    Header(String),
    /// Structurally invalid payload.
    Payload(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "io error: {e}"),
            SerializeError::Header(m) => write!(f, "header error: {m}"),
            SerializeError::Payload(m) => write!(f, "payload error: {m}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

type Result<T> = std::result::Result<T, SerializeError>;

// --- primitive IO helpers -------------------------------------------------

fn put_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn put_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn get_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_usize<R: Read>(r: &mut R, what: &str, cap: u64) -> Result<usize> {
    let v = get_u64(r)?;
    if v > cap {
        return Err(SerializeError::Payload(format!("{what} = {v} exceeds sanity cap {cap}")));
    }
    Ok(v as usize)
}

/// Sanity cap for any single length field (protects against running wild on
/// corrupted input before hitting EOF).
const LEN_CAP: u64 = 1 << 40;

/// Cap for the row and column counts: matrix indices are `u32`.
const DIM_CAP: u64 = 1 << 32;

fn payload(msg: String) -> SerializeError {
    SerializeError::Payload(msg)
}

/// `a · b`, or an error naming `what` when the product overflows.
fn product(a: usize, b: usize, what: &str) -> Result<usize> {
    a.checked_mul(b).ok_or_else(|| payload(format!("{what} overflows: {a} x {b}")))
}

fn put_header<W: Write>(w: &mut W, format: u8, val_bytes: u8, sym_bytes: u8) -> Result<()> {
    w.write_all(MAGIC)?;
    Ok(w.write_all(&[format, val_bytes, sym_bytes])?)
}

fn check_header<R: Read>(r: &mut R, format: u8, val_bytes: u8, sym_bytes: u8) -> Result<()> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SerializeError::Header("bad magic".into()));
    }
    let mut tags = [0u8; 3];
    r.read_exact(&mut tags)?;
    if tags[0] != format {
        return Err(SerializeError::Header(format!(
            "format tag {} does not match expected {format}",
            tags[0]
        )));
    }
    if tags[1] != val_bytes {
        return Err(SerializeError::Header(format!(
            "scalar width {} does not match expected {val_bytes}",
            tags[1]
        )));
    }
    if tags[2] != sym_bytes {
        return Err(SerializeError::Header(format!(
            "symbol width {} does not match expected {sym_bytes}",
            tags[2]
        )));
    }
    Ok(())
}

fn put_vals<T: Scalar, W: Write>(w: &mut W, vals: &[T]) -> Result<()> {
    put_u64(w, vals.len() as u64)?;
    for v in vals {
        w.write_all(&v.to_f64().to_le_bytes())?;
    }
    Ok(())
}

fn get_vals<T: Scalar, R: Read>(r: &mut R) -> Result<Vec<T>> {
    let n = get_usize(r, "value count", LEN_CAP)?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        out.push(T::from_f64(f64::from_le_bytes(b)));
    }
    Ok(out)
}

fn put_syms<S: Symbol, W: Write>(w: &mut W, syms: &[S]) -> Result<()> {
    put_u64(w, syms.len() as u64)?;
    for s in syms {
        match S::BITS {
            32 => put_u32(w, s.to_u64() as u32)?,
            64 => put_u64(w, s.to_u64())?,
            other => {
                return Err(SerializeError::Payload(format!("unsupported symbol width {other}")))
            }
        }
    }
    Ok(())
}

fn get_syms<S: Symbol, R: Read>(r: &mut R) -> Result<Vec<S>> {
    let n = get_usize(r, "symbol count", LEN_CAP)?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let v = match S::BITS {
            32 => get_u32(r)? as u64,
            64 => get_u64(r)?,
            other => {
                return Err(SerializeError::Payload(format!("unsupported symbol width {other}")))
            }
        };
        out.push(S::from_u64(v));
    }
    Ok(out)
}

// --- BRO-ELL ----------------------------------------------------------------

/// Writes a BRO-ELL matrix to a binary stream.
pub fn write_bro_ell<T: Scalar, S: Symbol, W: Write>(bro: &BroEll<T, S>, w: &mut W) -> Result<()> {
    put_header(w, 1, T::BYTES as u8, (S::BITS / 8) as u8)?;
    put_u64(w, bro.rows() as u64)?;
    put_u64(w, bro.cols() as u64)?;
    put_u64(w, bro.nnz() as u64)?;
    put_u64(w, bro.ell_width() as u64)?;
    put_u64(w, bro.slice_height() as u64)?;
    put_u64(w, bro.slices().len() as u64)?;
    for s in bro.slices() {
        put_u64(w, s.height as u64)?;
        put_u64(w, s.num_cols as u64)?;
        put_u32(w, s.pad_bits)?;
        put_u64(w, s.syms_per_row as u64)?;
        put_u64(w, s.bit_alloc.len() as u64)?;
        w.write_all(&s.bit_alloc)?;
        put_syms(w, &s.stream)?;
        put_vals(w, &s.vals)?;
    }
    Ok(())
}

/// Reads a BRO-ELL matrix from a binary stream.
pub fn read_bro_ell<T: Scalar, S: Symbol, R: Read>(r: &mut R) -> Result<BroEll<T, S>> {
    check_header(r, 1, T::BYTES as u8, (S::BITS / 8) as u8)?;
    let rows = get_usize(r, "rows", DIM_CAP)?;
    let cols = get_usize(r, "cols", DIM_CAP)?;
    let nnz = get_usize(r, "nnz", LEN_CAP)?;
    let ell_width = get_usize(r, "ell width", LEN_CAP)?;
    // One slice is one thread block. The limit also bounds `rows` by the
    // slice records actually read, so what `rows` sizes stays in
    // proportion to the input.
    let slice_height = get_usize(r, "slice height", MAX_SLICE_HEIGHT as u64)?;
    let n_slices = get_usize(r, "slice count", LEN_CAP)?;
    // Slice `i` holds rows `i·h .. min((i+1)·h, rows)`, as `compress` cuts them.
    let expected_slices = if slice_height == 0 { 0 } else { rows.div_ceil(slice_height) };
    if n_slices != expected_slices || (slice_height == 0 && rows > 0) {
        return Err(payload(format!(
            "{n_slices} slices of height {slice_height} cannot hold {rows} rows"
        )));
    }
    let mut slices = Vec::with_capacity(n_slices.min(1 << 20));
    let mut dec = WarpDecoder::new();
    let mut decoded_nnz = 0usize;
    for i in 0..n_slices {
        let height = get_usize(r, "slice rows", LEN_CAP)?;
        let expected_height = slice_height.min(rows - i * slice_height);
        if height != expected_height {
            return Err(payload(format!("slice {i}: height {height}, expected {expected_height}")));
        }
        let num_cols = get_usize(r, "slice cols", LEN_CAP)?;
        let pad_bits = get_u32(r)?;
        let syms_per_row = get_usize(r, "syms per row", LEN_CAP)?;
        let alloc_len = get_usize(r, "bit_alloc length", LEN_CAP)?;
        if alloc_len != num_cols {
            return Err(SerializeError::Payload(format!(
                "slice {i}: bit_alloc length {alloc_len} != num_cols {num_cols}"
            )));
        }
        let mut bit_alloc = vec![0u8; alloc_len];
        r.read_exact(&mut bit_alloc)?;
        if bit_alloc.iter().any(|&b| b as u32 > S::BITS) {
            return Err(SerializeError::Payload(format!(
                "slice {i}: bit width exceeds symbol width"
            )));
        }
        let row_bits: u64 = bit_alloc.iter().map(|&b| u64::from(b)).sum();
        if row_bits > syms_per_row as u64 * u64::from(S::BITS) {
            return Err(payload(format!(
                "slice {i}: bit_alloc needs {row_bits} bits, more than {syms_per_row} symbols"
            )));
        }
        let stream = get_syms::<S, _>(r)?;
        let stream_len = product(syms_per_row, height, "stream length")?;
        if stream.len() != stream_len {
            return Err(SerializeError::Payload(format!(
                "slice {i}: stream length {} != {stream_len}",
                stream.len(),
            )));
        }
        let vals = get_vals::<T, _>(r)?;
        let vals_len = product(height, num_cols, "value length")?;
        if vals.len() != vals_len {
            return Err(SerializeError::Payload(format!(
                "slice {i}: value length {} != {vals_len}",
                vals.len(),
            )));
        }
        let slice =
            BroEllSlice { height, num_cols, bit_alloc, pad_bits, syms_per_row, stream, vals };
        decoded_nnz += check_slice_columns(&slice, cols, &mut dec)
            .map_err(|e| payload(format!("slice {i}: {e}")))?;
        slices.push(slice);
    }
    if decoded_nnz != nnz {
        return Err(payload(format!("streams hold {decoded_nnz} entries, header says {nnz}")));
    }
    let widest = slices.iter().map(|s| s.num_cols).max().unwrap_or(0);
    if ell_width != widest {
        return Err(payload(format!("ell width {ell_width} != longest slice row {widest}")));
    }
    Ok(BroEll::from_parts(rows, cols, nnz, ell_width, slice_height, slices))
}

/// Decodes a slice's stream, one warp of `height` lanes, and checks that
/// every row's columns stay below `cols` (deltas are unsigned, so they
/// increase strictly as long as the sum does not overflow). Returns the
/// number of entries.
fn check_slice_columns<T: Scalar, S: Symbol>(
    slice: &BroEllSlice<T, S>,
    cols: usize,
    dec: &mut WarpDecoder<S>,
) -> std::result::Result<usize, String> {
    if slice.num_cols == 0 {
        return Ok(0);
    }
    dec.reset(slice.height);
    // Per row: one past the last column decoded so far.
    let mut next = vec![0u64; slice.height];
    let mut entries = 0;
    for (c, &bits) in slice.bit_alloc.iter().enumerate() {
        dec.decode(&slice.stream, slice.height, 0, u32::from(bits));
        for (row, (end, &d)) in next.iter_mut().zip(dec.deltas()).enumerate() {
            if d != 0 {
                *end = end
                    .checked_add(d)
                    .filter(|&e| e <= cols as u64)
                    .ok_or_else(|| format!("row {row}, slot {c}: column past {cols}"))?;
                entries += 1;
            }
        }
    }
    Ok(entries)
}

// --- BRO-COO ----------------------------------------------------------------

/// Writes a BRO-COO matrix to a binary stream.
pub fn write_bro_coo<T: Scalar, S: Symbol, W: Write>(bro: &BroCoo<T, S>, w: &mut W) -> Result<()> {
    put_header(w, 2, T::BYTES as u8, (S::BITS / 8) as u8)?;
    put_u64(w, bro.rows() as u64)?;
    put_u64(w, bro.cols() as u64)?;
    put_u64(w, bro.warp_size() as u64)?;
    put_u64(w, bro.intervals().len() as u64)?;
    for iv in bro.intervals() {
        put_u64(w, iv.start as u64)?;
        put_u64(w, iv.len as u64)?;
        put_u32(w, iv.base_row)?;
        w.write_all(&[iv.bit_width])?;
        put_u64(w, iv.syms_per_lane as u64)?;
        put_syms(w, &iv.stream)?;
    }
    put_u64(w, bro.col_indices().len() as u64)?;
    for &c in bro.col_indices() {
        put_u32(w, c)?;
    }
    put_vals(w, bro.values())?;
    Ok(())
}

/// Reads a BRO-COO matrix from a binary stream.
pub fn read_bro_coo<T: Scalar, S: Symbol, R: Read>(r: &mut R) -> Result<BroCoo<T, S>> {
    check_header(r, 2, T::BYTES as u8, (S::BITS / 8) as u8)?;
    let rows = get_usize(r, "rows", DIM_CAP)?;
    let cols = get_usize(r, "cols", DIM_CAP)?;
    let warp_size = get_usize(r, "warp size", 4096)?;
    if warp_size == 0 {
        return Err(SerializeError::Payload("zero warp size".into()));
    }
    let n_intervals = get_usize(r, "interval count", LEN_CAP)?;
    let mut intervals = Vec::with_capacity(n_intervals.min(1 << 20));
    let mut expected_start = 0usize;
    for i in 0..n_intervals {
        let start = get_usize(r, "interval start", LEN_CAP)?;
        let len = get_usize(r, "interval length", LEN_CAP)?;
        if start != expected_start || len == 0 {
            return Err(SerializeError::Payload(format!(
                "interval {i}: start {start} (expected {expected_start}), len {len}"
            )));
        }
        expected_start += if i + 1 < n_intervals { len.max(1) } else { len };
        let base_row = get_u32(r)?;
        let mut bw = [0u8; 1];
        r.read_exact(&mut bw)?;
        if bw[0] as u32 > S::BITS {
            return Err(SerializeError::Payload(format!("interval {i}: bit width too large")));
        }
        let syms_per_lane = get_usize(r, "syms per lane", LEN_CAP)?;
        let lane_bits = len.div_ceil(warp_size) as u64 * u64::from(bw[0]);
        if lane_bits > syms_per_lane as u64 * u64::from(S::BITS) {
            return Err(payload(format!(
                "interval {i}: {lane_bits} bits per lane, more than {syms_per_lane} symbols"
            )));
        }
        let stream = get_syms::<S, _>(r)?;
        if stream.len() != syms_per_lane * warp_size {
            return Err(SerializeError::Payload(format!(
                "interval {i}: stream length {} != {}",
                stream.len(),
                syms_per_lane * warp_size
            )));
        }
        intervals.push(BroCooInterval {
            start,
            len,
            base_row,
            bit_width: bw[0],
            syms_per_lane,
            stream,
        });
    }
    let n_cols_arr = get_usize(r, "col index count", LEN_CAP)?;
    let total_len: usize = intervals.iter().map(|iv| iv.len).sum();
    if n_cols_arr != total_len {
        return Err(SerializeError::Payload(format!(
            "column array length {n_cols_arr} != interval total {total_len}"
        )));
    }
    let mut col_idx = Vec::with_capacity(n_cols_arr.min(1 << 20));
    for _ in 0..n_cols_arr {
        let c = get_u32(r)?;
        if c as usize >= cols {
            return Err(SerializeError::Payload(format!("column index {c} out of {cols}")));
        }
        col_idx.push(c);
    }
    let vals = get_vals::<T, _>(r)?;
    if vals.len() != n_cols_arr {
        return Err(SerializeError::Payload(format!(
            "value count {} != entry count {n_cols_arr}",
            vals.len()
        )));
    }
    // Decoded only now: the column array has backed every interval length.
    let mut dec = WarpDecoder::new();
    let mut prev = None;
    for (i, iv) in intervals.iter().enumerate() {
        let cols_of_iv = &col_idx[iv.start..iv.start + iv.len];
        check_interval_entries(iv, cols_of_iv, warp_size, rows, &mut prev, &mut dec)
            .map_err(|e| payload(format!("interval {i}: {e}")))?;
    }
    Ok(BroCoo::from_parts(rows, cols, warp_size, intervals, col_idx, vals))
}

/// Decodes an interval's row deltas, one warp-wide step at a time, and
/// checks that every row stays below `rows` and that the entries, `prev`
/// being the last one before the interval, are in strictly increasing
/// (row, column) order.
fn check_interval_entries<S: Symbol>(
    iv: &BroCooInterval<S>,
    cols: &[u32],
    warp: usize,
    rows: usize,
    prev: &mut Option<(u64, u32)>,
    dec: &mut WarpDecoder<S>,
) -> std::result::Result<(), String> {
    dec.reset(warp);
    let mut row = u64::from(iv.base_row);
    for (j, step_cols) in cols.chunks(warp).enumerate() {
        dec.decode(&iv.stream, warp, 0, u32::from(iv.bit_width));
        // Lanes past the interval's tail decode packing zeros.
        for (&d, &col) in dec.deltas().iter().zip(step_cols) {
            row = row
                .checked_add(d)
                .filter(|&r| r < rows as u64)
                .ok_or_else(|| format!("step {j}: row past {rows}"))?;
            if prev.is_some_and(|p| p >= (row, col)) {
                return Err(format!("step {j}: entry ({row}, {col}) out of order"));
            }
            *prev = Some((row, col));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BroCooConfig, BroEllConfig};
    use bro_matrix::CooMatrix;

    fn matrix() -> CooMatrix<f64> {
        bro_matrix::generate::laplacian_2d::<f64>(13)
    }

    #[test]
    fn bro_ell_round_trip() {
        let coo = matrix();
        let bro: BroEll<f64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 32, ..Default::default() });
        let mut buf = Vec::new();
        write_bro_ell(&bro, &mut buf).unwrap();
        let back: BroEll<f64> = read_bro_ell(&mut &buf[..]).unwrap();
        assert_eq!(back, bro);
        assert_eq!(back.decompress(), coo);
    }

    #[test]
    fn bro_ell_round_trip_u64_symbols() {
        let coo = matrix();
        let bro: BroEll<f64, u64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let mut buf = Vec::new();
        write_bro_ell(&bro, &mut buf).unwrap();
        let back: BroEll<f64, u64> = read_bro_ell(&mut &buf[..]).unwrap();
        assert_eq!(back, bro);
    }

    #[test]
    fn bro_coo_round_trip() {
        let coo = matrix();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &BroCooConfig::default());
        let mut buf = Vec::new();
        write_bro_coo(&bro, &mut buf).unwrap();
        let back: BroCoo<f64> = read_bro_coo(&mut &buf[..]).unwrap();
        assert_eq!(back, bro);
        assert_eq!(back.decompress(), coo);
    }

    #[test]
    fn f32_round_trip() {
        let coo32: CooMatrix<f32> =
            CooMatrix::from_triplets(3, 3, &[0, 1, 2], &[1, 2, 0], &[1.5f32, -2.25, 3.0]).unwrap();
        let bro: BroEll<f32> = BroEll::from_coo(&coo32, &BroEllConfig::default());
        let mut buf = Vec::new();
        write_bro_ell(&bro, &mut buf).unwrap();
        let back: BroEll<f32> = read_bro_ell(&mut &buf[..]).unwrap();
        assert_eq!(back.decompress(), coo32);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_bro_ell(&BroEll::<f64>::from_coo(&matrix(), &Default::default()), &mut buf).unwrap();
        buf[0] ^= 0xFF;
        let err = read_bro_ell::<f64, u32, _>(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SerializeError::Header(_)), "{err}");
    }

    #[test]
    fn wrong_scalar_width_rejected() {
        let mut buf = Vec::new();
        write_bro_ell(&BroEll::<f64>::from_coo(&matrix(), &Default::default()), &mut buf).unwrap();
        let err = read_bro_ell::<f32, u32, _>(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SerializeError::Header(_)));
    }

    #[test]
    fn wrong_format_tag_rejected() {
        let mut buf = Vec::new();
        write_bro_coo(&BroCoo::<f64>::compress(&matrix(), &BroCooConfig::default()), &mut buf)
            .unwrap();
        let err = read_bro_ell::<f64, u32, _>(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SerializeError::Header(_)));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut buf = Vec::new();
        write_bro_ell(&BroEll::<f64>::from_coo(&matrix(), &Default::default()), &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = read_bro_ell::<f64, u32, _>(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SerializeError::Io(_) | SerializeError::Payload(_)));
    }

    #[test]
    fn corrupted_length_field_rejected() {
        let coo = matrix();
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &Default::default());
        let mut buf = Vec::new();
        write_bro_ell(&bro, &mut buf).unwrap();
        // Corrupt the rows field (offset 11: after magic + 3 tag bytes).
        buf[11] ^= 0x55;
        assert!(read_bro_ell::<f64, u32, _>(&mut &buf[..]).is_err());
    }

    fn reread_ell(bro: &BroEll<f64>) -> Result<BroEll<f64>> {
        let mut buf = Vec::new();
        write_bro_ell(bro, &mut buf).unwrap();
        read_bro_ell(&mut &buf[..])
    }

    fn payload_error<M: std::fmt::Debug>(r: Result<M>, what: &str) {
        match r {
            Err(SerializeError::Payload(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("expected a payload error about {what}, got {other:?}"),
        }
    }

    /// The header fields and slice streams a decoded stream must agree with.
    #[test]
    fn bro_ell_header_must_agree_with_the_streams() {
        let bro: BroEll<f64> =
            BroEll::from_coo(&matrix(), &BroEllConfig { slice_height: 32, ..Default::default() });
        let (rows, cols, nnz, k) = (bro.rows(), bro.cols(), bro.nnz(), bro.ell_width());
        let with = |rows, cols, nnz, k, h, slices| {
            reread_ell(&BroEll::from_parts(rows, cols, nnz, k, h, slices))
        };
        let slices = bro.slices().to_vec();
        payload_error(with(rows, cols, nnz + 1, k, 32, slices.clone()), "entries");
        payload_error(with(rows, cols - 1, nnz, k, 32, slices.clone()), "column past");
        payload_error(with(rows, cols, nnz, k + 1, 32, slices.clone()), "ell width");
        // 169 rows in slices of 32: five full slices and one of 9.
        payload_error(with(rows, cols, nnz, k, 16, slices.clone()), "slices of height");
        let mut swapped = slices.clone();
        swapped.swap(0, 5);
        payload_error(with(rows, cols, nnz, k, 32, swapped), "height");
        // A wider first column needs more bits than the stream holds.
        let mut wide = slices;
        wide[0].bit_alloc[0] = 32;
        wide[0].bit_alloc[1] = 32;
        payload_error(with(rows, cols, nnz, k, 32, wide), "bit_alloc needs");
    }

    /// A 111-byte artifact: 2^31 rows in one empty slice of that height.
    /// Read back, it made `bro_tool spmv` allocate a 17 GB row pointer.
    fn unbacked_rows_artifact() -> Vec<u8> {
        let h = 1 << 31;
        let empty = BroEllSlice::<f64, u32> {
            height: h,
            num_cols: 0,
            bit_alloc: Vec::new(),
            pad_bits: 0,
            syms_per_row: 0,
            stream: Vec::new(),
            vals: Vec::new(),
        };
        let mut buf = Vec::new();
        write_bro_ell(&BroEll::from_parts(h, 1, 0, 0, h, vec![empty]), &mut buf).unwrap();
        buf
    }

    #[test]
    fn slice_height_is_limited_to_a_thread_block() {
        let buf = unbacked_rows_artifact();
        assert_eq!(buf.len(), 111);
        payload_error(read_bro_ell::<f64, u32, _>(&mut &buf[..]), "slice height");
        // The largest thread block still round-trips.
        let bro: BroEll<f64> = BroEll::from_coo(
            &matrix(),
            &BroEllConfig { slice_height: MAX_SLICE_HEIGHT, ..Default::default() },
        );
        assert_eq!(reread_ell(&bro).unwrap(), bro);
    }

    #[test]
    #[should_panic(expected = "thread-block limit")]
    fn compress_rejects_a_slice_taller_than_a_thread_block() {
        let cfg = BroEllConfig { slice_height: MAX_SLICE_HEIGHT + 1, ..Default::default() };
        let _: BroEll<f64> = BroEll::from_coo(&matrix(), &cfg);
    }

    #[test]
    fn bro_coo_rows_must_stay_in_range_and_order() {
        let bro: BroCoo<f64> = BroCoo::compress(&matrix(), &BroCooConfig::default());
        let reread = |rows, col_idx: Vec<u32>| {
            let parts = BroCoo::from_parts(
                rows,
                bro.cols(),
                bro.warp_size(),
                bro.intervals().to_vec(),
                col_idx,
                bro.values().to_vec(),
            );
            let mut buf = Vec::new();
            write_bro_coo(&parts, &mut buf).unwrap();
            read_bro_coo::<f64, u32, _>(&mut &buf[..])
        };
        assert!(reread(bro.rows(), bro.col_indices().to_vec()).is_ok());
        payload_error(reread(bro.rows() - 1, bro.col_indices().to_vec()), "row past");
        // Row 0 holds columns 0, 1 and 13; swapping two makes them unsorted.
        let mut cols = bro.col_indices().to_vec();
        cols.swap(0, 1);
        payload_error(reread(bro.rows(), cols), "out of order");
    }

    #[test]
    fn error_display() {
        let e = SerializeError::Header("nope".into());
        assert!(e.to_string().contains("nope"));
    }
}
