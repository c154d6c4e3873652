//! Heap bound of the `.bro` readers: reading an artifact allocates at most
//! `FACTOR × its length + SLACK` bytes at any moment, whatever its header
//! claims. A counting global allocator measures the peak over the committed
//! artifacts (`data/epb3-{ell,coo}.bro`, `bro_tool compress epb3 --scale
//! 0.01`) and seeded byte mutations of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bro_core::{read_bro_coo, read_bro_ell};
use rand::{Rng, SeedableRng};

/// Peak heap per input byte: the decoded matrix is about as large as the
/// artifact, and a vector grown by doubling holds at most twice what it
/// read, plus the old buffer while it moves.
const FACTOR: usize = 4;
/// Fixed allowance: up-front capacities and the per-slice decoder.
const SLACK: usize = 256 << 10;

/// Counts the calling thread's live heap bytes and their peak. A thread
/// that frees what another allocated goes below zero, which only shifts
/// the baseline [`peak_of`] subtracts.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: usize, transient: usize) {
    let live = LIVE.get() + bytes as isize;
    PEAK.set(PEAK.get().max(live + transient as isize));
    LIVE.set(live);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.set(LIVE.get() - layout.size() as isize);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // The old and the new buffer may both be live while it moves.
            LIVE.set(LIVE.get() - layout.size() as isize);
            grow(new_size, layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes `f` holds at its peak beyond what was live before it.
fn peak_of(f: impl FnOnce()) -> usize {
    let base = LIVE.get();
    PEAK.set(base);
    f();
    (PEAK.get() - base) as usize
}

/// Reads an artifact of one kind; returns whether it read back `Ok`.
type Reader = fn(&[u8]) -> bool;

fn read_ell(bytes: &[u8]) -> bool {
    read_bro_ell::<f64, u32, _>(&mut &bytes[..]).is_ok()
}

fn read_coo(bytes: &[u8]) -> bool {
    read_bro_coo::<f64, u32, _>(&mut &bytes[..]).is_ok()
}

/// Overwrites one to four bytes; half of the mutations land in the first
/// 256 bytes, where the header and the first length fields are.
fn mutate(bytes: &mut [u8], rng: &mut impl Rng) {
    for _ in 0..rng.gen_range(1..=4) {
        let end = if rng.gen_bool(0.5) { bytes.len().min(256) } else { bytes.len() };
        let pos = rng.gen_range(0..end);
        bytes[pos] = match rng.gen_range(0..4) {
            0 => 0xFF,
            1 => 0x00,
            2 => bytes[pos] ^ (1u8 << rng.gen_range(0..8u32)),
            _ => rng.gen::<u32>() as u8,
        };
    }
}

#[test]
fn readers_allocate_in_proportion_to_their_input() {
    let artifacts: [(&str, &[u8], Reader); 2] = [
        ("BRO-ELL", include_bytes!("data/epb3-ell.bro"), read_ell),
        ("BRO-COO", include_bytes!("data/epb3-coo.bro"), read_coo),
    ];
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB0_B0);
    for (kind, artifact, read) in artifacts {
        assert!(read(artifact), "the committed {kind} artifact reads back");
        for i in 0..2000 {
            let mut bytes = artifact.to_vec();
            if i > 0 {
                mutate(&mut bytes, &mut rng);
            }
            let peak = peak_of(|| {
                read(&bytes);
            });
            let bound = FACTOR * bytes.len() + SLACK;
            assert!(peak <= bound, "{kind} mutation {i}: peak {peak} B > {bound} B");
            // The counter sees the decoded matrix, about as large as its input.
            assert!(i > 0 || peak >= bytes.len() / 2, "{kind}: peak {peak} B for the artifact");
        }
    }
}

fn set_u64(bytes: &[u8], at: usize, v: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 8].copy_from_slice(&v.to_le_bytes());
    out
}

/// Length fields set to 2^39, each before any byte backs it: slice 0's
/// column count (with its `bit_alloc` length) and symbol count, and the
/// BRO-COO interval count.
#[test]
fn huge_length_fields_are_read_in_proportion_to_the_input() {
    let ell: &[u8] = include_bytes!("data/epb3-ell.bro");
    let coo: &[u8] = include_bytes!("data/epb3-coo.bro");
    // Header: magic and tags (11 bytes), then six u64 fields for BRO-ELL
    // and four for BRO-COO. Slice 0 starts with height, num_cols, pad_bits
    // (u32), syms_per_row and the bit_alloc length.
    let slice = 11 + 6 * 8;
    let num_cols = u64::from_le_bytes(ell[slice + 8..slice + 16].try_into().unwrap()) as usize;
    let huge = 1u64 << 39;
    let wide = set_u64(&set_u64(ell, slice + 8, huge), slice + 28, huge);
    let cases: [(&str, Vec<u8>, Reader); 3] = [
        ("slice columns", wide, read_ell),
        ("symbol count", set_u64(ell, slice + 36 + num_cols, huge), read_ell),
        ("interval count", set_u64(coo, 11 + 3 * 8, huge), read_coo),
    ];
    for (field, bytes, read) in cases {
        let peak = peak_of(|| assert!(!read(&bytes), "{field}: read back Ok"));
        let bound = FACTOR * bytes.len() + SLACK;
        assert!(peak <= bound, "{field}: peak {peak} B > {bound} B");
    }
}
