//! Corrupt-blob robustness: no truncation or single-byte flip of a
//! serialized `DASPFMT2` blob (with its `DASPPLN1` plan trailer) may
//! panic the reader. Every outcome is either a typed [`SerError`] or an
//! `Ok` matrix that still passes full validation — a flip that lands in
//! a value byte legitimately decodes, but it must never smuggle in a
//! structurally broken matrix. A standalone `DASPPLN1` plan whose header
//! or row ids disagree with its arrays is a typed error as well.

use dasp_core::consts::DaspParams;
use dasp_core::format::{DaspMatrix, Invariant, SerError};
use dasp_core::DaspPlan;
use dasp_sparse::{Coo, Csr};

/// A small matrix exercising all three categories, analyzed with
/// `max_len` 8.
fn sample() -> (Csr<f64>, DaspParams) {
    let mut coo = Coo::new(24, 80);
    // One long row (> max_len 8), a few medium rows, and short rows of
    // every piecing length.
    let lens = [70usize, 6, 6, 5, 1, 3, 1, 3, 4, 4, 2, 2, 2, 2, 1, 0];
    for (r, &len) in lens.iter().enumerate() {
        for c in 0..len {
            coo.push(r, c, (r * 7 + c) as f64 * 0.25 - 3.0);
        }
    }
    let params = DaspParams {
        max_len: 8,
        ..DaspParams::default()
    };
    (coo.to_csr(), params)
}

/// The sample matrix with its plan trailer.
fn blob() -> Vec<u8> {
    let (csr, params) = sample();
    let m = DaspPlan::analyze(&csr, params).fill(&csr);
    let mut buf = Vec::new();
    m.write_to(&mut buf).unwrap();
    buf
}

/// The sample's plan as a standalone `DASPPLN1` container.
fn plan_blob() -> Vec<u8> {
    let (csr, params) = sample();
    let mut buf = Vec::new();
    DaspPlan::analyze(&csr, params).write_to(&mut buf).unwrap();
    buf
}

/// A blob whose larger arrays span several of the codec's I/O chunks
/// (a few thousand elements each), with the plan trailer attached.
fn multi_chunk_blob() -> Vec<u8> {
    let csr = dasp_matgen::circuit_like(6000, 3, 900, 17);
    let m = DaspPlan::analyze(&csr, DaspParams::default()).fill(&csr);
    let mut buf = Vec::new();
    m.write_to(&mut buf).unwrap();
    buf
}

/// A reader over `data` recording the offset and length of every `read`
/// call, so a test learns where the decoder's chunk boundaries fall
/// without knowing the container layout.
struct Recorder<'a> {
    data: &'a [u8],
    pos: usize,
    reads: Vec<(usize, usize)>,
}

impl std::io::Read for Recorder<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.data.len() - self.pos);
        self.reads.push((self.pos, buf.len()));
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Decode must not panic; an `Ok` result must still be fully valid.
fn decode_is_sound(bytes: &[u8]) -> Result<(), String> {
    match DaspMatrix::<f64>::read_from(&mut &bytes[..]) {
        Ok(m) => m
            .validate()
            .map_err(|e| format!("decoded Ok but invalid: {e}")),
        Err(SerError::Io(_) | SerError::Malformed(_)) => Ok(()),
        Err(SerError::WrongScalar { .. } | SerError::Invalid(_)) => Ok(()),
    }
}

#[test]
fn pristine_blob_round_trips() {
    let bytes = blob();
    assert!(decode_is_sound(&bytes).is_ok());
    let m = DaspMatrix::<f64>::read_from(&mut &bytes[..]).unwrap();
    assert!(m.plan().is_some(), "plan trailer must ride along");
}

#[test]
fn every_truncation_yields_typed_error() {
    let bytes = blob();
    for cut in 0..bytes.len() {
        decode_is_sound(&bytes[..cut])
            .unwrap_or_else(|e| panic!("truncation at {cut}/{}: {e}", bytes.len()));
        // A strict prefix can never decode to a full matrix + plan: the
        // reader must notice the missing tail, not silently succeed.
        assert!(
            DaspMatrix::<f64>::read_from(&mut &bytes[..cut]).is_err(),
            "truncation at {cut}/{} decoded Ok",
            bytes.len()
        );
    }
}

#[test]
fn multi_chunk_blob_cut_at_every_chunk_boundary_is_an_io_error() {
    let bytes = multi_chunk_blob();
    let mut rec = Recorder {
        data: &bytes,
        pos: 0,
        reads: Vec::new(),
    };
    let m = DaspMatrix::<f64>::read_from(&mut rec).expect("pristine blob decodes");
    assert!(m.plan().is_some());
    assert_eq!(rec.pos, bytes.len(), "the reader consumes the whole blob");
    // The blob must really be multi-chunk: the widest read (a full chunk
    // of 8-byte elements) recurs back to back within one array.
    let widest = rec.reads.iter().map(|&(_, len)| len).max().unwrap();
    assert!(widest > 8, "arrays are read in chunks, not per element");
    assert!(
        rec.reads
            .windows(2)
            .any(|w| w[0].1 == widest && w[1].1 == widest),
        "some array spans several full chunks"
    );
    for &(start, len) in &rec.reads {
        for cut in [start.saturating_sub(1), start, start + 1, start + len - 1] {
            if cut >= bytes.len() {
                continue;
            }
            // Truncation surfaces as the reader's I/O error.
            match DaspMatrix::<f64>::read_from(&mut &bytes[..cut]) {
                Err(SerError::Io(_)) => {}
                Err(e) => panic!("cut at {cut}/{}: expected Io, got {e}", bytes.len()),
                Ok(_) => panic!("cut at {cut}/{} decoded Ok", bytes.len()),
            }
        }
    }
}

#[test]
fn every_single_byte_flip_is_sound() {
    let bytes = blob();
    let mut flipped = bytes.clone();
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            flipped[i] ^= bit;
            decode_is_sound(&flipped)
                .unwrap_or_else(|e| panic!("flip of bit {bit:#04x} at byte {i}: {e}"));
            flipped[i] = bytes[i];
        }
    }
}

#[test]
fn garbage_and_empty_inputs_are_rejected() {
    assert!(DaspMatrix::<f64>::read_from(&mut &[][..]).is_err());
    let garbage: Vec<u8> = (0..256u32).map(|i| (i * 37 % 251) as u8).collect();
    assert!(DaspMatrix::<f64>::read_from(&mut garbage.as_slice()).is_err());
    // A huge claimed length must be rejected without a matching
    // allocation attempt (the reader clamps preallocation).
    let mut huge = blob();
    let n = huge.len();
    huge[n - 9..n - 1].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_is_sound(&huge).is_ok());
}

/// Reads a standalone plan blob, returning the invariant its first
/// breach names.
fn plan_breach(bytes: &[u8]) -> Invariant {
    match DaspPlan::read_from(&mut &bytes[..]) {
        Err(SerError::Invalid(v)) => v.invariant,
        Err(e) => panic!("expected a structural breach, got {e}"),
        Ok(_) => panic!("corrupt plan decoded Ok"),
    }
}

/// Byte offset just past the length-prefixed array of `width`-byte
/// elements starting at `at`.
fn skip_array(bytes: &[u8], at: usize, width: usize) -> usize {
    let n = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    at + 8 + n as usize * width
}

#[test]
fn plan_with_shrunk_rows_header_is_rejected() {
    // Short rows 4..15 now lie past the claimed 10 rows: y scatters out
    // of bounds.
    let mut bytes = plan_blob();
    bytes[8..16].copy_from_slice(&10u64.to_le_bytes());
    assert_eq!(plan_breach(&bytes), Invariant::RowRange);
}

#[test]
fn plan_with_shrunk_cols_header_is_rejected() {
    // The long row's column ids reach 69, past the claimed 10 columns:
    // x gathers out of bounds.
    let mut bytes = plan_blob();
    bytes[16..24].copy_from_slice(&10u64.to_le_bytes());
    assert_eq!(plan_breach(&bytes), Invariant::CidRange);
}

#[test]
fn plan_with_a_row_in_two_categories_is_rejected() {
    // Give the first medium row the long row's id: a matrix filled from
    // this plan would have two warps write one y element.
    let mut bytes = plan_blob();
    let long_rows = 8 + 7 * 8; // magic + header
    let group_ptr = skip_array(&bytes, long_rows, 4);
    let long_cids = skip_array(&bytes, group_ptr, 8);
    let med_rows = skip_array(&bytes, long_cids, 4) + 8; // + long_nnz
    let long_row: [u8; 4] = bytes[long_rows + 8..long_rows + 12].try_into().unwrap();
    bytes[med_rows + 8..med_rows + 12].copy_from_slice(&long_row);
    assert_eq!(plan_breach(&bytes), Invariant::RowPartition);
}

/// Byte offsets, in a standalone plan blob, of the long part's
/// `nnz_orig`, the short part's `nnz_orig` and the gather map's length
/// prefix.
fn plan_offsets(bytes: &[u8]) -> (usize, usize, usize) {
    let mut at = 8 + 7 * 8; // magic + header
    for width in [4, 8, 4] {
        at = skip_array(bytes, at, width); // long rows, group_ptr, cids
    }
    let long_nnz = at;
    at += 8;
    for width in [4, 8, 4, 4, 8] {
        at = skip_array(bytes, at, width); // medium rows .. irreg_ptr
    }
    at = skip_array(bytes, at + 8, 4) + 7 * 8; // + medium nnz, short cids, counts
    for _ in 0..4 {
        at = skip_array(bytes, at, 4); // the four short perms
    }
    (long_nnz, at, at + 8)
}

fn read_u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

#[test]
fn plan_whose_fill_overfills_a_category_is_rejected() {
    // One 300-element long row (320 slots) and 59 length-2 rows. Moving
    // 21 counts from short to long keeps the header sum, but a matrix
    // filled from the plan would claim 321 long nonzeros in 320 slots.
    let mut coo = Coo::new(60, 400);
    for c in 0..300 {
        coo.push(0, c, 1.0);
    }
    for r in 1..60 {
        coo.push(r, r, 2.0);
        coo.push(r, r + 100, 3.0);
    }
    let csr: Csr<f64> = coo.to_csr();
    let mut bytes = Vec::new();
    DaspPlan::analyze(&csr, DaspParams::default())
        .write_to(&mut bytes)
        .unwrap();
    let (long_nnz, short_nnz, _) = plan_offsets(&bytes);
    assert_eq!(read_u64_at(&bytes, long_nnz), 300);
    assert_eq!(read_u64_at(&bytes, short_nnz), 118);
    bytes[long_nnz..long_nnz + 8].copy_from_slice(&321u64.to_le_bytes());
    bytes[short_nnz..short_nnz + 8].copy_from_slice(&97u64.to_le_bytes());
    assert_eq!(plan_breach(&bytes), Invariant::NnzPartition);
}

#[test]
fn plan_gather_length_off_by_one_is_a_typed_error() {
    let pristine = plan_blob();
    let (_, _, gather) = plan_offsets(&pristine);
    let slots = read_u64_at(&pristine, gather);
    assert_eq!(
        pristine.len(),
        gather + 8 + slots as usize * 4,
        "the gather map ends the blob"
    );
    for len in [slots + 1, slots - 1] {
        let mut bytes = pristine.clone();
        bytes[gather..gather + 8].copy_from_slice(&len.to_le_bytes());
        assert_eq!(plan_breach(&bytes), Invariant::GatherBijection, "{len}");
    }
}
