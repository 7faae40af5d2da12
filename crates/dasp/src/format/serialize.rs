//! Binary serialization of the converted DASP format.
//!
//! The paper's §4.4 argument — preprocessing amortizes over many SpMV
//! calls — extends across *runs* if the converted format can be saved.
//! This module writes a small versioned container (`DASPFMT2`):
//!
//! ```text
//! magic    8 bytes  "DASPFMT2"
//! scalar   1 byte   storage width (2 = fp16, 4 = fp32, 8 = fp64)
//! header   7 x u64  rows, cols, nnz, max_len, threshold (f64 bits),
//!                   short_piecing, reserved
//! arrays   length-prefixed little-endian arrays, fixed order
//! plan     1 byte   0 = none, 1 = a `DASPPLN1` plan container follows
//! ```
//!
//! Version 2 appends the optional [`DaspPlan`] trailer so an analysis
//! plan ships alongside (or, via [`DaspPlan::write_to`], ahead of) the
//! values; `DASPFMT1` containers (no trailer) still read. Both containers
//! write their own copy of the pattern. Reading checks the magic and the
//! scalar width against `S` and decodes the matrix and its plan trailer;
//! when the two patterns are equal the matrix adopts the plan's, so one
//! copy stays resident. It then runs the structural checker once — the
//! exhaustive walk behind [`verify_matrix`](crate::format::verify_matrix),
//! which covers the attached plan too — before returning; a standalone
//! [`DaspPlan::read_from`] runs the same walk over the plan. Corrupted or
//! truncated files are rejected rather than producing wrong results.
//!
//! Arrays stream in chunks: the codec encodes up to [`CHUNK`] elements
//! into one stack buffer per `write_all`, and decodes one `read_exact`
//! per chunk, instead of issuing one call per element. A length prefix is
//! checked against a sanity cap derived from the header, and at most
//! [`PREALLOC_CLAMP`] elements are reserved up front, so a corrupt prefix
//! cannot reserve a huge vector; past the clamp the array grows chunk by
//! chunk as bytes actually arrive, and a short read is [`SerError::Io`].

use std::io::{Read, Write};
use std::sync::Arc;

use dasp_fp16::Scalar;

use crate::consts::DaspParams;
use crate::format::check::first_breach;
use crate::format::{verify_matrix, verify_plan, DaspMatrix, DaspPlan, Invariant, Violation};
use crate::format::{LongPart, MediumPart, Pattern, ShortPart, Slots};

const MAGIC_V1: &[u8; 8] = b"DASPFMT1";
const MAGIC: &[u8; 8] = b"DASPFMT2";
const PLAN_MAGIC: &[u8; 8] = b"DASPPLN1";

/// Bit 0 of the header flags word (the former reserved field): the
/// medium rows were tie-broken by the row-similarity reorder pass.
const FLAG_REORDER: u64 = 1;

/// Packs the boolean params that ride in the header flags word.
fn param_flags(p: &DaspParams) -> u64 {
    if p.reorder {
        FLAG_REORDER
    } else {
        0
    }
}

/// An error while reading or writing a serialized format.
#[derive(Debug)]
pub enum SerError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes are not a DASP format container, or are corrupted.
    Malformed(String),
    /// The container holds a different scalar width than requested.
    WrongScalar {
        /// Width stored in the file.
        found: u8,
        /// Width of the requested `S`.
        expected: u8,
    },
    /// The decoded structure breaks a format invariant: the first breach
    /// the structural checker found.
    Invalid(Violation),
}

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerError::Io(e) => write!(f, "io error: {e}"),
            SerError::Malformed(s) => write!(f, "malformed container: {s}"),
            SerError::WrongScalar { found, expected } => {
                write!(f, "scalar width {found} in file, expected {expected}")
            }
            SerError::Invalid(e) => write!(f, "decoded format invalid: {e}"),
        }
    }
}

impl std::error::Error for SerError {}

impl From<std::io::Error> for SerError {
    fn from(e: std::io::Error) -> Self {
        SerError::Io(e)
    }
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, SerError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_len<R: Read>(r: &mut R, cap: u64) -> Result<usize, SerError> {
    let n = read_u64(r)?;
    if n > cap {
        return Err(SerError::Malformed(format!(
            "array length {n} exceeds sanity cap {cap}"
        )));
    }
    Ok(n as usize)
}

/// Pre-allocation clamp for length-prefixed arrays. A corrupt length prefix
/// inside the sanity cap could still demand gigabytes up front; growing
/// chunk by chunk past this bound trades a few reallocations on huge
/// (legitimate) arrays for corruption never reserving more than ~8 MiB
/// speculatively.
const PREALLOC_CLAMP: usize = 1 << 20;

/// Elements staged per `write_all`/`read_exact` call by [`write_array`] and
/// [`read_elems`].
const CHUNK: usize = 4096;

/// Bytes of the staging buffer: a chunk of the widest (8-byte) element.
const CHUNK_BYTES: usize = CHUNK * 8;

/// Writes `v` as a length-prefixed array of `N`-byte little-endian
/// elements (see [`write_elems`]).
fn write_array<T, W: Write, const N: usize>(
    w: &mut W,
    v: &[T],
    enc: impl Fn(&T) -> [u8; N],
) -> std::io::Result<()> {
    write_u64(w, v.len() as u64)?;
    write_elems(w, v, enc)
}

/// Writes the elements of `v`, encoding up to [`CHUNK`] of them into one
/// stack buffer per `write_all`.
fn write_elems<T, W: Write, const N: usize>(
    w: &mut W,
    v: &[T],
    enc: impl Fn(&T) -> [u8; N],
) -> std::io::Result<()> {
    let mut buf = [0u8; CHUNK_BYTES];
    for chunk in v.chunks(CHUNK) {
        let bytes = &mut buf[..chunk.len() * N];
        for (dst, x) in bytes.chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&enc(x));
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Reads a length-prefixed array written by [`write_array`]; the length
/// must pass `cap`.
fn read_array<T, R: Read, const N: usize>(
    r: &mut R,
    cap: u64,
    dec: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, SerError> {
    let n = read_len(r, cap)?;
    read_elems(r, n, dec)
}

/// Reads `n` elements written by [`write_elems`], one `read_exact` per
/// [`CHUNK`] elements. At most [`PREALLOC_CLAMP`] elements are reserved
/// up front, and a short read is [`SerError::Io`].
fn read_elems<T, R: Read, const N: usize>(
    r: &mut R,
    n: usize,
    dec: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, SerError> {
    let mut out = Vec::with_capacity(n.min(PREALLOC_CLAMP));
    let mut buf = [0u8; CHUNK_BYTES];
    let mut left = n;
    while left > 0 {
        let take = left.min(CHUNK);
        let bytes = &mut buf[..take * N];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(N)
                .map(|b| dec(b.try_into().expect("chunks_exact yields N bytes"))),
        );
        left -= take;
    }
    Ok(out)
}

fn write_usizes<W: Write>(w: &mut W, v: &[usize]) -> std::io::Result<()> {
    write_array(w, v, |&x| (x as u64).to_le_bytes())
}

fn read_usizes<R: Read>(r: &mut R, cap: u64) -> Result<Vec<usize>, SerError> {
    read_array(r, cap, |b| u64::from_le_bytes(b) as usize)
}

fn write_u32s<W: Write>(w: &mut W, v: &[u32]) -> std::io::Result<()> {
    write_array(w, v, |x| x.to_le_bytes())
}

fn read_u32s<R: Read>(r: &mut R, cap: u64) -> Result<Vec<u32>, SerError> {
    read_array(r, cap, u32::from_le_bytes)
}

// Values travel as f64 bits: lossless for every supported storage width
// (f16/f32/f64 all embed exactly in f64).
fn write_scalars<S: Scalar, W: Write>(w: &mut W, v: &[S]) -> std::io::Result<()> {
    write_array(w, v, |x| x.to_f64().to_bits().to_le_bytes())
}

fn read_scalars<S: Scalar, R: Read>(r: &mut R, cap: u64) -> Result<Vec<S>, SerError> {
    read_array(r, cap, |b| {
        S::from_f64(f64::from_bits(u64::from_le_bytes(b)))
    })
}

/// A container's `(rows, cols, nnz)`.
type Shape = (usize, usize, usize);

/// The header both containers carry after their magic: rows, cols, nnz,
/// max_len, threshold bits, short_piecing and the flags word.
fn write_header<W: Write>(
    w: &mut W,
    (rows, cols, nnz): Shape,
    p: &DaspParams,
) -> std::io::Result<()> {
    for h in [rows, cols, nnz, p.max_len] {
        write_u64(w, h as u64)?;
    }
    write_u64(w, p.threshold.to_bits())?;
    write_u64(w, p.short_piecing as u64)?;
    // The former reserved word carries the flags bitset; bit 0 is the
    // reorder pass. Old readers ignored it, old writers wrote 0, so
    // reorder-off containers are byte-identical across versions.
    write_u64(w, param_flags(p))
}

/// Reads a [`write_header`] header, and the sanity cap its arrays'
/// length prefixes must pass.
fn read_header<R: Read>(r: &mut R) -> Result<(Shape, DaspParams, u64), SerError> {
    let rows = read_u64(r)? as usize;
    let cols = read_u64(r)? as usize;
    let nnz = read_u64(r)? as usize;
    // Row/column ids travel as u32 in the format, so larger headers
    // can only come from corruption; nnz beyond 2^48 would mean a
    // multi-petabyte container. Reject before any allocation sizing.
    if rows > u32::MAX as usize || cols > u32::MAX as usize || nnz > 1 << 48 {
        return Err(SerError::Malformed(format!(
            "implausible header: rows {rows}, cols {cols}, nnz {nnz}"
        )));
    }
    let params = DaspParams {
        max_len: read_u64(r)? as usize,
        threshold: f64::from_bits(read_u64(r)?),
        short_piecing: read_u64(r)? != 0,
        reorder: read_u64(r)? & FLAG_REORDER != 0,
    };
    // Sanity cap for array lengths. The format's zero fill is bounded
    // by 64x for any legal parameterization (a 64-element long-row
    // group can hold as few as `max_len + 1 >= 6` nonzeros, a regular
    // medium block as few as 1 at tiny thresholds, a pieced short warp
    // as few as 4), so 64x plus slack rejects only corruption.
    let cap = (nnz as u64 + rows as u64 + 1024) * 64;
    Ok(((rows, cols, nnz), params, cap))
}

/// Writes a short part's pattern, the layout both containers share:
/// `cids`, the section counts `n13, n4, n22, n1, off4, off22, off1`
/// (warps, singletons, ends), the perms `13, 4, 22, 1`, and `nnz_orig`.
fn write_short_pattern<W: Write>(w: &mut W, s: &ShortPart) -> std::io::Result<()> {
    write_u32s(w, &s.cids)?;
    for h in s.warps.into_iter().chain([s.n1]).chain(s.ends) {
        write_u64(w, h as u64)?;
    }
    for perm in s.perms.iter().chain([&s.perm1]) {
        write_u32s(w, perm)?;
    }
    write_u64(w, s.nnz_orig as u64)
}

/// Reads a [`write_short_pattern`] pattern.
fn read_short_pattern<R: Read>(r: &mut R, cap: u64) -> Result<ShortPart, SerError> {
    let cids = read_u32s(r, cap)?;
    let mut counts = [0usize; 7];
    for c in &mut counts {
        *c = read_u64(r)? as usize;
    }
    let [w13, w4, w22, n1, e4, e22, e1] = counts;
    Ok(ShortPart {
        cids,
        warps: [w13, w4, w22],
        ends: [e4, e22, e1],
        n1,
        perms: [read_u32s(r, cap)?, read_u32s(r, cap)?, read_u32s(r, cap)?],
        perm1: read_u32s(r, cap)?,
        nnz_orig: read_u64(r)? as usize,
    })
}

impl<S: Scalar> DaspMatrix<S> {
    /// Writes the converted format to `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&[S::BYTES as u8])?;
        write_header(w, (self.rows, self.cols, self.nnz), &self.params)?;
        let (l, m, v) = (&self.long, &self.medium, &self.vals);

        write_scalars(w, &v.long)?;
        write_u32s(w, &l.cids)?;
        write_usizes(w, &l.group_ptr)?;
        write_u32s(w, &l.rows)?;
        write_u64(w, l.nnz_orig as u64)?;

        write_scalars(w, &v.reg)?;
        write_u32s(w, &m.reg_cid)?;
        write_usizes(w, &m.rowblock_ptr)?;
        write_scalars(w, &v.irreg)?;
        write_u32s(w, &m.irreg_cid)?;
        write_usizes(w, &m.irreg_ptr)?;
        write_u32s(w, &m.rows)?;
        write_u64(w, m.nnz_orig as u64)?;

        write_scalars(w, &v.short)?;
        write_short_pattern(w, &self.short)?;

        match &self.plan {
            Some(plan) => {
                w.write_all(&[1])?;
                plan.write_to(w)?;
            }
            None => w.write_all(&[0])?,
        }
        Ok(())
    }

    /// Reads a converted format from `r`, checking the structure of the
    /// matrix and its attached plan before returning. When the plan's
    /// pattern equals the matrix's, the matrix adopts the plan's copy.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self, SerError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let has_plan_trailer = match &magic {
            m if m == MAGIC => true,
            m if m == MAGIC_V1 => false, // v1: container ends at the arrays
            _ => return Err(SerError::Malformed("bad magic".into())),
        };
        let mut width = [0u8; 1];
        r.read_exact(&mut width)?;
        if width[0] as u64 != S::BYTES {
            return Err(SerError::WrongScalar {
                found: width[0],
                expected: S::BYTES as u8,
            });
        }
        let ((rows, cols, nnz), params, cap) = read_header(r)?;

        let long_vals = read_scalars(r, cap)?;
        let long = LongPart {
            cids: read_u32s(r, cap)?,
            group_ptr: read_usizes(r, cap)?,
            rows: read_u32s(r, cap)?,
            nnz_orig: read_u64(r)? as usize,
        };
        let reg = read_scalars(r, cap)?;
        let (reg_cid, rowblock_ptr) = (read_u32s(r, cap)?, read_usizes(r, cap)?);
        let irreg = read_scalars(r, cap)?;
        let medium = MediumPart {
            reg_cid,
            rowblock_ptr,
            irreg_cid: read_u32s(r, cap)?,
            irreg_ptr: read_usizes(r, cap)?,
            rows: read_u32s(r, cap)?,
            nnz_orig: read_u64(r)? as usize,
        };
        let vals = Slots {
            long: long_vals,
            reg,
            irreg,
            short: read_scalars(r, cap)?,
        };
        let pattern = Pattern {
            rows,
            cols,
            nnz,
            params,
            long,
            medium,
            short: read_short_pattern(r, cap)?,
        };

        let mut plan = None;
        if has_plan_trailer {
            let mut has_plan = [0u8; 1];
            r.read_exact(&mut has_plan)?;
            match has_plan[0] {
                0 => {}
                1 => plan = Some(Arc::new(DaspPlan::decode(r)?)),
                b => {
                    return Err(SerError::Malformed(format!("bad plan marker {b}")));
                }
            }
        }
        // Compare, then share: an equal pattern is the plan's copy, and a
        // different one stays separate for the checker to report.
        let pattern = match &plan {
            Some(p) if *p.pattern == pattern => p.pattern.clone(),
            _ => Arc::new(pattern),
        };
        let m = DaspMatrix {
            pattern,
            vals,
            plan,
        };
        first_breach(verify_matrix(&m)).map_err(SerError::Invalid)?;
        Ok(m)
    }
}

impl DaspPlan {
    /// Writes the plan as a standalone `DASPPLN1` container (the same
    /// bytes [`DaspMatrix::write_to`] appends when a plan is attached), so
    /// a pattern analysis can be shipped ahead of any values.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(PLAN_MAGIC)?;
        write_header(w, (self.rows, self.cols, self.nnz), &self.params)?;

        let (l, m) = (&self.long, &self.medium);
        write_u32s(w, &l.rows)?;
        write_usizes(w, &l.group_ptr)?;
        write_u32s(w, &l.cids)?;
        write_u64(w, l.nnz_orig as u64)?;

        write_u32s(w, &m.rows)?;
        write_usizes(w, &m.rowblock_ptr)?;
        write_u32s(w, &m.reg_cid)?;
        write_u32s(w, &m.irreg_cid)?;
        write_usizes(w, &m.irreg_ptr)?;
        write_u64(w, m.nnz_orig as u64)?;

        write_short_pattern(w, &self.short)?;

        // The gather map: one length prefix, then the parts' four value
        // arrays back to back.
        let maps = self.gather.arrays();
        write_u64(w, maps.iter().map(|g| g.len() as u64).sum())?;
        for map in maps {
            write_elems(w, map, |x| x.to_le_bytes())?;
        }
        Ok(())
    }

    /// Reads a `DASPPLN1` container, checking the plan's structure
    /// (pointers, offsets, id ranges, row partition, bijective gather map)
    /// before returning.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Arc<Self>, SerError> {
        let plan = Self::decode(r)?;
        first_breach(verify_plan(&plan)).map_err(SerError::Invalid)?;
        Ok(Arc::new(plan))
    }

    /// Decodes a `DASPPLN1` container without checking its structure,
    /// beyond the gather map's one length prefix having to cover exactly
    /// the slots the column ids describe.
    fn decode<R: Read>(r: &mut R) -> Result<Self, SerError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != PLAN_MAGIC {
            return Err(SerError::Malformed("bad plan magic".into()));
        }
        let ((rows, cols, nnz), params, cap) = read_header(r)?;

        let long = LongPart {
            rows: read_u32s(r, cap)?,
            group_ptr: read_usizes(r, cap)?,
            cids: read_u32s(r, cap)?,
            nnz_orig: read_u64(r)? as usize,
        };
        let medium = MediumPart {
            rows: read_u32s(r, cap)?,
            rowblock_ptr: read_usizes(r, cap)?,
            reg_cid: read_u32s(r, cap)?,
            irreg_cid: read_u32s(r, cap)?,
            irreg_ptr: read_usizes(r, cap)?,
            nnz_orig: read_u64(r)? as usize,
        };
        let pattern = Pattern {
            rows,
            cols,
            nnz,
            params,
            long,
            medium,
            short: read_short_pattern(r, cap)?,
        };

        // The gather slots stream straight into the four arrays, one per
        // column id.
        let slots = read_u64(r)?;
        let want = pattern.total_slots();
        if slots != want as u64 {
            return Err(SerError::Invalid(Violation {
                invariant: Invariant::GatherBijection,
                site: "plan.gather".into(),
                warp: None,
                index: None,
                detail: format!("length {slots} != total slots {want}"),
            }));
        }
        let mut gather = Slots::default();
        for (map, cids) in gather.arrays_mut().into_iter().zip(pattern.cids()) {
            *map = read_elems(r, cids.len(), u32::from_le_bytes)?;
        }
        Ok(DaspPlan {
            pattern: Arc::new(pattern),
            gather,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_fp16::F16;
    use dasp_simt::NoProbe;
    use dasp_sparse::Csr;

    fn sample() -> Csr<f64> {
        dasp_matgen::circuit_like(3000, 3, 700, 11)
    }

    #[test]
    fn round_trips_fp64() {
        let d = DaspMatrix::from_csr(&sample());
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let back: DaspMatrix<f64> = DaspMatrix::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(d, back);
        // And it still computes.
        let x = dasp_matgen::dense_vector(d.cols, 1);
        assert_eq!(d.spmv(&x, &mut NoProbe), back.spmv(&x, &mut NoProbe));
    }

    #[test]
    fn round_trips_fp16_and_fp32() {
        let csr = sample();
        let h16: Csr<F16> = csr.cast();
        let d = DaspMatrix::from_csr(&h16);
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let back: DaspMatrix<F16> = DaspMatrix::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(d, back);

        let h32: Csr<f32> = csr.cast();
        let d = DaspMatrix::from_csr(&h32);
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let back: DaspMatrix<f32> = DaspMatrix::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn round_trips_heavily_padded_parameterizations() {
        // max_len = 5 classifies 6-nonzero rows as long: ~10.7x zero fill.
        // The read-side sanity cap must accept everything write_to emits.
        let csr = dasp_matgen::uniform_random(2000, 2000, 6, 12);
        let d = DaspMatrix::with_params(
            &csr,
            crate::consts::DaspParams {
                max_len: 5,
                threshold: 0.1,
                short_piecing: false,
                ..crate::consts::DaspParams::default()
            },
        );
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let back: DaspMatrix<f64> = DaspMatrix::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn empty_rowblock_ptr_is_rejected_not_a_panic() {
        // A container whose medium rowblock_ptr has length 0 must come back
        // as an error (validate would otherwise index [0]).
        let d = DaspMatrix::from_csr(&sample());
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        // Locate the rowblock_ptr length prefix: it follows the header,
        // long arrays, and the medium reg arrays. Rather than computing
        // offsets, rebuild with an empty medium part and corrupt nnz
        // bookkeeping is caught too — here we synthesize directly:
        let mut m = d.clone();
        Arc::make_mut(&mut m.pattern).medium.rowblock_ptr.clear();
        assert!(m.validate().is_err(), "empty rowblock_ptr must be an error");
    }

    #[test]
    fn implausible_header_is_rejected() {
        let d = DaspMatrix::from_csr(&sample());
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        // rows field sits right after magic (8) + width (1).
        buf[9..17].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = DaspMatrix::<f64>::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, SerError::Malformed(_)), "{err}");
    }

    #[test]
    fn wrong_scalar_width_is_rejected() {
        let d = DaspMatrix::from_csr(&sample());
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let err = DaspMatrix::<F16>::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            SerError::WrongScalar {
                found: 8,
                expected: 2
            }
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOTDASP0rest".to_vec();
        let err = DaspMatrix::<f64>::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, SerError::Malformed(_)));
    }

    #[test]
    fn truncation_is_rejected() {
        let d = DaspMatrix::from_csr(&sample());
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        for cut in [9usize, 60, buf.len() / 2, buf.len() - 3] {
            let err = DaspMatrix::<f64>::read_from(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, SerError::Io(_) | SerError::Malformed(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corruption_fails_validation() {
        let d = DaspMatrix::from_csr(&sample());
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        // Flip a byte inside the short-part offsets region (near the end).
        let idx = buf.len() - 200;
        buf[idx] ^= 0xff;
        let res = DaspMatrix::<f64>::read_from(&mut buf.as_slice());
        assert!(res.is_err(), "corrupted container must not decode cleanly");
    }

    #[test]
    fn matrix_with_plan_round_trips_and_refreshes() {
        let csr = sample();
        let plan = DaspPlan::analyze(&csr, DaspParams::default());
        let d = plan.fill(&csr);
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let mut back: DaspMatrix<f64> = DaspMatrix::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(d, back);
        let got = back.plan().expect("plan travels with the matrix");
        assert_eq!(**got, *plan);
        assert!(
            Arc::ptr_eq(&back.pattern, &got.pattern),
            "the reader shares one pattern between matrix and plan"
        );
        // The reloaded plan still powers an O(nnz) refresh.
        let doubled: Vec<f64> = csr.vals.iter().map(|v| v * 2.0).collect();
        back.update_values(&doubled).expect("refresh after reload");
        let mut csr2 = csr.clone();
        csr2.vals = doubled;
        assert_eq!(back, DaspMatrix::from_csr(&csr2));
    }

    #[test]
    fn plan_round_trips_standalone() {
        let csr = sample();
        let plan = DaspPlan::analyze(&csr, DaspParams::default());
        let mut buf = Vec::new();
        plan.write_to(&mut buf).unwrap();
        let back = DaspPlan::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(*back, *plan);
        // A shipped-ahead plan fills once the values arrive.
        assert_eq!(back.fill(&csr), DaspMatrix::from_csr(&csr));
    }

    #[test]
    fn v1_containers_without_plan_trailer_still_read() {
        let d = DaspMatrix::from_csr(&sample());
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        // Rewrite as a v1 container: old magic, no plan marker byte.
        buf[..8].copy_from_slice(b"DASPFMT1");
        assert_eq!(buf.pop(), Some(0), "plan marker is the final byte");
        let back: DaspMatrix<f64> = DaspMatrix::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(d, back);
        assert!(back.plan().is_none());
    }

    #[test]
    fn corrupted_plan_trailer_is_rejected() {
        let csr = sample();
        let d = DaspPlan::analyze(&csr, DaspParams::default()).fill(&csr);
        let mut matrix_only = Vec::new();
        DaspMatrix {
            plan: None,
            ..d.clone()
        }
        .write_to(&mut matrix_only)
        .unwrap();
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        // The last 4 bytes are the final gather entry; pointing it past
        // the element range must trip the plan's gather validation.
        let len = buf.len();
        assert!(
            len - 4 > matrix_only.len(),
            "corruption lands in the trailer"
        );
        let saved: Vec<u8> = buf[len - 4..].to_vec();
        buf[len - 4..].copy_from_slice(&(d.nnz as u32).to_le_bytes());
        assert!(DaspMatrix::<f64>::read_from(&mut buf.as_slice()).is_err());
        buf[len - 4..].copy_from_slice(&saved);
        // Corrupting the plan magic (right after the marker byte) is
        // rejected...
        let end = matrix_only.len();
        buf[end] ^= 0xff;
        assert!(matches!(
            DaspMatrix::<f64>::read_from(&mut buf.as_slice()).unwrap_err(),
            SerError::Malformed(_)
        ));
        // ...and so is a bogus plan marker byte.
        buf[end] ^= 0xff;
        buf[end - 1] = 7;
        assert!(matches!(
            DaspMatrix::<f64>::read_from(&mut buf.as_slice()).unwrap_err(),
            SerError::Malformed(_)
        ));
    }

    /// The per-element codec the chunked helpers replaced — one
    /// `write_all`/`read_exact` per element — and a writer laying out both
    /// containers with it. The chunked codec must reproduce its bytes.
    mod reference {
        use super::super::{read_len, write_u64, PREALLOC_CLAMP};
        use super::*;

        fn write_usizes<W: Write>(w: &mut W, v: &[usize]) -> std::io::Result<()> {
            write_u64(w, v.len() as u64)?;
            for &x in v {
                write_u64(w, x as u64)?;
            }
            Ok(())
        }

        pub fn write_u32s<W: Write>(w: &mut W, v: &[u32]) -> std::io::Result<()> {
            write_u64(w, v.len() as u64)?;
            for &x in v {
                w.write_all(&x.to_le_bytes())?;
            }
            Ok(())
        }

        fn write_scalars<S: Scalar, W: Write>(w: &mut W, v: &[S]) -> std::io::Result<()> {
            write_u64(w, v.len() as u64)?;
            for x in v {
                w.write_all(&x.to_f64().to_bits().to_le_bytes())?;
            }
            Ok(())
        }

        pub fn read_u32s<R: Read>(r: &mut R, cap: u64) -> Result<Vec<u32>, SerError> {
            let n = read_len(r, cap)?;
            let mut out = Vec::with_capacity(n.min(PREALLOC_CLAMP));
            let mut b = [0u8; 4];
            for _ in 0..n {
                r.read_exact(&mut b)?;
                out.push(u32::from_le_bytes(b));
            }
            Ok(out)
        }

        pub fn read_scalars<S: Scalar, R: Read>(r: &mut R, cap: u64) -> Result<Vec<S>, SerError> {
            let n = read_len(r, cap)?;
            let mut out = Vec::with_capacity(n.min(PREALLOC_CLAMP));
            let mut b = [0u8; 8];
            for _ in 0..n {
                r.read_exact(&mut b)?;
                out.push(S::from_f64(f64::from_bits(u64::from_le_bytes(b))));
            }
            Ok(out)
        }

        /// `DaspMatrix::write_to`'s container, element by element.
        pub fn write_matrix<S: Scalar>(m: &DaspMatrix<S>) -> Vec<u8> {
            let w = &mut Vec::new();
            w.extend_from_slice(MAGIC);
            w.push(S::BYTES as u8);
            let p = &m.params;
            for h in [
                m.rows as u64,
                m.cols as u64,
                m.nnz as u64,
                p.max_len as u64,
                p.threshold.to_bits(),
                p.short_piecing as u64,
                param_flags(p),
            ] {
                write_u64(w, h).unwrap();
            }
            let (l, md, s, v) = (&m.long, &m.medium, &m.short, &m.vals);
            write_scalars(w, &v.long).unwrap();
            write_u32s(w, &l.cids).unwrap();
            write_usizes(w, &l.group_ptr).unwrap();
            write_u32s(w, &l.rows).unwrap();
            write_u64(w, l.nnz_orig as u64).unwrap();
            write_scalars(w, &v.reg).unwrap();
            write_u32s(w, &md.reg_cid).unwrap();
            write_usizes(w, &md.rowblock_ptr).unwrap();
            write_scalars(w, &v.irreg).unwrap();
            write_u32s(w, &md.irreg_cid).unwrap();
            write_usizes(w, &md.irreg_ptr).unwrap();
            write_u32s(w, &md.rows).unwrap();
            write_u64(w, md.nnz_orig as u64).unwrap();
            write_scalars(w, &v.short).unwrap();
            write_short(s, w);
            match &m.plan {
                Some(plan) => {
                    w.push(1);
                    write_plan(plan, w);
                }
                None => w.push(0),
            }
            std::mem::take(w)
        }

        /// `DaspPlan::write_to`'s container, element by element.
        fn write_plan(p: &DaspPlan, w: &mut Vec<u8>) {
            w.extend_from_slice(PLAN_MAGIC);
            for h in [
                p.rows as u64,
                p.cols as u64,
                p.nnz as u64,
                p.params.max_len as u64,
                p.params.threshold.to_bits(),
                p.params.short_piecing as u64,
                param_flags(&p.params),
            ] {
                write_u64(w, h).unwrap();
            }
            let (l, md) = (&p.long, &p.medium);
            write_u32s(w, &l.rows).unwrap();
            write_usizes(w, &l.group_ptr).unwrap();
            write_u32s(w, &l.cids).unwrap();
            write_u64(w, l.nnz_orig as u64).unwrap();
            write_u32s(w, &md.rows).unwrap();
            write_usizes(w, &md.rowblock_ptr).unwrap();
            write_u32s(w, &md.reg_cid).unwrap();
            write_u32s(w, &md.irreg_cid).unwrap();
            write_usizes(w, &md.irreg_ptr).unwrap();
            write_u64(w, md.nnz_orig as u64).unwrap();
            write_short(&p.short, w);
            write_u32s(w, &p.gather.arrays().concat()).unwrap();
        }

        /// A short part's pattern, element by element.
        fn write_short(s: &ShortPart, w: &mut Vec<u8>) {
            write_u32s(w, &s.cids).unwrap();
            let [w13, w4, w22] = s.warps;
            let [e4, e22, e1] = s.ends;
            for h in [w13, w4, w22, s.n1, e4, e22, e1] {
                write_u64(w, h as u64).unwrap();
            }
            let [p13, p4, p22] = &s.perms;
            for perm in [p13, p4, p22, &s.perm1] {
                write_u32s(w, perm).unwrap();
            }
            write_u64(w, s.nnz_orig as u64).unwrap();
        }
    }

    /// One matrix of each generator class of the benchmark's five-class
    /// mix, small enough for a debug test yet with arrays spanning several
    /// chunks.
    fn five_classes() -> Vec<Csr<f64>> {
        vec![
            dasp_matgen::circuit_like(2000, 3, 900, 1),
            dasp_matgen::rmat(11, 6, 2),
            dasp_matgen::banded(1200, 32, 12, 3),
            dasp_matgen::stencil2d(60, 60, 4, 4),
            dasp_matgen::uniform_random(3000, 3000, 3, 5),
        ]
    }

    fn assert_reference_bytes<S: Scalar>(csr: &Csr<f64>, params: DaspParams) {
        let csr: Csr<S> = csr.cast();
        let plain = DaspMatrix::with_params(&csr, params);
        let planned = DaspPlan::analyze(&csr, params).fill(&csr);
        for m in [plain, planned] {
            let mut bytes = Vec::new();
            m.write_to(&mut bytes).unwrap();
            assert!(
                bytes == reference::write_matrix(&m),
                "chunked bytes differ: {} B, plan {}, {params:?}",
                S::BYTES,
                m.plan().is_some()
            );
            let back = DaspMatrix::<S>::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn chunked_write_is_byte_identical_to_per_element_reference() {
        for csr in five_classes() {
            for reorder in [false, true] {
                let params = DaspParams {
                    reorder,
                    ..DaspParams::default()
                };
                assert_reference_bytes::<f64>(&csr, params);
                assert_reference_bytes::<f32>(&csr, params);
                assert_reference_bytes::<F16>(&csr, params);
            }
        }
    }

    #[test]
    fn arrays_round_trip_at_chunk_boundaries() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
            let ints: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            let wide: Vec<usize> = (0..n).map(|i| i << 33 | i).collect();
            let vals: Vec<f64> = (0..n).map(|i| i as f64 * -0.375 + 1e-300).collect();

            let mut buf = Vec::new();
            write_u32s(&mut buf, &ints).unwrap();
            write_usizes(&mut buf, &wide).unwrap();
            write_scalars(&mut buf, &vals).unwrap();
            assert_eq!(buf.len(), 3 * 8 + n * (4 + 8 + 8));
            let mut r = buf.as_slice();
            assert_eq!(read_u32s(&mut r, n as u64).unwrap(), ints);
            assert_eq!(read_usizes(&mut r, n as u64).unwrap(), wide);
            assert_eq!(read_scalars::<f64, _>(&mut r, n as u64).unwrap(), vals);
            assert!(r.is_empty());

            // Same bytes as the per-element codec, and readable by it.
            let mut old = Vec::new();
            reference::write_u32s(&mut old, &ints).unwrap();
            assert_eq!(old, buf[..8 + 4 * n]);
            let mut r = &buf[8 + 4 * n + 8 + 8 * n..];
            assert_eq!(
                reference::read_scalars::<f64, _>(&mut r, n as u64).unwrap(),
                vals
            );
            let mut r = buf.as_slice();
            assert_eq!(reference::read_u32s(&mut r, n as u64).unwrap(), ints);

            // A read one element short of the prefix is an I/O error, and
            // a prefix above the cap is malformed.
            if n > 0 {
                let cut = &buf[..8 + 4 * (n - 1)];
                assert!(matches!(
                    read_u32s(&mut &cut[..], n as u64),
                    Err(SerError::Io(_))
                ));
                assert!(matches!(
                    read_u32s(&mut buf.as_slice(), n as u64 - 1),
                    Err(SerError::Malformed(_))
                ));
            }
        }
    }

    /// 64-bit FNV-1a over `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every category populated against `max_len` 8: long rows of one to
    /// three groups, full and partial medium row-blocks with irregular
    /// remainders, and all four short sub-categories (1&3 pairs, length-4
    /// rows with a leftover 3 and an odd 2, 2&2 pairs, a leftover single).
    /// Columns differ per row so the reorder pass has work to do.
    fn rich_csr() -> Csr<f64> {
        let mut lens: Vec<usize> = vec![9, 73, 137, 8, 7, 6, 6];
        lens.extend(std::iter::repeat_n(5, 7));
        lens.extend([1, 3, 1, 3, 1, 3, 3, 4, 4, 2, 2, 2, 2, 2, 1]);
        let mut coo = dasp_sparse::Coo::new(lens.len(), 160);
        for (r, &len) in lens.iter().enumerate() {
            for j in 0..len {
                let v = ((r * 31 + j * 7) % 97) as f64 * 0.0371 - 1.5;
                coo.push(r, (r * 37 + j * 13) % 160, v);
            }
        }
        coo.to_csr()
    }

    /// `(piecing, reorder)` and the FNV-1a hash and length of the plain
    /// matrix, plan-filled matrix and plan containers of [`rich_csr`] at
    /// one scalar width. The codec's own reference writer reads the same
    /// struct fields as `write_to`, so it moves with them; these pins do
    /// not, and catch any reordered or retyped field.
    type Golden = ((bool, bool), [(u64, usize); 3]);

    fn container_hashes<S: Scalar>() -> Vec<Golden> {
        let csr: Csr<S> = rich_csr().cast();
        let mut out = Vec::new();
        for piecing in [true, false] {
            for reorder in [false, true] {
                let params = DaspParams {
                    max_len: 8,
                    short_piecing: piecing,
                    reorder,
                    ..DaspParams::default()
                };
                let plan = DaspPlan::analyze(&csr, params);
                let (mut plain, mut filled, mut shipped) = (Vec::new(), Vec::new(), Vec::new());
                DaspMatrix::with_params(&csr, params)
                    .write_to(&mut plain)
                    .unwrap();
                plan.fill(&csr).write_to(&mut filled).unwrap();
                plan.write_to(&mut shipped).unwrap();
                let pin = |b: &[u8]| (fnv1a(b), b.len());
                out.push((
                    (piecing, reorder),
                    [pin(&plain), pin(&filled), pin(&shipped)],
                ));
            }
        }
        out
    }

    #[test]
    fn container_bytes_match_the_golden_record() {
        #[rustfmt::skip]
        let f64_golden: Vec<Golden> = vec![
            ((true, false), [(0x948068a65176f4e6, 9298), (0xa41a31bc9a166f57, 15762), (0xb7cf36fb9c4101b3, 6464)]),
            ((true, true), [(0x14d888b34d53f4c1, 9298), (0x45beb3801e85623d, 15762), (0x62c429707c71f23e, 6464)]),
            ((false, false), [(0x3695b7e0828eb748, 7506), (0x93ba159976a6c614, 12690), (0x8051593b4fcd3062, 5184)]),
            ((false, true), [(0xb147ea353ea6be47, 7506), (0x176fbe2a3d799fde, 12690), (0x1fc77b7bcf3079c7, 5184)]),
        ];
        #[rustfmt::skip]
        let f16_golden: Vec<Golden> = vec![
            ((true, false), [(0xa81aa6ceec627ccd, 9298), (0x05326cc26b82d14c, 15762), (0xb7cf36fb9c4101b3, 6464)]),
            ((true, true), [(0x3a135d971f0f4fc2, 9298), (0xead795b8ef2f490e, 15762), (0x62c429707c71f23e, 6464)]),
            ((false, false), [(0x5b964c7b3acd109f, 7506), (0xa17583d21d2dbd5b, 12690), (0x8051593b4fcd3062, 5184)]),
            ((false, true), [(0x8df3aba41e2e8908, 7506), (0x2281eb94a6aea091, 12690), (0x1fc77b7bcf3079c7, 5184)]),
        ];
        assert_eq!(container_hashes::<f64>(), f64_golden, "f64 containers");
        assert_eq!(container_hashes::<F16>(), f16_golden, "F16 containers");
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let d = DaspMatrix::from_csr(&sample());
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        // Overwrite the first array length (right after the 65-byte header)
        // with an absurd value.
        let pos = 8 + 1 + 7 * 8;
        buf[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = DaspMatrix::<f64>::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, SerError::Malformed(_)), "{err}");
    }
}
