//! Storage of the short-rows category (paper §3.2, cool-toned part of
//! Fig. 5).

use dasp_fp16::Scalar;
use dasp_simt::{Executor, SharedSlice, WARP_SIZE};
use dasp_sparse::Csr;

use crate::consts::{BLOCK_ELEMS, MMA_K, MMA_M};
use crate::format::build::run_chunks;

/// Sentinel in the permutation arrays marking a padding slot with no
/// original row behind it.
pub const NO_ROW: u32 = u32::MAX;

/// Short rows (`len <= 4`), pieced together into full 8x4 blocks.
///
/// Four sub-categories, stored back to back in `vals`/`cids` in the paper's
/// order:
///
/// 1. **1&3 pieced** — a length-1 row and a length-3 row share a packed
///    4-element row (`[a1 | b0 b1 b2]`). Two blocks per warp; 32 `y` values.
/// 2. **pure length-4** — length-4 rows, length-3 rows left over after 1&3
///    pairing (padded with one zero), and an odd leftover length-2 row
///    (padded with two zeros). Four blocks per warp.
/// 3. **2&2 pieced** — two length-2 rows per packed row. Two blocks per
///    warp.
/// 4. **leftover length-1** — computed by the scalar kernel (Algorithm 5).
///
/// Each sub-category is padded with all-zero packed rows up to its warp
/// granularity, and the perms map each warp's 32 `y` slots back to
/// original row ids ([`NO_ROW`] for padding). The [`Piecing`] table is
/// the one owner of the three MMA sections' geometry: blocks per warp,
/// lanes per pass and the slot each piece's result lands in. The
/// sections' own fields — `warps`, `ends`, `perms` — are arrays indexed
/// in [`Piecing::ALL`] order, so a section added to the table adds no
/// field; read them through [`Piecing::warps`] and [`Piecing::perm`].
///
/// Like [`LongPart`](crate::format::LongPart), the builder is generic over
/// the per-slot value `S`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortPart<S> {
    /// All packed element values: `[1&3 blocks][len-4 blocks][2&2 blocks][singles]`.
    pub vals: Vec<S>,
    /// Matching column ids (0 for padding).
    pub cids: Vec<u32>,
    /// Warps of each MMA section, in [`Piecing::ALL`] order; a warp holds
    /// the section's [`blocks_per_warp`](Piecing::blocks_per_warp).
    pub warps: [usize; 3],
    /// Element offset one past each MMA section in `vals`/`cids`, in
    /// [`Piecing::ALL`] order: section `i` starts at `ends[i - 1]` (the
    /// first at 0), and the singletons start at `ends[2]`.
    pub ends: [usize; 3],
    /// Leftover singleton rows handled by the scalar kernel.
    pub n1: usize,
    /// y-slot to original row of each MMA section, in [`Piecing::ALL`]
    /// order; 32 entries per warp.
    pub perms: [Vec<u32>; 3],
    /// Original row of each singleton; `n1` entries.
    pub perm1: Vec<u32>,
    /// Original (unpadded) nonzero count of this category.
    pub nnz_orig: usize,
}

/// One short row queued for packing (legacy staged representation).
#[cfg(test)]
type ShortRow<S> = (u32, Vec<(u32, S)>);

/// Packed-row slots per chunk when an emit phase runs on the parallel
/// executor (each slot copies at most 4 elements).
const MIN_CHUNK_SLOTS: usize = 512;

/// MMA passes per short warp: four `mma.m8n8k4` issues, each filling
/// eight of the warp's 32 result slots.
const PASSES: usize = WARP_SIZE / MMA_M;

/// The piecing table: how each MMA section of [`ShortPart`] packs short
/// rows into 4-slot packed rows, and the one owner of that geometry
/// (paper §3.3.3, Algorithm 4).
///
/// All three sections run one warp program: four `mma.m8n8k4` passes
/// over blocks of eight packed rows. A packed row holds `P` pieces (two
/// for 1&3 and 2&2, one for length-4), so a warp owns `4 / P` blocks and
/// pass `i` works on block `i / P` and piece `i % P`. The block's A loads
/// once, on piece 0, and each pass gathers `x` only on its piece's `k`
/// positions, its [lane mask](Piecing::lane_mask). Pass `i`'s eight row
/// results fill the warp's result slots `i*8..(i+1)*8`, and the section's
/// [perm](Piecing::perm) maps each slot back to its original row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piecing {
    /// A length-1 row at `k = 0` and a length-3 row at `k = 1..4`.
    OneThree,
    /// One row of up to four elements: the length-4 rows plus the
    /// zero-padded leftovers of the other lengths.
    Four,
    /// Two length-2 rows, at `k = 0..2` and `k = 2..4`.
    TwoTwo,
}

impl Piecing {
    /// The sections in launch and storage order: 1&3, length-4, 2&2. A
    /// section's position here (its discriminant) indexes
    /// [`ShortPart`]'s `warps`, `ends` and `perms`.
    pub const ALL: [Piecing; 3] = [Piecing::OneThree, Piecing::Four, Piecing::TwoTwo];

    /// Each piece's `(k_start, k_len)` within a packed row.
    pub const fn pieces(self) -> &'static [(usize, usize)] {
        match self {
            Piecing::OneThree => &[(0, 1), (1, 3)],
            Piecing::Four => &[(0, MMA_K)],
            Piecing::TwoTwo => &[(0, 2), (2, 2)],
        }
    }

    /// Passes per block `P`: the number of pieces in a packed row.
    pub const fn passes(self) -> usize {
        match self {
            Piecing::Four => 1,
            Piecing::OneThree | Piecing::TwoTwo => 2,
        }
    }

    /// Blocks one warp owns: `4 / P`.
    pub const fn blocks_per_warp(self) -> usize {
        PASSES / self.passes()
    }

    /// Packed rows one warp owns.
    pub const fn rows_per_warp(self) -> usize {
        self.blocks_per_warp() * MMA_M
    }

    /// The `k` positions of a packed row that `piece` covers, one bit per
    /// `k` (bit `k_start` up).
    pub const fn k_mask(self, piece: usize) -> u32 {
        let (start, len) = self.pieces()[piece];
        ((1u32 << len) - 1) << start
    }

    /// The lanes that gather on `piece`: lane `l` holds block element
    /// `k = l % 4` of row `l / 4`, so the piece's [`k_mask`](Self::k_mask)
    /// repeats over the eight rows.
    pub const fn lane_mask(self, piece: usize) -> u32 {
        self.k_mask(piece) * 0x1111_1111
    }

    /// Warps of this section in `part`.
    pub fn warps<S>(self, part: &ShortPart<S>) -> usize {
        part.warps[self as usize]
    }

    /// Element offset of this section in `part.vals`/`part.cids`: where
    /// the section before it ends.
    pub(crate) fn off<S>(self, part: &ShortPart<S>) -> usize {
        (self as usize).checked_sub(1).map_or(0, |i| part.ends[i])
    }

    /// Result slot to original row for this section; 32 per warp.
    pub fn perm<S>(self, part: &ShortPart<S>) -> &[u32] {
        &part.perms[self as usize]
    }

    /// Element offset of warp `w`'s block `block`.
    pub(crate) fn block_offset<S>(self, part: &ShortPart<S>, w: usize, block: usize) -> usize {
        self.off(part) + (w * self.blocks_per_warp() + block) * BLOCK_ELEMS
    }

    /// The perm entry holding piece `piece` of packed row `slot` (counted
    /// from the section's start): `w·32 + ((b % (4/P))·P + piece)·8 + r`
    /// for block `b = slot / 8`, row `r = slot % 8` and warp
    /// `w = b / (4/P)`. A warp's 32 entries are its four passes' eight
    /// rows in pass order, so that is `(b·P + piece)·8 + r`.
    pub(crate) const fn perm_slot(self, slot: usize, piece: usize) -> usize {
        ((slot / MMA_M) * self.passes() + piece) * MMA_M + slot % MMA_M
    }

    /// The sanitizer region of the SpMV warp body.
    pub const fn spmv_region(self) -> &'static str {
        match self {
            Piecing::OneThree => "dasp.short13",
            Piecing::Four => "dasp.short4",
            Piecing::TwoTwo => "dasp.short22",
        }
    }

    /// The sanitizer region of the SpMM warp body.
    pub(crate) const fn spmm_region(self) -> &'static str {
        match self {
            Piecing::OneThree => "spmm.short13",
            Piecing::Four => "spmm.short4",
            Piecing::TwoTwo => "spmm.short22",
        }
    }

    /// The trace span of the SpMV launch.
    pub(crate) const fn span(self) -> &'static str {
        match self {
            Piecing::OneThree => "spmv.kernel.short13",
            Piecing::Four => "spmv.kernel.short4",
            Piecing::TwoTwo => "spmv.kernel.short22",
        }
    }
}

impl<S> ShortPart<S> {
    /// An empty part.
    pub fn empty() -> Self {
        ShortPart {
            vals: Vec::new(),
            cids: Vec::new(),
            warps: [0; 3],
            ends: [0; 3],
            n1: 0,
            perms: Default::default(),
            perm1: Vec::new(),
            nnz_orig: 0,
        }
    }

    /// Element offset of the singletons in `vals`/`cids`: the end of the
    /// last MMA section.
    pub(crate) fn off1(&self) -> usize {
        self.ends[2]
    }

    /// The same pattern around a new value array: `f` maps the value
    /// array to its replacement. See
    /// [`LongPart::map_vals`](crate::format::LongPart).
    pub(crate) fn map_vals<T>(&self, f: impl FnOnce(&[S]) -> Vec<T>) -> ShortPart<T> {
        ShortPart {
            vals: f(&self.vals),
            cids: self.cids.clone(),
            warps: self.warps,
            ends: self.ends,
            n1: self.n1,
            perms: self.perms.clone(),
            perm1: self.perm1.clone(),
            nnz_orig: self.nnz_orig,
        }
    }

    /// Number of short rows across all sub-categories.
    pub fn num_rows(&self) -> usize {
        Piecing::ALL
            .iter()
            .map(|p| p.perm(self).iter().filter(|&&r| r != NO_ROW).count())
            .sum::<usize>()
            + self.n1
    }

    /// Builds the part from the short rows' ids (original row order).
    ///
    /// `piecing = false` is the ablation of paper §3.3.3: every row shorter
    /// than 4 is zero-padded into the length-4 category instead of being
    /// pieced, so a length-1 row occupies a whole 4-element slot (4x the
    /// value traffic and x loads).
    ///
    /// A sequential classification pass over the row lengths splits the ids
    /// into the four sub-categories and fixes the packed geometry; one
    /// emit loop over the [`Piecing`] table then fans each section's real
    /// packed-row slots out over `exec`, copying column ids and `val(j)`
    /// of each CSR element `j` of each piece straight into its
    /// precomputed (disjoint) destination, while padding slots keep their
    /// prefilled `pad`. No per-row staging; output is bit-identical for any
    /// executor.
    pub(crate) fn build_csr<T: Scalar>(
        csr: &Csr<T>,
        ids: &[u32],
        piecing: bool,
        val: impl Fn(usize) -> S + Sync,
        pad: S,
        exec: &Executor,
    ) -> Self
    where
        S: Copy + Send,
    {
        // --- classification (row ids only; lengths come from row_ptr) -----
        let mut r1: Vec<u32> = Vec::new();
        let mut r2: Vec<u32> = Vec::new();
        let mut r3: Vec<u32> = Vec::new();
        let mut r4: Vec<u32> = Vec::new();
        let mut nnz_orig = 0usize;
        for &id in ids {
            let len = csr.row_len(id as usize);
            nnz_orig += len;
            if !piecing {
                debug_assert!((1..=MMA_K).contains(&len), "short row of length {len}");
                r4.push(id);
                continue;
            }
            match len {
                1 => r1.push(id),
                2 => r2.push(id),
                3 => r3.push(id),
                4 => r4.push(id),
                l => panic!("short row of length {l}"),
            }
        }

        // --- sections: the row ids of each piece, one list per piece --------
        let pairs13 = r1.len().min(r3.len());
        let (ones, singles) = r1.split_at(pairs13);
        let (threes, leftover3) = r3.split_at(pairs13);
        // Length-4 slots: fours, then leftover threes (padded with one
        // zero), then an odd leftover length-2 row (padded with two zeros;
        // the paper leaves this case unspecified, padding keeps it in the
        // MMA path).
        let mut fours: Vec<u32> = r4;
        fours.extend_from_slice(leftover3);
        if r2.len() % 2 == 1 {
            fours.push(r2.pop().expect("odd length checked"));
        }
        let (first2, second2): (Vec<u32>, Vec<u32>) =
            r2.chunks_exact(2).map(|pair| (pair[0], pair[1])).unzip();
        let sections: [&[&[u32]]; 3] = [&[ones, threes], &[&fours], &[&first2, &second2]];

        // --- geometry: sections back to back, each padded to whole warps ---
        let mut warps = [0usize; 3];
        let mut ends = [0usize; 3];
        let mut end = 0;
        for (k, (p, pieces)) in Piecing::ALL.into_iter().zip(sections).enumerate() {
            warps[k] = pieces[0].len().div_ceil(p.rows_per_warp());
            end += warps[k] * p.blocks_per_warp() * BLOCK_ELEMS;
            ends[k] = end;
        }
        let n1 = singles.len();
        let off1 = end;

        // --- emit ----------------------------------------------------------
        let mut vals = vec![pad; off1 + n1];
        let mut cids = vec![0u32; off1 + n1];
        let mut perms = warps.map(|w| vec![NO_ROW; w * WARP_SIZE]);
        {
            let sv = SharedSlice::new(&mut vals);
            let sc = SharedSlice::new(&mut cids);
            let copy_row = |id: u32, base: usize, take: usize| {
                let start = csr.row_ptr[id as usize];
                for k in 0..take {
                    sc.write(base + k, csr.col_idx[start + k]);
                    sv.write(base + k, val(start + k));
                }
            };

            // Piece `piece` of packed row `slot` copies its row to
            // `k_start` of the slot and names the row in its perm entry.
            for (((p, pieces), perm), off) in Piecing::ALL
                .into_iter()
                .zip(sections)
                .zip(&mut perms)
                .zip([0, ends[0], ends[1]])
            {
                let sp = SharedSlice::new(perm);
                run_chunks(exec, pieces[0].len(), MIN_CHUNK_SLOTS, |lo, hi| {
                    for (piece, (ids, &(k_start, _))) in pieces.iter().zip(p.pieces()).enumerate() {
                        for (k, &id) in ids[lo..hi].iter().enumerate() {
                            let slot = lo + k;
                            let base = off + slot * MMA_K + k_start;
                            copy_row(id, base, csr.row_len(id as usize));
                            sp.write(p.perm_slot(slot, piece), id);
                        }
                    }
                });
            }

            // Leftover singletons.
            run_chunks(exec, n1, MIN_CHUNK_SLOTS, |lo, hi| {
                for (k, &id) in singles[lo..hi].iter().enumerate() {
                    copy_row(id, off1 + lo + k, 1);
                }
            });
        }

        ShortPart {
            vals,
            cids,
            warps,
            ends,
            n1,
            perms,
            perm1: singles.to_vec(),
            nnz_orig,
        }
    }
}

impl<S: Scalar> ShortPart<S> {
    /// Warps of the one short-category launch: the three MMA sections'
    /// warps plus the singleton kernel's.
    pub fn launch_warps(&self) -> usize {
        Piecing::ALL.iter().map(|p| p.warps(self)).sum::<usize>()
            + crate::kernels::short1_warps(self)
    }

    /// Builds the part from staged short rows, in original row order.
    /// Superseded by [`ShortPart::build_csr`] on the build path; kept as
    /// the append-based reference for parity tests.
    #[cfg(test)]
    pub(crate) fn build(short_rows: Vec<ShortRow<S>>) -> Self {
        Self::build_with_piecing(short_rows, true)
    }

    /// The non-piecing (`build_csr(.., piecing = false, ..)`) reference.
    #[cfg(test)]
    pub(crate) fn build_padded_only(short_rows: Vec<ShortRow<S>>) -> Self {
        Self::build_with_piecing(short_rows, false)
    }

    #[cfg(test)]
    fn build_with_piecing(short_rows: Vec<ShortRow<S>>, piecing: bool) -> Self {
        let mut part = ShortPart::empty();
        part.nnz_orig = short_rows.iter().map(|(_, e)| e.len()).sum();

        let mut r1: Vec<ShortRow<S>> = Vec::new();
        let mut r2: Vec<ShortRow<S>> = Vec::new();
        let mut r3: Vec<ShortRow<S>> = Vec::new();
        let mut r4: Vec<ShortRow<S>> = Vec::new();
        for row in short_rows {
            match row.1.len() {
                1 if !piecing => {
                    let (id, e) = row;
                    r4.push((
                        id,
                        vec![e[0], (0, S::zero()), (0, S::zero()), (0, S::zero())],
                    ));
                }
                2 if !piecing => {
                    let (id, e) = row;
                    r4.push((id, vec![e[0], e[1], (0, S::zero()), (0, S::zero())]));
                }
                3 if !piecing => {
                    let (id, e) = row;
                    r4.push((id, vec![e[0], e[1], e[2], (0, S::zero())]));
                }
                1 => r1.push(row),
                2 => r2.push(row),
                3 => r3.push(row),
                4 => r4.push(row),
                l => panic!("short row of length {l}"),
            }
        }

        // --- 1&3 piecing -------------------------------------------------
        let pairs13 = r1.len().min(r3.len());
        let ones: Vec<ShortRow<S>> = r1.drain(..pairs13).collect();
        let threes: Vec<ShortRow<S>> = r3.drain(..pairs13).collect();
        // A packed row per pair; warp granularity = 16 packed rows.
        part.warps[0] = pairs13.div_ceil(2 * MMA_M);
        let packed13 = part.warps[0] * 2 * MMA_M;
        part.perms[0] = vec![NO_ROW; part.warps[0] * 32];
        for slot in 0..packed13 {
            // packed row `slot` lives in block b = slot/8, local row r = slot%8
            let (b, r) = (slot / MMA_M, slot % MMA_M);
            let w = b / 2; // warp
            let i0 = (b % 2) * 2; // iteration of the "1" piece (0 or 2)
            if slot < pairs13 {
                let (one_id, one_elems) = &ones[slot];
                let (three_id, three_elems) = &threes[slot];
                part.push_elem(one_elems[0]);
                for &e in three_elems.iter() {
                    part.push_elem(e);
                }
                part.perms[0][w * 32 + i0 * MMA_M + r] = *one_id;
                part.perms[0][w * 32 + (i0 + 1) * MMA_M + r] = *three_id;
            } else {
                part.push_zeros(MMA_K);
            }
        }

        // --- pure length-4 (plus padded leftovers) -----------------------
        part.ends[0] = part.vals.len();
        let mut fours: Vec<(u32, [(u32, S); 4])> = Vec::new();
        for (id, e) in r4 {
            fours.push((id, [e[0], e[1], e[2], e[3]]));
        }
        for (id, e) in r3 {
            // leftover length-3 rows: pad one zero (paper §3.2)
            fours.push((id, [e[0], e[1], e[2], (0, S::zero())]));
        }
        if r2.len() % 2 == 1 {
            // an odd leftover length-2 row: pad two zeros (the paper leaves
            // this case unspecified; padding keeps it in the MMA path)
            let (id, e) = r2.pop().expect("odd length checked");
            fours.push((id, [e[0], e[1], (0, S::zero()), (0, S::zero())]));
        }
        part.warps[1] = fours.len().div_ceil(4 * MMA_M);
        let packed4 = part.warps[1] * 4 * MMA_M;
        part.perms[1] = vec![NO_ROW; part.warps[1] * 32];
        for slot in 0..packed4 {
            let (b, r) = (slot / MMA_M, slot % MMA_M);
            let (w, i) = (b / 4, b % 4);
            if let Some((id, elems)) = fours.get(slot) {
                for &e in elems.iter() {
                    part.push_elem(e);
                }
                part.perms[1][w * 32 + i * MMA_M + r] = *id;
            } else {
                part.push_zeros(MMA_K);
            }
        }

        // --- 2&2 piecing --------------------------------------------------
        part.ends[1] = part.vals.len();
        let pairs22 = r2.len() / 2;
        part.warps[2] = pairs22.div_ceil(2 * MMA_M);
        let packed22 = part.warps[2] * 2 * MMA_M;
        part.perms[2] = vec![NO_ROW; part.warps[2] * 32];
        for slot in 0..packed22 {
            let (b, r) = (slot / MMA_M, slot % MMA_M);
            let w = b / 2;
            let i0 = (b % 2) * 2;
            if slot < pairs22 {
                let (a_id, a_elems) = &r2[2 * slot];
                let (b_id, b_elems) = &r2[2 * slot + 1];
                part.push_elem(a_elems[0]);
                part.push_elem(a_elems[1]);
                part.push_elem(b_elems[0]);
                part.push_elem(b_elems[1]);
                part.perms[2][w * 32 + i0 * MMA_M + r] = *a_id;
                part.perms[2][w * 32 + (i0 + 1) * MMA_M + r] = *b_id;
            } else {
                part.push_zeros(MMA_K);
            }
        }

        // --- leftover singletons ------------------------------------------
        part.ends[2] = part.vals.len();
        part.n1 = r1.len();
        for (id, e) in r1 {
            part.push_elem(e[0]);
            part.perm1.push(id);
        }

        part
    }

    #[cfg(test)]
    fn push_elem(&mut self, (c, v): (u32, S)) {
        self.cids.push(c);
        self.vals.push(v);
    }

    #[cfg(test)]
    fn push_zeros(&mut self, n: usize) {
        for _ in 0..n {
            self.push_elem((0, S::zero()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::BLOCK_ELEMS;
    use dasp_sparse::Coo;

    /// CSR equivalent of the staged fixtures: row `id` holds `len` elements
    /// `(c, id*10 + c + 1)`.
    fn csr_of(rows: &[(u32, usize)]) -> Csr<f64> {
        let nrows = rows
            .iter()
            .map(|&(id, _)| id as usize + 1)
            .max()
            .unwrap_or(1);
        let mut coo = Coo::new(nrows, MMA_K);
        for &(id, len) in rows {
            for c in 0..len as u32 {
                coo.push(id as usize, c as usize, (id * 10 + c + 1) as f64);
            }
        }
        coo.to_csr()
    }

    fn build_with(csr: &Csr<f64>, ids: &[u32], piecing: bool, exec: &Executor) -> ShortPart<f64> {
        ShortPart::build_csr(csr, ids, piecing, |j| csr.vals[j], 0.0, exec)
    }

    fn build(rows: &[(u32, usize)]) -> ShortPart<f64> {
        let ids: Vec<u32> = rows.iter().map(|&(id, _)| id).collect();
        build_with(&csr_of(rows), &ids, true, &Executor::seq())
    }

    #[test]
    fn all_lists_the_sections_in_discriminant_order() {
        // The accessors index `ShortPart`'s section arrays by discriminant.
        for (i, p) in Piecing::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
        }
    }

    #[test]
    fn pairs_ones_with_threes() {
        // 3 singles + 2 threes -> 2 pairs, 1 leftover single.
        let p = build(&[(0, 1), (1, 3), (2, 1), (3, 3), (4, 1)]);
        assert_eq!(Piecing::OneThree.warps(&p), 1);
        assert_eq!(p.n1, 1);
        assert_eq!(p.perm1, vec![4]);
        // Pair 0 = rows (0, 1): packed row 0 = [a0 | b0 b1 b2]
        assert_eq!(p.vals[0], 1.0); // row 0's single element
        assert_eq!(p.vals[1], 11.0); // row 1's first element
                                     // perm: warp 0, block 0, iteration 0 slot 0 -> row 0; iteration 1
                                     // slot 0 -> row 1.
        assert_eq!(Piecing::OneThree.perm(&p)[0], 0);
        assert_eq!(Piecing::OneThree.perm(&p)[MMA_M], 1);
        assert_eq!(Piecing::OneThree.perm(&p)[1], 2);
        assert_eq!(Piecing::OneThree.perm(&p)[MMA_M + 1], 3);
        assert_eq!(p.num_rows(), 5);
    }

    #[test]
    fn leftover_threes_become_fours() {
        // 1 single, 3 threes: one 1&3 pair, two threes padded into fours.
        let p = build(&[(0, 1), (1, 3), (2, 3), (3, 3)]);
        assert_eq!(Piecing::OneThree.warps(&p), 1);
        assert_eq!(Piecing::Four.warps(&p), 1);
        assert_eq!(p.n1, 0);
        // The fours hold rows 2 and 3 with a zero pad in position 3.
        assert_eq!(p.vals[Piecing::Four.off(&p) + 3], 0.0);
        assert_eq!(p.cids[Piecing::Four.off(&p) + 3], 0);
        assert_eq!(Piecing::Four.perm(&p)[0], 2);
        assert_eq!(Piecing::Four.perm(&p)[1], 3);
    }

    #[test]
    fn twos_paired_and_odd_leftover_padded() {
        let p = build(&[(0, 2), (1, 2), (2, 2)]);
        // rows 0&1 pair in the 2&2 category; row 2 is the odd one out,
        // padded into the fours.
        assert_eq!(Piecing::TwoTwo.warps(&p), 1);
        assert_eq!(Piecing::Four.warps(&p), 1);
        assert_eq!(Piecing::TwoTwo.perm(&p)[0], 0);
        assert_eq!(Piecing::TwoTwo.perm(&p)[MMA_M], 1);
        assert_eq!(Piecing::Four.perm(&p)[0], 2);
        assert_eq!(p.num_rows(), 3);
    }

    #[test]
    fn pure_fours_fill_blocks() {
        let rows: Vec<_> = (0..40).map(|i| (i, 4)).collect();
        let p = build(&rows);
        // 40 fours -> 2 warps of 32 slots (second warp 8 rows + 24 pads).
        assert_eq!(Piecing::Four.warps(&p), 2);
        assert_eq!(p.vals.len(), 2 * 4 * BLOCK_ELEMS);
        assert_eq!(
            Piecing::Four
                .perm(&p)
                .iter()
                .filter(|&&r| r != NO_ROW)
                .count(),
            40
        );
        // slot order: warp 0 holds rows 0..32 as blocks of 8.
        assert_eq!(Piecing::Four.perm(&p)[0], 0);
        assert_eq!(Piecing::Four.perm(&p)[8], 8);
        assert_eq!(Piecing::Four.perm(&p)[31], 31);
        assert_eq!(Piecing::Four.perm(&p)[32], 32);
    }

    #[test]
    fn padding_slots_are_zeroed() {
        let p = build(&[(7, 1), (8, 3)]);
        // One pair; 15 packed-row pads of 4 zero elements each.
        assert_eq!(p.vals.len(), 16 * MMA_K);
        let nonzero = p.vals.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nonzero, 4);
        assert_eq!(p.nnz_orig, 4);
    }

    #[test]
    fn empty_input_is_empty_part() {
        let empty = Coo::<f64>::new(1, 1).to_csr();
        let p = build_with(&empty, &[], true, &Executor::seq());
        assert_eq!(p.num_rows(), 0);
        assert_eq!(p.vals.len(), 0);
        assert_eq!(p.warps.iter().sum::<usize>() + p.n1, 0);
    }

    #[test]
    fn matches_append_based_reference_and_parallel_run() {
        // Every length 1..=4 in a scrambled interleaving, enough rows to
        // exercise multi-warp packing, leftover threes, and the odd two.
        let lens: Vec<(u32, usize)> = (0..120u32).map(|i| (i, 1 + (i as usize * 7) % 4)).collect();
        let csr = csr_of(&lens);
        let ids: Vec<u32> = lens.iter().map(|&(id, _)| id).collect();
        let staged: Vec<ShortRow<f64>> = lens
            .iter()
            .map(|&(id, _)| (id, csr.row(id as usize).collect()))
            .collect();

        for piecing in [true, false] {
            let new = build_with(&csr, &ids, piecing, &Executor::seq());
            let par = build_with(&csr, &ids, piecing, &Executor::par_with_threads(Some(4)));
            let reference = if piecing {
                ShortPart::build(staged.clone())
            } else {
                ShortPart::build_padded_only(staged.clone())
            };
            assert_eq!(new, reference);
            assert_eq!(new, par);
        }
    }
}
