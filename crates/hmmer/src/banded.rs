//! Banded Viterbi — the pipeline's hot kernels.
//!
//! Filter survivors are realigned with a Viterbi restricted to a band of
//! query columns around the best SSV diagonal. The row computation is
//! split into the two kernels that dominate the paper's function-level
//! profile (Table IV): `calc_band_9` computes the match/insert states of
//! a band row, and `calc_band_10` computes the delete chain and the
//! row's best-cell bookkeeping. Together they consume ~55 % of MSA CPU
//! cycles in the paper; the same two symbols are what `afsb-core` reports.

use crate::counters::WorkCounters;
use crate::hits::Alignment;
use crate::profile::ProfileHmm;

const NEG_INF: f32 = -1.0e30;

/// A diagonal band: query columns within `half_width` of the SSV diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// Center diagonal (`target_pos - query_col`).
    pub diag: i64,
    /// Half-width in columns.
    pub half_width: usize,
}

impl Band {
    /// Inclusive query-column range covered at target position `i`, or
    /// `None` if the band is entirely outside the profile there.
    pub fn columns_at(&self, i: usize, profile_len: usize) -> Option<(usize, usize)> {
        let center = i as i64 - self.diag;
        let lo = (center - self.half_width as i64).max(0);
        let hi = (center + self.half_width as i64).min(profile_len as i64 - 1);
        if lo > hi {
            None
        } else {
            Some((lo as usize, hi as usize))
        }
    }
}

/// Result of a banded Viterbi pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedResult {
    /// Best local path score in bits.
    pub score_bits: f32,
    /// Traceback alignment of the best path (match states only); `None`
    /// when no positive-scoring cell exists.
    pub alignment: Option<Alignment>,
}

/// One stored band row (for traceback).
struct Row {
    q_lo: usize,
    m: Vec<f32>,
    i: Vec<f32>,
    d: Vec<f32>,
    /// Backpointers for M: 0=entry, 1=MM, 2=IM, 3=DM.
    bp_m: Vec<u8>,
    /// Backpointers for I: 0=MI, 1=II.
    bp_i: Vec<u8>,
    /// Backpointers for D: 0=MD, 1=DD.
    bp_d: Vec<u8>,
}

impl Row {
    fn get(&self, q: usize, which: u8) -> f32 {
        if q < self.q_lo || q >= self.q_lo + self.m.len() {
            return NEG_INF;
        }
        let o = q - self.q_lo;
        match which {
            0 => self.m[o],
            1 => self.i[o],
            _ => self.d[o],
        }
    }
}

/// Kernel 1 (`calc_band_9` analogue): match + insert states of one row.
///
/// Returns the partially-filled row; delete states are left at −∞ for
/// [`calc_band_10`] to fill. Cell count goes to `counters.band_cells_mi`.
#[allow(clippy::too_many_arguments)]
fn calc_band_9(
    profile: &ProfileHmm,
    x: u8,
    q_range: (usize, usize),
    prev: Option<&Row>,
    counters: &mut WorkCounters,
) -> Row {
    let (q_lo, q_hi) = q_range;
    let width = q_hi - q_lo + 1;
    counters.band_cells_mi += width as u64;
    let t = *profile.transitions();
    let entry = profile.entry();
    let mut row = Row {
        q_lo,
        m: vec![NEG_INF; width],
        i: vec![NEG_INF; width],
        d: vec![NEG_INF; width],
        bp_m: vec![0; width],
        bp_i: vec![0; width],
        bp_d: vec![0; width],
    };
    for o in 0..width {
        let q = q_lo + o;
        let e = profile.match_score(q, x);
        // M: best of entry / MM / IM / DM from the previous row at q-1.
        let mut best = entry;
        let mut bp = 0u8;
        if let Some(p) = prev {
            if q > 0 {
                let mm = p.get(q - 1, 0) + t.mm;
                if mm > best {
                    best = mm;
                    bp = 1;
                }
                let im = p.get(q - 1, 1) + t.im;
                if im > best {
                    best = im;
                    bp = 2;
                }
                let dm = p.get(q - 1, 2) + t.dm;
                if dm > best {
                    best = dm;
                    bp = 3;
                }
            }
        }
        row.m[o] = e + best;
        row.bp_m[o] = bp;
        // I: stay at column q, consume a target residue.
        if let Some(p) = prev {
            let mi = p.get(q, 0) + t.mi;
            let ii = p.get(q, 1) + t.ii;
            if mi >= ii {
                row.i[o] = mi;
                row.bp_i[o] = 0;
            } else {
                row.i[o] = ii;
                row.bp_i[o] = 1;
            }
        }
    }
    row
}

/// Kernel 2 (`calc_band_10` analogue): delete chain + row best tracking.
///
/// Cell count goes to `counters.band_cells_ds`.
fn calc_band_10(profile: &ProfileHmm, row: &mut Row, counters: &mut WorkCounters) -> (f32, usize) {
    let width = row.m.len();
    counters.band_cells_ds += width as u64;
    let t = *profile.transitions();
    let mut best = NEG_INF;
    let mut best_q = row.q_lo;
    for o in 0..width {
        if o > 0 {
            let md = row.m[o - 1] + t.md;
            let dd = row.d[o - 1] + t.dd;
            if md >= dd {
                row.d[o] = md;
                row.bp_d[o] = 0;
            } else {
                row.d[o] = dd;
                row.bp_d[o] = 1;
            }
        }
        if row.m[o] > best {
            best = row.m[o];
            best_q = row.q_lo + o;
        }
    }
    (best, best_q)
}

/// Banded local Viterbi with traceback.
///
/// Returns the best score in the band and the match-state alignment of
/// the optimal path. Counts are split across the two kernels exactly as
/// executed.
pub fn banded_viterbi(
    profile: &ProfileHmm,
    target: &[u8],
    band: Band,
    counters: &mut WorkCounters,
) -> BandedResult {
    let k = profile.len();
    let mut rows: Vec<Option<Row>> = Vec::with_capacity(target.len());
    let mut best = NEG_INF;
    let mut best_pos: Option<(usize, usize)> = None; // (row index, q)

    let mut prev_idx: Option<usize> = None;
    for (i, &x) in target.iter().enumerate() {
        match band.columns_at(i, k) {
            Some(range) => {
                let prev = prev_idx.and_then(|pi| rows[pi].as_ref());
                let mut row = calc_band_9(profile, x, range, prev, counters);
                let (row_best, row_q) = calc_band_10(profile, &mut row, counters);
                rows.push(Some(row));
                prev_idx = Some(rows.len() - 1);
                if row_best > best {
                    best = row_best;
                    best_pos = Some((rows.len() - 1, row_q));
                }
            }
            None => {
                rows.push(None);
                prev_idx = None;
            }
        }
    }

    // Peak DP state: stored band rows.
    let band_width = (2 * band.half_width + 1) as u64;
    let row_bytes = band_width * (3 * 4 + 3);
    counters.peak_state_bytes = counters
        .peak_state_bytes
        .max(row_bytes * target.len() as u64);

    if best <= 0.0 {
        return BandedResult {
            score_bits: best,
            alignment: None,
        };
    }

    // Traceback from the best M cell.
    let (mut ri, mut q) = best_pos.expect("positive best implies a position");
    let mut state = 0u8; // 0=M, 1=I, 2=D
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    loop {
        counters.traceback_cells += 1;
        let row = rows[ri].as_ref().expect("traceback stays inside band");
        let o = q - row.q_lo;
        match state {
            0 => {
                pairs.push((q as u32, ri as u32));
                match row.bp_m[o] {
                    0 => break, // entry: path starts here
                    1 => {
                        state = 0;
                        q -= 1;
                        ri = prev_row(&rows, ri);
                    }
                    2 => {
                        state = 1;
                        q -= 1;
                        ri = prev_row(&rows, ri);
                    }
                    _ => {
                        state = 2;
                        q -= 1;
                        ri = prev_row(&rows, ri);
                    }
                }
            }
            1 => {
                // Insert consumed a target residue at column q.
                match row.bp_i[o] {
                    0 => state = 0,
                    _ => state = 1,
                }
                ri = prev_row(&rows, ri);
            }
            _ => {
                match row.bp_d[o] {
                    0 => state = 0,
                    _ => state = 2,
                }
                q -= 1;
            }
        }
        if ri == usize::MAX {
            break;
        }
    }
    pairs.reverse();
    let alignment = Alignment {
        pairs,
        query_len: k as u32,
        target_len: target.len() as u32,
    };
    debug_assert!(alignment.is_monotonic(), "traceback must be monotonic");
    BandedResult {
        score_bits: best,
        alignment: Some(alignment),
    }
}

/// Previous stored row index, or `usize::MAX` when the path leaves the
/// band's coverage.
fn prev_row(rows: &[Option<Row>], ri: usize) -> usize {
    if ri == 0 {
        return usize::MAX;
    }
    if rows[ri - 1].is_some() {
        ri - 1
    } else {
        usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use crate::msv;
    use crate::substitution::SubstitutionMatrix;
    use afsb_seq::alphabet::MoleculeKind;
    use afsb_seq::generate::{background_sequence, mutate_homolog, rng_for};
    use afsb_seq::sequence::Sequence;

    fn profile_of(seq: &Sequence) -> ProfileHmm {
        ProfileHmm::from_query(seq, &SubstitutionMatrix::blosum62())
    }

    #[test]
    fn band_column_ranges() {
        let b = Band {
            diag: 5,
            half_width: 2,
        };
        // i=5 -> center q=0 -> columns 0..=2.
        assert_eq!(b.columns_at(5, 100), Some((0, 2)));
        // i=0 -> center q=-5 -> columns none in range? lo=-7..-3 clamp ->
        // lo 0 > hi -3 -> None.
        assert_eq!(b.columns_at(0, 100), None);
        assert_eq!(b.columns_at(104, 100), Some((97, 99)));
        assert_eq!(b.columns_at(200, 100), None);
    }

    #[test]
    fn banded_matches_full_on_diagonal_homolog() {
        let mut rng = rng_for("b", 1);
        let q = background_sequence("q", MoleculeKind::Protein, 60, &mut rng);
        let p = profile_of(&q);
        let hom = mutate_homolog(&q, "h", 0.85, 0.0, &mut rng);
        let mut c = WorkCounters::default();
        let full = dp::viterbi_score(&p, hom.codes(), &mut c);
        let banded = banded_viterbi(
            &p,
            hom.codes(),
            Band {
                diag: 0,
                half_width: 8,
            },
            &mut c,
        );
        assert!(
            (banded.score_bits - full).abs() < 2.0,
            "banded {} vs full {full}",
            banded.score_bits
        );
    }

    #[test]
    fn banded_never_exceeds_full() {
        let mut rng = rng_for("b", 2);
        let q = background_sequence("q", MoleculeKind::Protein, 40, &mut rng);
        let p = profile_of(&q);
        for i in 0..10 {
            let t = background_sequence(format!("t{i}"), MoleculeKind::Protein, 100, &mut rng);
            let mut c = WorkCounters::default();
            let full = dp::viterbi_score(&p, t.codes(), &mut c);
            let r = banded_viterbi(
                &p,
                t.codes(),
                Band {
                    diag: 20,
                    half_width: 6,
                },
                &mut c,
            );
            assert!(
                r.score_bits <= full + 1e-3,
                "banded {} exceeds full {full}",
                r.score_bits
            );
        }
    }

    #[test]
    fn traceback_is_monotonic_and_in_range() {
        let mut rng = rng_for("b", 3);
        let q = background_sequence("q", MoleculeKind::Protein, 50, &mut rng);
        let p = profile_of(&q);
        let hom = mutate_homolog(&q, "h", 0.8, 0.03, &mut rng);
        let mut c = WorkCounters::default();
        let r = banded_viterbi(
            &p,
            hom.codes(),
            Band {
                diag: 0,
                half_width: 10,
            },
            &mut c,
        );
        let a = r.alignment.expect("homolog aligns");
        assert!(a.is_monotonic());
        assert!(
            a.matches() > 20,
            "expected a long alignment, got {}",
            a.matches()
        );
        let (qs, qe) = a.query_span().unwrap();
        assert!(qe < 50 && qs <= qe);
        assert!(c.traceback_cells > 0);
    }

    #[test]
    fn band_from_msv_diag_recovers_offset_match() {
        let mut rng = rng_for("b", 4);
        let q = background_sequence("q", MoleculeKind::Protein, 30, &mut rng);
        let p = profile_of(&q);
        // Target: 40 residues of noise, then the query itself.
        let mut codes = background_sequence("pad", MoleculeKind::Protein, 40, &mut rng)
            .codes()
            .to_vec();
        codes.extend_from_slice(q.codes());
        let mut c = WorkCounters::default();
        let m = msv::msv_scan(&p, &codes, &mut c);
        assert_eq!(m.best_diag, 40);
        let r = banded_viterbi(
            &p,
            &codes,
            Band {
                diag: m.best_diag,
                half_width: 5,
            },
            &mut c,
        );
        let a = r.alignment.expect("planted match");
        let (ts, _te) = a.target_span().unwrap();
        assert!(ts >= 38, "alignment should start near offset 40, got {ts}");
    }

    #[test]
    fn kernel_counters_split() {
        let mut rng = rng_for("b", 5);
        let q = background_sequence("q", MoleculeKind::Protein, 30, &mut rng);
        let p = profile_of(&q);
        let t = background_sequence("t", MoleculeKind::Protein, 60, &mut rng);
        let mut c = WorkCounters::default();
        banded_viterbi(
            &p,
            t.codes(),
            Band {
                diag: 0,
                half_width: 4,
            },
            &mut c,
        );
        assert!(c.band_cells_mi > 0);
        assert_eq!(c.band_cells_mi, c.band_cells_ds);
        assert!(c.peak_state_bytes > 0);
    }
}
