use crate::{PolicyError, MAX_WARP_LANES};

/// A validated number of subwarps for fixed-sized subwarping.
///
/// For FSS the warp is split into equal groups, so the count must divide the
/// warp size. `NumSubwarps` carries that invariant in the type
/// (the paper sweeps `M ∈ {1, 2, 4, 8, 16, 32}` for a 32-thread warp).
///
/// ```
/// use rcoal_core::NumSubwarps;
/// let m = NumSubwarps::new(8, 32)?;
/// assert_eq!(m.get(), 8);
/// assert!(NumSubwarps::new(3, 32).is_err());
/// # Ok::<(), rcoal_core::PolicyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NumSubwarps(usize);

impl NumSubwarps {
    /// Creates a subwarp count that evenly divides `warp_size`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::OutOfRange`] if `num_subwarps` is zero or
    /// exceeds `warp_size`, and [`PolicyError::NotADivisor`] if it does not
    /// divide `warp_size`.
    pub fn new(num_subwarps: usize, warp_size: usize) -> Result<Self, PolicyError> {
        if num_subwarps == 0 || num_subwarps > warp_size {
            return Err(PolicyError::OutOfRange {
                num_subwarps,
                warp_size,
            });
        }
        if !warp_size.is_multiple_of(num_subwarps) {
            return Err(PolicyError::NotADivisor {
                num_subwarps,
                warp_size,
            });
        }
        Ok(NumSubwarps(num_subwarps))
    }

    /// Creates a subwarp count bounded by `warp_size` without requiring
    /// divisibility (valid for RSS, where sizes are drawn at random).
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::OutOfRange`] if `num_subwarps` is zero or
    /// exceeds `warp_size`.
    pub fn new_unaligned(num_subwarps: usize, warp_size: usize) -> Result<Self, PolicyError> {
        if num_subwarps == 0 || num_subwarps > warp_size {
            return Err(PolicyError::OutOfRange {
                num_subwarps,
                warp_size,
            });
        }
        Ok(NumSubwarps(num_subwarps))
    }

    /// Returns the raw count.
    pub fn get(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NumSubwarps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// An assignment of every lane of a warp to a subwarp.
///
/// This is the `sid` (subwarp-id) mapping held in the modified coalescing
/// unit's pending request table (paper §IV-D, Figure 11). Invariants upheld
/// by construction:
///
/// * every lane has a subwarp id `< num_subwarps()`;
/// * every subwarp owns at least one lane (no subwarp is empty, as required
///   by the paper's skewed RSS distribution, §IV-B).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubwarpAssignment {
    /// `sid[lane]` is the subwarp id of `lane`.
    sid: Vec<u8>,
    num_subwarps: usize,
}

impl SubwarpAssignment {
    /// Builds an assignment from per-subwarp sizes with lanes mapped
    /// *in order*: the first `sizes[0]` lanes get sid 0, the next
    /// `sizes[1]` get sid 1, and so on. This is how FSS and RSS (without
    /// RTS) allot subwarp ids (§IV-D: "the subwarp-ids are allotted in
    /// order").
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidSizes`] if any size is zero or the
    /// sizes are empty, and [`PolicyError::WarpTooWide`] if the sizes sum
    /// past [`MAX_WARP_LANES`] (every lane must fit a `u64` lane mask;
    /// real warps have ≤ 32 lanes).
    pub fn in_order(sizes: &[usize]) -> Result<Self, PolicyError> {
        Self::validate_sizes(sizes)?;
        let total: usize = sizes.iter().sum();
        let mut sid = Vec::with_capacity(total);
        for (s, &size) in sizes.iter().enumerate() {
            sid.extend(std::iter::repeat_n(s as u8, size));
        }
        Ok(SubwarpAssignment {
            sid,
            num_subwarps: sizes.len(),
        })
    }

    /// Builds an assignment from per-subwarp sizes and an explicit lane
    /// permutation: `perm[i]` is the lane that occupies slot `i` of the
    /// in-order layout. This realizes RTS on top of FSS or RSS.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidSizes`] if the sizes are invalid or if
    /// `perm` is not a permutation of `0..sizes.iter().sum()`.
    pub fn permuted(sizes: &[usize], perm: &[usize]) -> Result<Self, PolicyError> {
        Self::validate_sizes(sizes)?;
        let total: usize = sizes.iter().sum();
        if perm.len() != total || !is_permutation(perm) {
            return Err(PolicyError::InvalidSizes {
                sizes: sizes.to_vec(),
            });
        }
        let mut sid = vec![0u8; total];
        let mut slot = 0;
        for (s, &size) in sizes.iter().enumerate() {
            for _ in 0..size {
                sid[perm[slot]] = s as u8;
                slot += 1;
            }
        }
        Ok(SubwarpAssignment {
            sid,
            num_subwarps: sizes.len(),
        })
    }

    /// Places all lanes of a `warp_size`-thread warp in a single subwarp —
    /// the deterministic baseline the attack of Jiang et al. assumes.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::EmptyWarp`] if `warp_size` is zero.
    pub fn single(warp_size: usize) -> Result<Self, PolicyError> {
        if warp_size == 0 {
            return Err(PolicyError::EmptyWarp);
        }
        Self::in_order(&[warp_size])
    }

    /// Places every lane in its own subwarp, i.e. coalescing disabled.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::EmptyWarp`] if `warp_size` is zero and
    /// [`PolicyError::WarpTooWide`] if it exceeds [`MAX_WARP_LANES`].
    pub fn fully_split(warp_size: usize) -> Result<Self, PolicyError> {
        if warp_size == 0 {
            return Err(PolicyError::EmptyWarp);
        }
        if warp_size > MAX_WARP_LANES {
            return Err(PolicyError::WarpTooWide { warp_size });
        }
        Self::in_order(&[1; MAX_WARP_LANES][..warp_size])
    }

    fn validate_sizes(sizes: &[usize]) -> Result<(), PolicyError> {
        if sizes.is_empty() || sizes.contains(&0) {
            return Err(PolicyError::InvalidSizes {
                sizes: sizes.to_vec(),
            });
        }
        let warp_size: usize = sizes.iter().sum();
        if warp_size > MAX_WARP_LANES {
            return Err(PolicyError::WarpTooWide { warp_size });
        }
        Ok(())
    }

    /// Subwarp id of `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.warp_size()`.
    pub fn sid(&self, lane: usize) -> u8 {
        self.sid[lane]
    }

    /// Number of lanes covered by this assignment.
    pub fn warp_size(&self) -> usize {
        self.sid.len()
    }

    /// Number of subwarps.
    pub fn num_subwarps(&self) -> usize {
        self.num_subwarps
    }

    /// Iterates over `(lane, sid)` pairs in lane order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.sid.iter().copied().enumerate()
    }

    /// Returns the lanes of each subwarp, indexed by sid.
    pub fn lanes_by_subwarp(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_subwarps];
        for (lane, s) in self.iter() {
            groups[s as usize].push(lane);
        }
        groups
    }

    /// Returns the size of each subwarp, indexed by sid.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_subwarps];
        for &s in &self.sid {
            sizes[s as usize] += 1;
        }
        sizes
    }
}

/// A warp's subwarps as lane masks: bit `lane` of `masks()[sid]` is set
/// when `lane` belongs to subwarp `sid`.
///
/// The allocation-free twin of [`SubwarpAssignment`]. It lives on the
/// stack (one `u64` per subwarp, at most [`MAX_WARP_LANES`] of them), so
/// [`crate::CoalescingPolicy::assignment_into`] can redraw it for every
/// prediction without touching the heap, and the distinct-block count of
/// a subwarp is one popcount of OR'd block bits
/// ([`SubwarpMasks::count_distinct`]).
///
/// ```
/// use rcoal_core::{SubwarpAssignment, SubwarpMasks};
///
/// let a = SubwarpAssignment::permuted(&[2, 2], &[0, 2, 1, 3])?;
/// let masks = SubwarpMasks::from(&a);
/// assert_eq!(masks.masks(), &[0b0101, 0b1010]);
/// assert_eq!(masks.to_assignment(), a);
/// # Ok::<(), rcoal_core::PolicyError>(())
/// ```
#[derive(Clone, Copy)]
pub struct SubwarpMasks {
    masks: [u64; MAX_WARP_LANES],
    len: usize,
    warp_size: usize,
}

impl Default for SubwarpMasks {
    fn default() -> Self {
        SubwarpMasks {
            masks: [0; MAX_WARP_LANES],
            len: 0,
            warp_size: 0,
        }
    }
}

impl std::fmt::Debug for SubwarpMasks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubwarpMasks")
            .field("warp_size", &self.warp_size)
            .field("masks", &self.masks())
            .finish()
    }
}

impl SubwarpMasks {
    /// An empty mask set (no subwarps, zero lanes) to be filled by
    /// [`crate::CoalescingPolicy::assignment_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The lane mask of every subwarp, indexed by sid.
    pub fn masks(&self) -> &[u64] {
        &self.masks[..self.len]
    }

    /// Number of subwarps.
    pub fn num_subwarps(&self) -> usize {
        self.len
    }

    /// Number of lanes covered.
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// The materialized per-lane form of the same partition.
    pub fn to_assignment(&self) -> SubwarpAssignment {
        let mut sid = vec![0u8; self.warp_size];
        for (s, &mask) in self.masks().iter().enumerate() {
            for_each_lane(mask, |lane| sid[lane] = s as u8);
        }
        SubwarpAssignment {
            sid,
            num_subwarps: self.len,
        }
    }

    /// Sets in-order subwarps of the given sizes (lanes `0..sizes[0]` in
    /// sid 0, and so on). Callers guarantee `1 ≤ sizes[i]` and
    /// `Σ sizes ≤ MAX_WARP_LANES`.
    pub(crate) fn set_in_order(&mut self, sizes: &[usize]) {
        let mut offset = 0;
        for (slot, &size) in self.masks.iter_mut().zip(sizes) {
            *slot = low_bits(size) << offset;
            offset += size;
        }
        self.len = sizes.len();
        self.warp_size = offset;
    }

    /// Sets subwarps of the given sizes over a lane permutation: slot
    /// `i` of the in-order layout holds lane `perm[i]` (the RTS mapping
    /// of [`SubwarpAssignment::permuted`]).
    pub(crate) fn set_permuted(&mut self, sizes: &[usize], perm: &[u8]) {
        let mut lanes = perm.iter();
        for (slot, &size) in self.masks.iter_mut().zip(sizes) {
            *slot = lanes.by_ref().take(size).fold(0, |m, &l| m | 1 << l);
        }
        self.len = sizes.len();
        self.warp_size = perm.len();
    }

    /// Total distinct blocks over all subwarps: for each subwarp, the
    /// popcount of the OR of its lanes' block bits.
    ///
    /// `block_bit(lanes[lane])` is the one-hot bit of the lane's block id
    /// (`1 << id`, ids `< 64`), or `0` for an inactive lane; lanes past
    /// the end of `lanes` count as inactive. Ids only need to be
    /// consistent within one call, so callers may use dense per-warp ids
    /// ([`crate::Coalescer::count_masked`]) or a table's block indices
    /// directly (the attack predictor maps each lane's observed byte).
    pub fn count_distinct<T: Copy>(&self, lanes: &[T], block_bit: impl Fn(T) -> u64) -> usize {
        self.masks()
            .iter()
            .map(|&mask| {
                let lo = mask.trailing_zeros();
                let run = mask.checked_shr(lo).unwrap_or(0);
                let blocks = if run & run.wrapping_add(1) == 0 {
                    // In-order subwarp (all but the RTS policies): one
                    // contiguous lane range.
                    let lo = (lo as usize).min(lanes.len());
                    let hi = (lo + run.count_ones() as usize).min(lanes.len());
                    lanes[lo..hi].iter().fold(0, |acc, &t| acc | block_bit(t))
                } else {
                    let mut acc = 0u64;
                    for_each_lane(mask, |lane| {
                        acc |= lanes.get(lane).map_or(0, |&t| block_bit(t));
                    });
                    acc
                };
                blocks.count_ones() as usize
            })
            .sum()
    }
}

impl From<&SubwarpAssignment> for SubwarpMasks {
    fn from(assignment: &SubwarpAssignment) -> Self {
        // Constructors cap assignments at MAX_WARP_LANES lanes, and no
        // subwarp is empty, so every lane and sid fits.
        let mut out = SubwarpMasks {
            len: assignment.num_subwarps,
            warp_size: assignment.warp_size(),
            ..SubwarpMasks::default()
        };
        for (lane, s) in assignment.iter() {
            out.masks[usize::from(s)] |= 1 << lane;
        }
        out
    }
}

/// The `n` lowest bits set (`n ≤ 64`).
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// Calls `f(lane)` for every set bit of `mask`, lowest lane first.
pub(crate) fn for_each_lane(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

fn is_permutation(perm: &[usize]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if p >= perm.len() || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_subwarps_accepts_divisors_of_32() {
        for m in [1, 2, 4, 8, 16, 32] {
            assert_eq!(NumSubwarps::new(m, 32).unwrap().get(), m);
        }
    }

    #[test]
    fn num_subwarps_rejects_non_divisors_and_bounds() {
        assert!(matches!(
            NumSubwarps::new(3, 32),
            Err(PolicyError::NotADivisor { .. })
        ));
        assert!(matches!(
            NumSubwarps::new(0, 32),
            Err(PolicyError::OutOfRange { .. })
        ));
        assert!(matches!(
            NumSubwarps::new(64, 32),
            Err(PolicyError::OutOfRange { .. })
        ));
        // Unaligned accepts non-divisors but keeps the range check.
        assert_eq!(NumSubwarps::new_unaligned(3, 32).unwrap().get(), 3);
        assert!(NumSubwarps::new_unaligned(33, 32).is_err());
    }

    #[test]
    fn in_order_assignment_maps_contiguous_groups() {
        let a = SubwarpAssignment::in_order(&[2, 2]).unwrap();
        assert_eq!(a.warp_size(), 4);
        assert_eq!(a.num_subwarps(), 2);
        assert_eq!(
            (0..4).map(|l| a.sid(l)).collect::<Vec<_>>(),
            vec![0, 0, 1, 1]
        );
        assert_eq!(a.sizes(), vec![2, 2]);
    }

    #[test]
    fn in_order_rejects_empty_subwarps() {
        assert!(SubwarpAssignment::in_order(&[2, 0, 2]).is_err());
        assert!(SubwarpAssignment::in_order(&[]).is_err());
    }

    #[test]
    fn permuted_assignment_matches_figure_10a() {
        // Figure 10a: FSS+RTS, 4 threads, 2 subwarps of size 2,
        // subwarp 0 owns lanes {0, 2}, subwarp 1 owns lanes {1, 3}.
        let a = SubwarpAssignment::permuted(&[2, 2], &[0, 2, 1, 3]).unwrap();
        assert_eq!(a.lanes_by_subwarp(), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn permuted_rejects_non_permutations() {
        assert!(SubwarpAssignment::permuted(&[2, 2], &[0, 0, 1, 3]).is_err());
        assert!(SubwarpAssignment::permuted(&[2, 2], &[0, 1, 2]).is_err());
        assert!(SubwarpAssignment::permuted(&[2, 2], &[0, 1, 2, 4]).is_err());
    }

    #[test]
    fn single_and_fully_split() {
        let one = SubwarpAssignment::single(32).unwrap();
        assert_eq!(one.num_subwarps(), 1);
        assert_eq!(one.sizes(), vec![32]);

        let split = SubwarpAssignment::fully_split(32).unwrap();
        assert_eq!(split.num_subwarps(), 32);
        assert!(split.sizes().iter().all(|&s| s == 1));

        assert!(SubwarpAssignment::single(0).is_err());
        assert!(SubwarpAssignment::fully_split(0).is_err());
    }

    #[test]
    fn assignments_are_capped_at_the_mask_width() {
        assert!(SubwarpAssignment::single(64).is_ok());
        assert_eq!(
            SubwarpAssignment::single(65),
            Err(PolicyError::WarpTooWide { warp_size: 65 })
        );
        assert_eq!(
            SubwarpAssignment::fully_split(1000),
            Err(PolicyError::WarpTooWide { warp_size: 1000 })
        );
        assert!(SubwarpAssignment::in_order(&[40, 30]).is_err());
    }

    #[test]
    fn masks_round_trip_through_assignments() {
        for a in [
            SubwarpAssignment::single(64).unwrap(),
            SubwarpAssignment::fully_split(32).unwrap(),
            SubwarpAssignment::in_order(&[1, 3, 4]).unwrap(),
            SubwarpAssignment::permuted(&[1, 3], &[3, 0, 1, 2]).unwrap(),
        ] {
            let masks = SubwarpMasks::from(&a);
            assert_eq!(masks.num_subwarps(), a.num_subwarps());
            assert_eq!(masks.warp_size(), a.warp_size());
            assert_eq!(masks.to_assignment(), a);
            // Masks partition the lanes.
            let all = masks.masks().iter().fold(0u64, |acc, &m| {
                assert_eq!(acc & m, 0);
                acc | m
            });
            assert_eq!(all, low_bits(a.warp_size()));
        }
    }

    #[test]
    fn count_distinct_is_a_per_subwarp_popcount() {
        // Lanes 0,1 hit block 3; lanes 2,3 hit blocks 3 and 5.
        let mut bits = [1u64 << 3, 1 << 3, 1 << 3, 1 << 5];
        let in_order = SubwarpMasks::from(&SubwarpAssignment::in_order(&[2, 2]).unwrap());
        assert_eq!(in_order.count_distinct(&bits, |b| b), 3);
        // Interleaved subwarps {0, 2} and {1, 3}: {3} and {3, 5}.
        let rts = SubwarpMasks::from(&SubwarpAssignment::permuted(&[2, 2], &[0, 2, 1, 3]).unwrap());
        assert_eq!(rts.count_distinct(&bits, |b| b), 3);
        // An inactive lane contributes nothing.
        bits[3] = 0;
        assert_eq!(in_order.count_distinct(&bits, |b| b), 2);
        assert_eq!(rts.count_distinct(&bits, |b| b), 2);
        // Lanes past the slice are inactive.
        assert_eq!(in_order.count_distinct(&bits[..1], |b| b), 1);
    }

    #[test]
    fn lanes_by_subwarp_partitions_all_lanes() {
        let a = SubwarpAssignment::in_order(&[1, 3, 4]).unwrap();
        let groups = a.lanes_by_subwarp();
        let mut all: Vec<usize> = groups.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }
}
