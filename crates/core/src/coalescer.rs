use crate::subwarp::for_each_lane;
use crate::{PolicyError, SubwarpAssignment, SubwarpMasks, MAX_WARP_LANES};

/// One coalesced memory access produced by the coalescing unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Block-aligned byte address of the access.
    pub block_addr: u64,
    /// Subwarp that generated the access.
    pub sid: u8,
    /// Bitmask of the lanes whose requests were merged into this access.
    pub lane_mask: u64,
}

impl MemAccess {
    /// Number of lane requests satisfied by this access.
    pub fn num_lanes(&self) -> u32 {
        self.lane_mask.count_ones()
    }
}

/// The result of coalescing one warp-wide memory instruction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoalesceResult {
    accesses: Vec<MemAccess>,
}

impl CoalesceResult {
    /// The coalesced accesses in issue order (subwarp-major, then first
    /// appearance within the subwarp).
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Total number of coalesced accesses — the quantity the timing channel
    /// leaks.
    pub fn num_accesses(&self) -> usize {
        self.accesses.len()
    }

    /// Number of accesses issued by subwarp `sid`.
    pub fn accesses_for_subwarp(&self, sid: u8) -> usize {
        self.accesses.iter().filter(|a| a.sid == sid).count()
    }

    /// Consumes the result, returning the access list.
    pub fn into_accesses(self) -> Vec<MemAccess> {
        self.accesses
    }
}

impl IntoIterator for CoalesceResult {
    type Item = MemAccess;
    type IntoIter = std::vec::IntoIter<MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

/// The memory coalescing unit (MCU) of an SM's LD/ST pipeline, extended
/// with the subwarp-id field of paper §IV-D.
///
/// Requests from lanes that share a subwarp id and fall in the same
/// `block_size`-aligned memory block are merged into a single access;
/// requests in different subwarps are never merged, even to the same block.
///
/// ```
/// use rcoal_core::{Coalescer, SubwarpAssignment};
///
/// let c = Coalescer::with_block_size(64)?;
/// let warp = SubwarpAssignment::single(4)?;
/// // All four lanes hit the same 64-byte block: one access.
/// let r = c.coalesce(&warp, &[Some(0), Some(16), Some(32), Some(63)]);
/// assert_eq!(r.num_accesses(), 1);
/// assert_eq!(r.accesses()[0].num_lanes(), 4);
/// # Ok::<(), rcoal_core::PolicyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coalescer {
    block_size: u64,
}

impl Default for Coalescer {
    fn default() -> Self {
        Coalescer {
            block_size: crate::DEFAULT_BLOCK_SIZE,
        }
    }
}

impl Coalescer {
    /// Creates a coalescer with the default 64-byte block granularity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a coalescer with an explicit block granularity.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidBlockSize`] unless `block_size` is a
    /// positive power of two.
    pub fn with_block_size(block_size: u64) -> Result<Self, PolicyError> {
        if block_size == 0 || !block_size.is_power_of_two() {
            return Err(PolicyError::InvalidBlockSize { block_size });
        }
        Ok(Coalescer { block_size })
    }

    /// Coalescing block granularity in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Merges one warp-wide set of lane requests.
    ///
    /// `lane_addrs[lane]` is the byte address requested by `lane`, or
    /// `None` if the lane is inactive (branch divergence). Lanes beyond
    /// `assignment.warp_size()` are ignored; missing lanes are treated as
    /// inactive.
    ///
    /// The returned accesses are ordered subwarp-major and, within a
    /// subwarp, by first requesting lane — deterministic for a given
    /// assignment, as in hardware.
    pub fn coalesce(
        &self,
        assignment: &SubwarpAssignment,
        lane_addrs: &[Option<u64>],
    ) -> CoalesceResult {
        let mut accesses: Vec<MemAccess> = Vec::new();
        for (sid, &mask) in SubwarpMasks::from(assignment).masks().iter().enumerate() {
            let start = accesses.len();
            for_each_lane(mask, |lane| {
                let Some(addr) = lane_addrs.get(lane).copied().flatten() else {
                    return;
                };
                let block_addr = addr & !(self.block_size - 1);
                match accesses[start..]
                    .iter_mut()
                    .find(|a| a.block_addr == block_addr)
                {
                    Some(existing) => existing.lane_mask |= 1 << lane,
                    None => accesses.push(MemAccess {
                        block_addr,
                        sid: sid as u8,
                        lane_mask: 1 << lane,
                    }),
                }
            });
        }
        CoalesceResult { accesses }
    }

    /// Counts coalesced accesses without materializing them — the fast path
    /// used by the functional (timing-free) experiment mode. A thin
    /// wrapper over [`Coalescer::count_masked`].
    pub fn count_accesses(
        &self,
        assignment: &SubwarpAssignment,
        lane_addrs: &[Option<u64>],
    ) -> usize {
        self.count_masked(&SubwarpMasks::from(assignment), lane_addrs)
    }

    /// Counts coalesced accesses of the subwarps `masks` — the number of
    /// distinct (subwarp, block) pairs over the active lanes — without
    /// allocating, in time linear in the warp width.
    ///
    /// The active lanes' blocks are numbered densely through a small
    /// open-addressing table on the stack (a warp of at most
    /// [`MAX_WARP_LANES`] lanes touches at most that many blocks, so the
    /// table is never more than half full), then
    /// [`SubwarpMasks::count_distinct`] counts each subwarp's distinct
    /// ids with one popcount.
    pub fn count_masked(&self, masks: &SubwarpMasks, lane_addrs: &[Option<u64>]) -> usize {
        const SLOTS: usize = 2 * MAX_WARP_LANES;
        let shift = self.block_size.trailing_zeros();
        let mut blocks = [0u64; SLOTS];
        let mut ids = [0u8; SLOTS];
        let mut used: u128 = 0;
        let mut next_id = 0u8;
        let mut bits = [0u64; MAX_WARP_LANES];
        for (bit, addr) in bits.iter_mut().zip(lane_addrs).take(masks.warp_size()) {
            let Some(addr) = addr else {
                continue;
            };
            let block = addr >> shift;
            // Fibonacci hashing: the top 7 bits of the golden-ratio product.
            let mut slot = (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 57) as usize;
            let id = loop {
                if used & (1 << slot) == 0 {
                    used |= 1 << slot;
                    blocks[slot] = block;
                    ids[slot] = next_id;
                    next_id += 1;
                    break ids[slot];
                }
                if blocks[slot] == block {
                    break ids[slot];
                }
                slot = (slot + 1) % SLOTS;
            };
            *bit = 1 << id;
        }
        masks.count_distinct(&bits, |bit| bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoalescingPolicy;
    use rcoal_rng::SeedableRng;
    use rcoal_rng::StdRng;

    fn addrs_fig2() -> [Option<u64>; 4] {
        // Figure 2: threads 1 and 2 share a block; threads 0 and 3 have
        // their own blocks.
        [Some(0), Some(64), Some(96), Some(128)]
    }

    #[test]
    fn figure_2_case_1_single_subwarp_three_accesses() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::single(4).unwrap();
        let r = c.coalesce(&a, &addrs_fig2());
        assert_eq!(r.num_accesses(), 3);
        assert_eq!(r.accesses()[1].lane_mask, 0b0110, "lanes 1 and 2 merged");
    }

    #[test]
    fn figure_2_case_2_two_subwarps_four_accesses() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::in_order(&[2, 2]).unwrap();
        let r = c.coalesce(&a, &addrs_fig2());
        assert_eq!(r.num_accesses(), 4);
        assert_eq!(r.accesses_for_subwarp(0), 2);
        assert_eq!(r.accesses_for_subwarp(1), 2);
    }

    #[test]
    fn figure_10a_fss_rts_four_accesses() {
        // FSS+RTS with subwarps {0,2} and {1,3}: lane 1's and lane 2's
        // shared block lands in different subwarps, so nothing merges.
        let c = Coalescer::new();
        let a = SubwarpAssignment::permuted(&[2, 2], &[0, 2, 1, 3]).unwrap();
        let r = c.coalesce(&a, &addrs_fig2());
        assert_eq!(r.num_accesses(), 4);
    }

    #[test]
    fn figure_10b_rss_rts_three_accesses() {
        // RSS+RTS with sizes (1, 3): the size-3 subwarp recovers the merge
        // of lanes 1 and 2, so only three accesses are generated.
        let c = Coalescer::new();
        let a = SubwarpAssignment::permuted(&[1, 3], &[3, 0, 1, 2]).unwrap();
        assert_eq!(a.lanes_by_subwarp(), vec![vec![3], vec![0, 1, 2]]);
        let r = c.coalesce(&a, &addrs_fig2());
        assert_eq!(r.num_accesses(), 3);
    }

    #[test]
    fn perfectly_coalesced_warp_is_one_access() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::single(32).unwrap();
        let addrs: Vec<Option<u64>> = (0..32).map(|i| Some(i as u64 * 2)).collect();
        assert_eq!(c.coalesce(&a, &addrs).num_accesses(), 1);
    }

    #[test]
    fn disabled_coalescing_is_one_access_per_active_lane() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::fully_split(32).unwrap();
        let addrs: Vec<Option<u64>> = (0..32).map(|_| Some(0)).collect();
        assert_eq!(c.coalesce(&a, &addrs).num_accesses(), 32);
    }

    #[test]
    fn inactive_lanes_are_skipped() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::single(4).unwrap();
        let r = c.coalesce(&a, &[Some(0), None, None, Some(1024)]);
        assert_eq!(r.num_accesses(), 2);
        // Short address slices are treated as all-inactive beyond the end.
        let r = c.coalesce(&a, &[Some(0)]);
        assert_eq!(r.num_accesses(), 1);
    }

    #[test]
    fn different_subwarps_never_merge_same_block() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::in_order(&[2, 2]).unwrap();
        let r = c.coalesce(&a, &[Some(0), Some(0), Some(0), Some(0)]);
        assert_eq!(r.num_accesses(), 2);
    }

    #[test]
    fn block_alignment_respected() {
        let c = Coalescer::with_block_size(128).unwrap();
        let a = SubwarpAssignment::single(2).unwrap();
        // 100 and 127 share the first 128-byte block; 128 does not.
        assert_eq!(c.coalesce(&a, &[Some(100), Some(127)]).num_accesses(), 1);
        assert_eq!(c.coalesce(&a, &[Some(100), Some(128)]).num_accesses(), 2);
        let acc = c.coalesce(&a, &[Some(100), Some(128)]);
        assert_eq!(acc.accesses()[0].block_addr, 0);
        assert_eq!(acc.accesses()[1].block_addr, 128);
    }

    #[test]
    fn invalid_block_sizes_rejected() {
        assert!(Coalescer::with_block_size(0).is_err());
        assert!(Coalescer::with_block_size(48).is_err());
        assert!(Coalescer::with_block_size(64).is_ok());
    }

    #[test]
    fn count_matches_full_coalesce() {
        let c = Coalescer::new();
        let mut rng = StdRng::seed_from_u64(21);
        use rcoal_rng::Rng;
        for _ in 0..100 {
            let policy = CoalescingPolicy::rss_rts(4).unwrap();
            let a = policy.assignment(32, &mut rng).unwrap();
            let addrs: Vec<Option<u64>> = (0..32)
                .map(|_| {
                    if rng.gen_bool(0.9) {
                        Some(rng.gen_range(0u64..1024))
                    } else {
                        None
                    }
                })
                .collect();
            assert_eq!(
                c.count_accesses(&a, &addrs),
                c.coalesce(&a, &addrs).num_accesses()
            );
        }
    }

    #[test]
    fn lane_masks_partition_active_lanes() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::in_order(&[16, 16]).unwrap();
        let addrs: Vec<Option<u64>> = (0..32).map(|i| Some((i as u64 % 5) * 64)).collect();
        let r = c.coalesce(&a, &addrs);
        let combined: u64 = r.accesses().iter().fold(0, |m, a| {
            assert_eq!(m & a.lane_mask, 0, "lane covered twice");
            m | a.lane_mask
        });
        assert_eq!(combined, (1u64 << 32) - 1);
    }
}
