use crate::cipher::{Aes128, Block, LookupTrace};
use rcoal_gpu_sim::{Kernel, TraceInstr, WarpTrace};

/// Memory layout of the AES kernel's tables and buffers in the simulated
/// global address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableLayout {
    /// Base address of T0; T1–T4 follow at 1 KiB strides.
    pub table_base: u64,
    /// Bytes per table entry (4 for `u32` T-tables).
    pub entry_size: u64,
    /// Base address of the plaintext buffer.
    pub input_base: u64,
    /// Base address of the ciphertext buffer.
    pub output_base: u64,
}

impl Default for TableLayout {
    fn default() -> Self {
        TableLayout {
            // 256-aligned so each 1 KiB table occupies whole interleave
            // chunks, matching how cudaMalloc'd constants land.
            table_base: 0x1_0000,
            entry_size: 4,
            input_base: 0x10_0000,
            output_base: 0x20_0000,
        }
    }
}

impl TableLayout {
    /// Address of entry `index` of table `table` (0–3 = T-tables, 4 = T4).
    pub fn lookup_addr(&self, table: u8, index: u8) -> u64 {
        self.table_base + u64::from(table) * 1024 + u64::from(index) * self.entry_size
    }
}

/// Statistics tag carried by last-round (T4) loads: `ROUND_TAG_BASE + j`
/// tags the load for ciphertext byte `j`; rounds 1–9 use tags 1–9 and the
/// input load uses tag 0.
pub const LAST_ROUND_TAG_BASE: u16 = 16;

/// Tag of the ciphertext store at the very end of the kernel.
pub const OUTPUT_TAG: u16 = 15;

/// Statistics tag of round `r`'s loads (`r ∈ 1..=9`), or of the 16
/// per-byte last-round loads for `r = 10`.
pub fn round_tags(r: u16) -> std::ops::Range<u16> {
    if r == 10 {
        LAST_ROUND_TAG_BASE..LAST_ROUND_TAG_BASE + 16
    } else {
        r..r + 1
    }
}

/// The GPU AES-128 encryption kernel model.
///
/// Mirrors the CUDA implementation the paper attacks (§II-B): the
/// plaintext is split into 16-byte *lines*, one line per thread, 32
/// threads per warp, line-to-thread mapping sequential. All threads of a
/// warp run in lock step, so lookup `j` of round `r` across the warp forms
/// one warp-wide load that the coalescing unit merges.
///
/// ```
/// use rcoal_aes::AesGpuKernel;
/// use rcoal_gpu_sim::Kernel;
///
/// let kernel = AesGpuKernel::new(&[0u8; 16], vec![[0u8; 16]; 64], 32);
/// assert_eq!(kernel.num_warps(), 2);
/// assert_eq!(kernel.ciphertexts().len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct AesGpuKernel {
    aes: Aes128,
    lines: Vec<Block>,
    ciphertexts: Vec<Block>,
    traces: Vec<LookupTrace>,
    /// Per-warp instruction traces, generated once at construction;
    /// [`Kernel::trace`] hands out borrows so each of the hundreds of
    /// launches per experiment copies nothing.
    warp_traces: Vec<WarpTrace>,
    warp_size: usize,
    layout: TableLayout,
    /// ALU cycles between dependent lookups.
    compute_per_lookup: u32,
    /// ALU cycles of key-XOR / bookkeeping per round.
    round_overhead: u32,
}

impl AesGpuKernel {
    /// Builds the kernel for `lines` of plaintext under `key`, encrypting
    /// each line eagerly so ciphertexts and memory traces are available
    /// up front.
    pub fn new(key: &[u8; 16], lines: Vec<Block>, warp_size: usize) -> Self {
        Self::with_layout(key, lines, warp_size, TableLayout::default())
    }

    /// Like [`AesGpuKernel::new`] with an explicit memory layout.
    pub fn with_layout(
        key: &[u8; 16],
        lines: Vec<Block>,
        warp_size: usize,
        layout: TableLayout,
    ) -> Self {
        Self::build(Aes128::new(key), lines, warp_size, layout)
    }

    /// Like [`AesGpuKernel::new`] over an already expanded key schedule,
    /// so a stream of launches under one key expands it once.
    pub fn from_cipher(aes: Aes128, lines: Vec<Block>, warp_size: usize) -> Self {
        Self::build(aes, lines, warp_size, TableLayout::default())
    }

    fn build(aes: Aes128, lines: Vec<Block>, warp_size: usize, layout: TableLayout) -> Self {
        let mut ciphertexts = Vec::with_capacity(lines.len());
        let mut traces = Vec::with_capacity(lines.len());
        for &line in &lines {
            let (ct, tr) = aes.encrypt_block_traced(line);
            ciphertexts.push(ct);
            traces.push(tr);
        }
        let mut kernel = AesGpuKernel {
            aes,
            lines,
            ciphertexts,
            traces,
            warp_traces: Vec::new(),
            warp_size: warp_size.max(1),
            layout,
            compute_per_lookup: 2,
            round_overhead: 8,
        };
        kernel.warp_traces = (0..kernel.num_warps())
            .map(|w| kernel.build_trace(w))
            .collect();
        kernel
    }

    /// The expanded key schedule in use.
    pub fn aes(&self) -> &Aes128 {
        &self.aes
    }

    /// Ciphertext of every line, in line order.
    pub fn ciphertexts(&self) -> &[Block] {
        &self.ciphertexts
    }

    /// Plaintext lines.
    pub fn lines(&self) -> &[Block] {
        &self.lines
    }

    /// The memory layout.
    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    /// Number of threads per warp.
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// Last-round T4 indices `t_j` per line: `indices[line][j]`.
    pub fn last_round_indices(&self) -> Vec<[u8; 16]> {
        self.traces
            .iter()
            .map(LookupTrace::last_round_indices)
            .collect()
    }

    /// Global line indices handled by warp `warp_id`.
    pub fn warp_lines(&self, warp_id: usize) -> std::ops::Range<usize> {
        let start = warp_id * self.warp_size;
        start..(start + self.warp_size).min(self.lines.len())
    }

    fn build_trace(&self, warp_id: usize) -> WarpTrace {
        let lines = self.warp_lines(warp_id);
        let width = lines.len();
        let mut trace = WarpTrace::default();

        // Load the plaintext lines (16 B per thread, consecutive lines —
        // coalesces well, like the real kernel's global reads).
        let input: Vec<Option<u64>> = lines
            .clone()
            .map(|l| Some(self.layout.input_base + l as u64 * 16))
            .collect();
        trace.push(TraceInstr::load_tagged(input, 0));
        trace.push(TraceInstr::compute(self.round_overhead));

        for r in 1..=10u16 {
            for j in 0..16usize {
                let addrs: Vec<Option<u64>> = lines
                    .clone()
                    .map(|l| {
                        let lk = self.traces[l].rounds[usize::from(r) - 1][j];
                        Some(self.layout.lookup_addr(lk.table, lk.index))
                    })
                    .collect();
                let tag = if r == 10 {
                    LAST_ROUND_TAG_BASE + j as u16
                } else {
                    r
                };
                trace.push(TraceInstr::load_tagged(addrs, tag));
                trace.push(TraceInstr::compute(self.compute_per_lookup));
            }
            trace.push(TraceInstr::compute(self.round_overhead));
            trace.push(TraceInstr::RoundMark { round: r });
        }

        // Store the ciphertext lines.
        let output: Vec<Option<u64>> = lines
            .clone()
            .map(|l| Some(self.layout.output_base + l as u64 * 16))
            .collect();
        trace.push(TraceInstr::load_tagged(output, OUTPUT_TAG));
        debug_assert_eq!(width, trace.instrs().len().min(width).min(width).max(width));
        trace
    }
}

impl Kernel for AesGpuKernel {
    fn num_warps(&self) -> usize {
        self.lines.len().div_ceil(self.warp_size)
    }

    fn warp_width(&self, warp_id: usize) -> usize {
        self.warp_lines(warp_id).len()
    }

    fn trace(&self, warp_id: usize) -> &WarpTrace {
        &self.warp_traces[warp_id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_gpu_sim::TraceInstr;

    fn kernel(n_lines: usize) -> AesGpuKernel {
        let lines: Vec<Block> = (0..n_lines)
            .map(|i| {
                let mut b = [0u8; 16];
                for (k, x) in b.iter_mut().enumerate() {
                    *x = (i * 31 + k * 7) as u8;
                }
                b
            })
            .collect();
        AesGpuKernel::new(b"rcoal-test-key!!", lines, 32)
    }

    #[test]
    fn warp_partitioning() {
        let k = kernel(100);
        assert_eq!(k.num_warps(), 4);
        assert_eq!(k.warp_width(0), 32);
        assert_eq!(k.warp_width(3), 4, "partial last warp");
        assert_eq!(k.warp_lines(3), 96..100);
    }

    #[test]
    fn ciphertexts_match_direct_encryption() {
        let k = kernel(8);
        let aes = Aes128::new(b"rcoal-test-key!!");
        for (line, ct) in k.lines().iter().zip(k.ciphertexts()) {
            assert_eq!(aes.encrypt_block(*line), *ct);
        }
    }

    #[test]
    fn trace_has_161_loads_per_warp() {
        let k = kernel(32);
        let t = k.trace(0);
        let loads = t
            .instrs()
            .iter()
            .filter(|i| matches!(i, TraceInstr::Load { .. }))
            .count();
        // 1 input + 160 table lookups + 1 output store.
        assert_eq!(loads, 162);
        let marks = t
            .instrs()
            .iter()
            .filter(|i| matches!(i, TraceInstr::RoundMark { .. }))
            .count();
        assert_eq!(marks, 10);
    }

    #[test]
    fn last_round_loads_hit_t4_with_per_byte_tags() {
        let k = kernel(32);
        let t = k.trace(0);
        let t4_lo = k.layout().lookup_addr(4, 0);
        let t4_hi = k.layout().lookup_addr(4, 255);
        let mut seen_tags = Vec::new();
        for instr in t.instrs() {
            if let TraceInstr::Load { addrs, tag } = instr {
                if *tag >= LAST_ROUND_TAG_BASE {
                    seen_tags.push(*tag);
                    for a in addrs.iter().flatten() {
                        assert!(
                            (t4_lo..=t4_hi).contains(a),
                            "last-round load outside T4: {a:#x}"
                        );
                    }
                }
            }
        }
        let expect: Vec<u16> = (0..16).map(|j| LAST_ROUND_TAG_BASE + j).collect();
        assert_eq!(seen_tags, expect);
    }

    #[test]
    fn last_round_addresses_encode_t_j() {
        let k = kernel(32);
        let t = k.trace(0);
        let indices = k.last_round_indices();
        for instr in t.instrs() {
            if let TraceInstr::Load { addrs, tag } = instr {
                if *tag >= LAST_ROUND_TAG_BASE {
                    let j = usize::from(tag - LAST_ROUND_TAG_BASE);
                    for (lane, a) in addrs.iter().enumerate() {
                        let a = a.unwrap();
                        let idx = ((a - k.layout().lookup_addr(4, 0)) / 4) as u8;
                        assert_eq!(idx, indices[lane][j]);
                    }
                }
            }
        }
    }

    #[test]
    fn round_tags_helper() {
        assert_eq!(round_tags(3), 3..4);
        assert_eq!(round_tags(10), 16..32);
    }

    #[test]
    fn partial_warp_trace_has_partial_lanes() {
        let k = kernel(40);
        let t = k.trace(1);
        if let TraceInstr::Load { addrs, .. } = &t.instrs()[0] {
            assert_eq!(addrs.len(), 8);
        } else {
            panic!("first instruction should be the input load");
        }
    }
}
