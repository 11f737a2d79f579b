//! # rcoal-workload
//!
//! The workload registry: the timing channel generalized over
//! table-based GPU kernels.
//!
//! The RCoal paper analyzes AES-128, but its channel model — lock-step
//! warps issuing table lookups whose indices are a byte-local function
//! of secret key material — fits any table-based cipher kernel. This
//! crate packages that abstraction as [`KernelWorkload`]: a named
//! workload that builds a GPU [`Kernel`] from a key and input lines,
//! exposes the attacker-observable text, the attacked subkey, the
//! attack's [`TableOracle`], and the table geometry the analytical
//! [`SecurityModel`](../rcoal_theory) needs (`R` blocks per table,
//! table count, loads per round).
//!
//! Registered workloads:
//!
//! - `aes` — the paper's AES-128 last-round attack (ciphertext
//!   observed, `t_j = S⁻¹[c_j ⊕ k_j]`, R = 16). Byte-identical to the
//!   pre-registry AES pipeline.
//! - `present80` — PRESENT-80 (CHES 2007) modeled as eight 256-entry
//!   byte tables; known-plaintext first-round attack on the whitening
//!   key `K1` (R = 32).
//! - `gift64` — GIFT-64-128 (CHES 2017), same byte-table view with a
//!   documented round-1 whitening model (R = 16).
//! - `rectangle` — RECTANGLE-128 bit-sliced rows packed into byte
//!   tables; first-round attack on `RK0` (R = 8).
//! - `gather` — a *non-cryptographic* irregular-access control whose
//!   indices hash the whole input line: data-dependent, key-free. A
//!   sound audit must gate it `secure`; it exists to falsify the
//!   leakage audit's positive direction.

// Library code must propagate failures as typed errors, never panic;
// test modules are exempt (the harness is the panic handler there).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod gather;
pub mod gift;
pub mod present;
pub mod rectangle;
mod table_kernel;

pub use table_kernel::{TableKernel, INPUT_BASE, LOADS_PER_ROUND, OUTPUT_BASE, TABLE_BASE};

use gather::{gather_round_indices, GATHER_ROUNDS};
use gift::Gift64;
use present::Present80;
use rcoal_aes::{Aes128, AesGpuKernel, Block};
use rcoal_attack::{aes_oracle, TableOracle, XorWhiteningOracle};
use rcoal_gpu_sim::Kernel;
use rectangle::Rectangle128;
use std::sync::Arc;

/// Table geometry of a workload, in the units the paper's analytical
/// model speaks: 64-byte coalescing blocks and 32-thread warps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadGeometry {
    /// Coalescing blocks per table — the `R` of the security model
    /// (`256 × entry_bytes / 64`).
    pub table_size_r: usize,
    /// Number of distinct tables the kernel reads.
    pub tables: usize,
    /// Threads per warp at the paper's configuration (`N = 32`).
    pub threads_per_warp: usize,
    /// Table lookups per round (AES: 16; 64-bit-block ciphers: 8).
    pub loads_per_round: usize,
    /// Rounds of table lookups in the kernel trace.
    pub rounds: usize,
    /// Cipher block size in bytes (16 for AES, 8 for the others).
    pub block_bytes: usize,
    /// Cipher key size in bytes (0 for the keyless control).
    pub key_bytes: usize,
    /// Subkey bytes the timing attack sweeps.
    pub attack_bytes: usize,
    /// Bytes per table entry.
    pub entry_bytes: usize,
}

impl WorkloadGeometry {
    /// Table entries sharing one 64-byte coalescing block.
    pub fn entries_per_block(&self) -> usize {
        64 / self.entry_bytes.max(1)
    }

    /// `log2(entries_per_block)` — the shift of a
    /// [`XorWhiteningOracle`] over this geometry.
    pub fn oracle_shift(&self) -> u32 {
        self.entries_per_block().trailing_zeros()
    }
}

/// A GPU kernel instance built by a workload: a simulator [`Kernel`]
/// that also exposes the per-line text the attacker observes
/// (ciphertexts for AES's last-round attack, plaintext lines for the
/// known-plaintext first-round attacks).
pub trait WorkloadKernel: Kernel + Send + Sync {
    /// Attacker-observable 16-byte lines, one per thread; the attack's
    /// oracle consumes byte columns of these.
    fn attack_text(&self) -> &[Block];
}

/// Builds a workload's kernel for `(lines, warp_size)` under the key it
/// was made for (see [`KernelWorkload::keyed`]).
pub type KernelBuilder = Box<dyn Fn(Vec<Block>, usize) -> Box<dyn WorkloadKernel> + Send + Sync>;

/// A registered table-based workload: everything the experiment
/// pipeline, the attack, the audit, and the theory need to treat a
/// kernel family generically.
pub trait KernelWorkload: Send + Sync {
    /// Registry name (stable; serialized into scenarios and run caches).
    fn name(&self) -> &'static str;

    /// One-line human description.
    fn description(&self) -> &'static str;

    /// Table geometry (feeds the analytical security model).
    fn geometry(&self) -> WorkloadGeometry;

    /// Binds `key` (workloads with shorter keys use a prefix; the
    /// keyless control ignores it), expanding its schedule once: the
    /// returned builder makes the kernel for any `(lines, warp_size)`
    /// without redoing the key work. Experiment runs and streaming
    /// sources hold one builder per key.
    fn keyed(&self, key: &[u8; 16]) -> KernelBuilder;

    /// Builds the kernel for `lines` under `key` — a one-off
    /// `self.keyed(key)(lines, warp_size)`.
    fn build_kernel(
        &self,
        key: &[u8; 16],
        lines: Vec<Block>,
        warp_size: usize,
    ) -> Box<dyn WorkloadKernel> {
        self.keyed(key)(lines, warp_size)
    }

    /// The subkey the timing attack recovers, zero-padded to 16 bytes
    /// (ground truth for scoring; the attack itself never reads it).
    fn attacked_subkey(&self, key: &[u8; 16]) -> [u8; 16];

    /// The attack's (observed byte, guess) → block-index oracle.
    fn oracle(&self) -> Arc<dyn TableOracle>;

    /// Round mark `r` such that `cycles_after_round(r)` isolates the
    /// final round + store (the AES attacker's §II-C segment).
    fn timing_boundary_round(&self) -> u16 {
        self.geometry().rounds.saturating_sub(1) as u16
    }

    /// Whether the analytical security model's `(N, R)` predictions
    /// apply (false for the key-free control, whose "leakage" the
    /// theory has nothing to say about).
    fn theory_comparable(&self) -> bool {
        true
    }
}

fn pad16(bytes: &[u8]) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..bytes.len().min(16)].copy_from_slice(&bytes[..bytes.len().min(16)]);
    out
}

fn block8(line: &Block) -> [u8; 8] {
    let mut b = [0u8; 8];
    b.copy_from_slice(&line[..8]);
    b
}

/// A builder of [`TableKernel`]s over one expanded 64-bit-block cipher:
/// `round_indices(cipher, text)` gives the per-round table indices of
/// one line's first 8 bytes.
fn table_builder<C: Send + Sync + 'static>(
    cipher: C,
    entry_bytes: u64,
    round_indices: fn(&C, [u8; 8]) -> Vec<[u8; 8]>,
) -> KernelBuilder {
    Box::new(move |lines, warp_size| {
        let f = |line: &Block| round_indices(&cipher, block8(line));
        Box::new(TableKernel::new(lines, warp_size, entry_bytes, &f))
    })
}

/// The paper's AES-128 workload, wrapping [`AesGpuKernel`] unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct AesWorkload;

impl WorkloadKernel for AesGpuKernel {
    fn attack_text(&self) -> &[Block] {
        self.ciphertexts()
    }
}

impl KernelWorkload for AesWorkload {
    fn name(&self) -> &'static str {
        "aes"
    }

    fn description(&self) -> &'static str {
        "AES-128 T-table kernel; last-round attack on K10 (the paper's workload)"
    }

    fn geometry(&self) -> WorkloadGeometry {
        WorkloadGeometry {
            table_size_r: 16,
            tables: 5,
            threads_per_warp: 32,
            loads_per_round: 16,
            rounds: 10,
            block_bytes: 16,
            key_bytes: 16,
            attack_bytes: 16,
            entry_bytes: 4,
        }
    }

    fn keyed(&self, key: &[u8; 16]) -> KernelBuilder {
        let aes = Aes128::new(key);
        Box::new(move |lines, warp_size| {
            Box::new(AesGpuKernel::from_cipher(aes.clone(), lines, warp_size))
        })
    }

    fn attacked_subkey(&self, key: &[u8; 16]) -> [u8; 16] {
        Aes128::new(key).last_round_key()
    }

    fn oracle(&self) -> Arc<dyn TableOracle> {
        aes_oracle()
    }
}

/// PRESENT-80 as a byte-table kernel (known-plaintext attack on `K1`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Present80Workload;

impl KernelWorkload for Present80Workload {
    fn name(&self) -> &'static str {
        "present80"
    }

    fn description(&self) -> &'static str {
        "PRESENT-80 byte-table kernel; first-round attack on whitening key K1"
    }

    fn geometry(&self) -> WorkloadGeometry {
        WorkloadGeometry {
            table_size_r: 32,
            tables: 8,
            threads_per_warp: 32,
            loads_per_round: 8,
            rounds: 31,
            block_bytes: 8,
            key_bytes: 10,
            attack_bytes: 8,
            entry_bytes: 8,
        }
    }

    fn keyed(&self, key: &[u8; 16]) -> KernelBuilder {
        let mut k80 = [0u8; 10];
        k80.copy_from_slice(&key[..10]);
        table_builder(Present80::new(&k80), 8, Present80::round_index_bytes)
    }

    fn attacked_subkey(&self, key: &[u8; 16]) -> [u8; 16] {
        let mut k80 = [0u8; 10];
        k80.copy_from_slice(&key[..10]);
        pad16(&Present80::new(&k80).whitening())
    }

    fn oracle(&self) -> Arc<dyn TableOracle> {
        Arc::new(XorWhiteningOracle::new(3, 8))
    }
}

/// GIFT-64-128 as a byte-table kernel (modeled round-1 whitening; see
/// [`gift`]'s module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gift64Workload;

impl KernelWorkload for Gift64Workload {
    fn name(&self) -> &'static str {
        "gift64"
    }

    fn description(&self) -> &'static str {
        "GIFT-64-128 byte-table kernel; first-round attack on the modeled whitening mask"
    }

    fn geometry(&self) -> WorkloadGeometry {
        WorkloadGeometry {
            table_size_r: 16,
            tables: 8,
            threads_per_warp: 32,
            loads_per_round: 8,
            rounds: 28,
            block_bytes: 8,
            key_bytes: 16,
            attack_bytes: 8,
            entry_bytes: 4,
        }
    }

    fn keyed(&self, key: &[u8; 16]) -> KernelBuilder {
        table_builder(Gift64::new(key), 4, Gift64::round_index_bytes)
    }

    fn attacked_subkey(&self, key: &[u8; 16]) -> [u8; 16] {
        pad16(&Gift64::new(key).whitening())
    }

    fn oracle(&self) -> Arc<dyn TableOracle> {
        Arc::new(XorWhiteningOracle::new(4, 8))
    }
}

/// RECTANGLE-128 as a byte-table kernel (first-round attack on `RK0`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RectangleWorkload;

impl KernelWorkload for RectangleWorkload {
    fn name(&self) -> &'static str {
        "rectangle"
    }

    fn description(&self) -> &'static str {
        "RECTANGLE-128 byte-table kernel; first-round attack on round key RK0"
    }

    fn geometry(&self) -> WorkloadGeometry {
        WorkloadGeometry {
            table_size_r: 8,
            tables: 8,
            threads_per_warp: 32,
            loads_per_round: 8,
            rounds: 25,
            block_bytes: 8,
            key_bytes: 16,
            attack_bytes: 8,
            entry_bytes: 2,
        }
    }

    fn keyed(&self, key: &[u8; 16]) -> KernelBuilder {
        table_builder(Rectangle128::new(key), 2, Rectangle128::round_index_bytes)
    }

    fn attacked_subkey(&self, key: &[u8; 16]) -> [u8; 16] {
        pad16(&Rectangle128::new(key).whitening())
    }

    fn oracle(&self) -> Arc<dyn TableOracle> {
        Arc::new(XorWhiteningOracle::new(5, 8))
    }
}

/// The key-free irregular-access control (see [`gather`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GatherWorkload;

impl KernelWorkload for GatherWorkload {
    fn name(&self) -> &'static str {
        "gather"
    }

    fn description(&self) -> &'static str {
        "key-free hash-gather control; a sound audit must gate it secure"
    }

    fn geometry(&self) -> WorkloadGeometry {
        WorkloadGeometry {
            table_size_r: 16,
            tables: 8,
            threads_per_warp: 32,
            loads_per_round: 8,
            rounds: GATHER_ROUNDS,
            block_bytes: 16,
            key_bytes: 0,
            attack_bytes: 8,
            entry_bytes: 4,
        }
    }

    fn keyed(&self, _key: &[u8; 16]) -> KernelBuilder {
        Box::new(|lines, warp_size| {
            Box::new(TableKernel::new(lines, warp_size, 4, &gather_round_indices))
        })
    }

    fn attacked_subkey(&self, _key: &[u8; 16]) -> [u8; 16] {
        [0u8; 16]
    }

    fn oracle(&self) -> Arc<dyn TableOracle> {
        Arc::new(XorWhiteningOracle::new(4, 8))
    }

    fn theory_comparable(&self) -> bool {
        false
    }
}

static AES: AesWorkload = AesWorkload;
static PRESENT80: Present80Workload = Present80Workload;
static GIFT64: Gift64Workload = Gift64Workload;
static RECTANGLE: RectangleWorkload = RectangleWorkload;
static GATHER: GatherWorkload = GatherWorkload;

static REGISTRY: [&dyn KernelWorkload; 5] = [&AES, &PRESENT80, &GIFT64, &RECTANGLE, &GATHER];

/// All registered workloads, in registry order (`aes` first).
pub fn registry() -> &'static [&'static dyn KernelWorkload] {
    &REGISTRY
}

/// Looks a workload up by its registry name.
pub fn find(name: &str) -> Option<&'static dyn KernelWorkload> {
    registry().iter().copied().find(|w| w.name() == name)
}

/// Comma-separated registry names (for error messages and help text).
pub fn names() -> String {
    registry()
        .iter()
        .map(|w| w.name())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_gpu_sim::TraceInstr;

    fn lines(n: usize) -> Vec<Block> {
        (0..n)
            .map(|i| {
                let mut b = [0u8; 16];
                for (k, x) in b.iter_mut().enumerate() {
                    *x = (i * 53 + k * 17) as u8;
                }
                b
            })
            .collect()
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut seen = std::collections::HashSet::new();
        for w in registry() {
            assert!(seen.insert(w.name()), "duplicate name {}", w.name());
            assert!(find(w.name()).is_some());
        }
        assert_eq!(registry().len(), 5);
        assert!(find("des").is_none());
        assert!(names().starts_with("aes, "));
    }

    #[test]
    fn geometries_are_self_consistent() {
        for w in registry() {
            let g = w.geometry();
            assert_eq!(
                g.table_size_r,
                256 * g.entry_bytes / 64,
                "{}: R must be 256 entries / entries-per-block",
                w.name()
            );
            assert_eq!(g.threads_per_warp, 32);
            assert!(g.attack_bytes <= 16);
            assert_eq!(w.oracle().key_bytes(), g.attack_bytes, "{}", w.name());
            assert!(usize::from(w.timing_boundary_round()) < g.rounds);
        }
    }

    #[test]
    fn aes_workload_wraps_the_reference_kernel() {
        let key = *b"rcoal-test-key!!";
        let l = lines(32);
        let wk = AES.build_kernel(&key, l.clone(), 32);
        let reference = AesGpuKernel::new(&key, l, 32);
        assert_eq!(wk.num_warps(), reference.num_warps());
        assert_eq!(wk.attack_text(), reference.ciphertexts());
        assert_eq!(wk.trace(0), reference.trace(0), "byte-identical traces");
        assert_eq!(
            AES.attacked_subkey(&key),
            Aes128::new(&key).last_round_key()
        );
        assert_eq!(AES.timing_boundary_round(), 9);
    }

    #[test]
    fn cipher_kernels_round_one_indices_match_the_oracle_model() {
        // For each whitening workload the round-1 load of byte j must
        // touch the block its oracle predicts for (text_j, subkey_j).
        let key = *b"0123456789abcdef";
        let l = lines(32);
        for name in ["present80", "gift64", "rectangle"] {
            let w = find(name).unwrap();
            let g = w.geometry();
            let kernel = w.build_kernel(&key, l.clone(), 32);
            let oracle = w.oracle();
            let subkey = w.attacked_subkey(&key);
            let text = kernel.attack_text().to_vec();
            let entry = g.entry_bytes as u64;
            let stride = 256 * entry;
            for instr in kernel.trace(0).instrs() {
                if let TraceInstr::Load { addrs, tag } = instr {
                    if *tag >= rcoal_aes::LAST_ROUND_TAG_BASE {
                        let j = usize::from(tag - rcoal_aes::LAST_ROUND_TAG_BASE);
                        for (lane, a) in addrs.iter().enumerate() {
                            let a = a.unwrap();
                            let within = a - (TABLE_BASE + j as u64 * stride);
                            let block = within / 64;
                            assert_eq!(
                                block,
                                oracle.block_of(text[lane][j], subkey[j]),
                                "{name} byte {j} lane {lane}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn keyed_builders_match_one_off_builds() {
        let key = *b"0123456789abcdef";
        for w in registry() {
            let build = w.keyed(&key);
            for n in [1, 32, 40] {
                let (a, b) = (build(lines(n), 32), w.build_kernel(&key, lines(n), 32));
                assert_eq!(a.attack_text(), b.attack_text(), "{}", w.name());
                for warp in 0..a.num_warps() {
                    assert_eq!(a.trace(warp), b.trace(warp), "{} warp {warp}", w.name());
                }
            }
        }
    }

    #[test]
    fn gather_control_is_key_free() {
        let l = lines(32);
        let a = GATHER.build_kernel(&[0u8; 16], l.clone(), 32);
        let b = GATHER.build_kernel(b"completely other", l.clone(), 32);
        assert_eq!(a.trace(0), b.trace(0), "key must not influence the trace");
        assert_eq!(a.attack_text(), &l[..]);
        assert!(!GATHER.theory_comparable());
        assert_eq!(GATHER.attacked_subkey(b"any key at all!!"), [0u8; 16]);
    }

    #[test]
    fn whitening_workloads_are_theory_comparable() {
        for name in ["aes", "present80", "gift64", "rectangle"] {
            assert!(find(name).unwrap().theory_comparable(), "{name}");
        }
    }
}
