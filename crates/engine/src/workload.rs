//! Workload generators: parameterized request patterns materialized as
//! [`Trace`]s.
//!
//! These are the synthetic workloads the evaluation replays through the
//! sharded engine — streaming reads (inference-like), strided scans,
//! dependent pointer chases (the worst case for row-buffer locality),
//! attacker hammer loops, and multi-tenant interleaves of any of the
//! above. All generators are deterministic: the same spec (and seed)
//! always yields the same trace, so replay results are reproducible.

use dlk_memctrl::Trace;

/// A deterministic workload specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// `count` sequential reads of `len` bytes from `base` — streaming
    /// traffic (e.g. a weight image scan).
    Sequential {
        /// First byte address.
        base: u64,
        /// Bytes per read.
        len: usize,
        /// Number of reads.
        count: usize,
    },
    /// `count` reads of `len` bytes advancing `stride` bytes per
    /// access — column scans, tensor slices.
    Strided {
        /// First byte address.
        base: u64,
        /// Address increment per access.
        stride: u64,
        /// Bytes per read.
        len: usize,
        /// Number of reads.
        count: usize,
    },
    /// `count` dependent single-`len` reads whose addresses chain
    /// through a deterministic mix of the previous address — a pointer
    /// chase over `[base, base + span)`, the worst case for row-buffer
    /// locality. Addresses are aligned to `len`, so no access spans a
    /// row when `len` divides the row size.
    PointerChase {
        /// Region start (should be `len`-aligned).
        base: u64,
        /// Region size in bytes.
        span: u64,
        /// Bytes per read.
        len: usize,
        /// Number of reads.
        count: usize,
        /// Chain seed.
        seed: u64,
    },
    /// The classic attacker loop: `iterations` alternating untrusted
    /// reads of two addresses (same bank, different rows, to force an
    /// activation per access).
    HammerLoop {
        /// First aggressor address.
        addr_a: u64,
        /// Second aggressor address.
        addr_b: u64,
        /// Alternation count (two reads each).
        iterations: usize,
    },
}

impl Workload {
    /// Materializes the workload as a replayable trace.
    pub fn trace(&self) -> Trace {
        match *self {
            Workload::Sequential { base, len, count } => {
                Trace::sequential_reads(base, len as u64, len, count)
            }
            Workload::Strided { base, stride, len, count } => {
                Trace::sequential_reads(base, stride, len, count)
            }
            Workload::PointerChase { base, span, len, count, seed } => {
                let len = len.max(1);
                let slots = (span / len as u64).max(1);
                let mut state = seed;
                (0..count)
                    .map(|_| {
                        state = splitmix64(state);
                        let addr = base + (state % slots) * len as u64;
                        dlk_memctrl::TraceOp::Read { addr, len }
                    })
                    .collect()
            }
            Workload::HammerLoop { addr_a, addr_b, iterations } => {
                Trace::hammer_pair(addr_a, addr_b, iterations)
            }
        }
    }

    /// Materializes several tenants' workloads and interleaves them
    /// round-robin into one multi-tenant trace (each tenant's internal
    /// order preserved).
    pub fn multi_tenant(tenants: &[Workload]) -> Trace {
        let traces: Vec<Trace> = tenants.iter().map(Workload::trace).collect();
        Trace::interleave(&traces)
    }
}

/// splitmix64 — the same deterministic mixer the disturbance model
/// uses for unplanned flip bits.
fn splitmix64(state: u64) -> u64 {
    let mut x = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_memctrl::TraceOp;

    #[test]
    fn sequential_is_stride_of_len() {
        let trace = Workload::Sequential { base: 100, len: 4, count: 3 }.trace();
        assert_eq!(
            trace.ops().to_vec(),
            [
                TraceOp::Read { addr: 100, len: 4 },
                TraceOp::Read { addr: 104, len: 4 },
                TraceOp::Read { addr: 108, len: 4 },
            ]
        );
    }

    #[test]
    fn strided_advances_by_stride() {
        let trace = Workload::Strided { base: 0, stride: 64, len: 2, count: 3 }.trace();
        let addrs: Vec<u64> = trace.ops().iter().map(|op| op.addr()).collect();
        assert_eq!(addrs, vec![0, 64, 128]);
    }

    #[test]
    fn pointer_chase_is_deterministic_aligned_and_in_bounds() {
        let spec = Workload::PointerChase { base: 256, span: 1024, len: 8, count: 50, seed: 7 };
        let a = spec.trace();
        assert_eq!(a, spec.trace(), "same seed, same chase");
        let mut distinct = std::collections::HashSet::new();
        for op in a.ops() {
            let TraceOp::Read { addr, len } = op else { panic!("chase only reads") };
            assert!(addr >= 256 && addr + len as u64 <= 256 + 1024);
            assert_eq!(addr % 8, 0, "aligned to len");
            distinct.insert(addr);
        }
        assert!(distinct.len() > 10, "chase wanders: {} distinct addrs", distinct.len());
        let b = Workload::PointerChase { base: 256, span: 1024, len: 8, count: 50, seed: 8 };
        assert_ne!(a, b.trace(), "different seed, different chase");
    }

    #[test]
    fn hammer_loop_is_untrusted() {
        let trace = Workload::HammerLoop { addr_a: 0, addr_b: 128, iterations: 3 }.trace();
        assert_eq!(trace.len(), 6);
        assert!(trace.untrusted);
    }

    #[test]
    fn multi_tenant_interleaves_round_robin() {
        let mix = Workload::multi_tenant(&[
            Workload::Sequential { base: 0, len: 1, count: 2 },
            Workload::Sequential { base: 1000, len: 1, count: 2 },
        ]);
        let addrs: Vec<u64> = mix.ops().iter().map(|op| op.addr()).collect();
        assert_eq!(addrs, vec![0, 1000, 1, 1001]);
    }
}
