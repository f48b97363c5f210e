//! Platform inspection for the Table 1 reproduction, and the cache size
//! the partitioned operators are sized from.

/// Per-core L2 bytes the partitioned hash operators size their tables
/// from: the 2 MiB L2 of the reference host (a 2-vCPU AVX-512 VM; 48 KiB
/// L1d, 2 MiB L2 per core). The max-partition join's part target and the
/// group-by's single-table limit and part bound all derive from it, so
/// the paper's "partition until the table is cache-resident" (§7, §9)
/// has one knob. It is a constant, not a probe of the running machine,
/// so every operator's output and work counters stay host-independent.
pub const L2_BYTES: usize = 2 << 20;

/// Bytes of one part's hash table in the partitioned operators: an
/// eighth of [`L2_BYTES`] (256 KiB), leaving room in L2 for the part's
/// input stream and output. On the reference host, parts of this size
/// were the fastest for both the join (16K inner tuples) and the
/// group-by (8K groups).
pub const PART_TABLE_BYTES: usize = L2_BYTES / 8;

/// A description of the machine the experiments run on, mirroring the rows
/// of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct PlatformReport {
    /// Number of logical CPUs visible to this process.
    pub logical_cpus: usize,
    /// Whether AVX2 (8-lane gathers, no scatters) is available.
    pub has_avx2: bool,
    /// Whether AVX-512F (16-lane gathers and scatters) is available.
    pub has_avx512f: bool,
    /// Whether AVX-512CD (`vpconflictd`) is available.
    pub has_avx512cd: bool,
    /// First CPU model name from `/proc/cpuinfo`, if readable.
    pub model_name: Option<String>,
}

impl PlatformReport {
    /// The widest SIMD register available, in bits.
    pub fn simd_width_bits(&self) -> usize {
        if self.has_avx512f {
            512
        } else if self.has_avx2 {
            256
        } else {
            128
        }
    }
}

/// Inspect the current machine.
pub fn platform_report() -> PlatformReport {
    let logical_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    #[cfg(target_arch = "x86_64")]
    let (has_avx2, has_avx512f, has_avx512cd) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("avx512cd"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (has_avx2, has_avx512f, has_avx512cd) = (false, false, false);

    let model_name = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });

    PlatformReport {
        logical_cpus,
        has_avx2,
        has_avx512f,
        has_avx512cd,
        model_name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_consistent() {
        let r = platform_report();
        assert!(r.logical_cpus >= 1);
        if r.has_avx512f {
            // avx512 implies avx2 on every real CPU
            assert!(r.has_avx2);
            assert_eq!(r.simd_width_bits(), 512);
        }
    }
}
