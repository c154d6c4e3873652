//! Device profiles — Table 1 of the paper, plus the microarchitectural
//! constants the simulator needs.
//!
//! The published numbers (cores, peak/measured bandwidth, peak DP rate) come
//! straight from the paper; the remaining constants (texture cache geometry,
//! effective integer throughput, launch overhead) are calibration parameters
//! documented in DESIGN.md.

/// Static description of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name.
    pub name: &'static str,
    /// CUDA compute capability, e.g. "2.0".
    pub compute_capability: &'static str,
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Peak (pin) memory bandwidth in GB/s — Table 1.
    pub mem_bw_peak_gbs: f64,
    /// Measured achievable bandwidth in GB/s — Section 4.1 of the paper
    /// (~114, ~149, ~159 for C2070, GTX680, K20).
    pub mem_bw_measured_gbs: f64,
    /// Peak double-precision rate in GFLOP/s — Table 1.
    pub dp_gflops: f64,
    /// Peak single-precision rate in GFLOP/s.
    pub sp_gflops: f64,
    /// Effective throughput for the integer/shift/decode instruction mix of
    /// the BRO decompressors, in Gop/s (calibration constant).
    pub int_giops: f64,
    /// Effective throughput for warp-synchronous shuffle/scan operations in
    /// Gop/s. Scan-heavy kernels (the COO family) are relatively more
    /// expensive on the wide Kepler SMXs, whose per-warp shuffle rate did
    /// not grow with core count (calibration constant).
    pub warp_giops: f64,
    /// Global-memory transaction size in bytes.
    pub txn_bytes: usize,
    /// Texture cache capacity per SM in bytes.
    pub tex_cache_bytes: usize,
    /// Texture cache line size in bytes.
    pub tex_line_bytes: usize,
    /// Texture cache associativity (1 to 8).
    pub tex_assoc: usize,
    /// Resident warps per SM needed to saturate the memory system; fewer
    /// warps scale the achievable bandwidth down (the Fig. 6 `e40r5000`
    /// effect).
    pub full_bw_warps_per_sm: usize,
    /// Fixed kernel launch overhead in seconds.
    pub launch_overhead_s: f64,
}

impl DeviceProfile {
    /// Tesla C2070 (Fermi, compute capability 2.0).
    pub fn tesla_c2070() -> Self {
        DeviceProfile {
            name: "Tesla C2070",
            compute_capability: "2.0",
            sms: 14,
            cores_per_sm: 32,
            warp_size: 32,
            mem_bw_peak_gbs: 144.0,
            mem_bw_measured_gbs: 114.0,
            dp_gflops: 515.0,
            sp_gflops: 1030.0,
            int_giops: 330.0,
            warp_giops: 600.0,
            txn_bytes: 128,
            tex_cache_bytes: 12 * 1024,
            tex_line_bytes: 32,
            tex_assoc: 4,
            full_bw_warps_per_sm: 24,
            launch_overhead_s: 5.0e-6,
        }
    }

    /// GeForce GTX680 (Kepler GK104, compute capability 3.0).
    pub fn gtx680() -> Self {
        DeviceProfile {
            name: "GTX680",
            compute_capability: "3.0",
            sms: 8,
            cores_per_sm: 192,
            warp_size: 32,
            mem_bw_peak_gbs: 192.3,
            mem_bw_measured_gbs: 149.0,
            dp_gflops: 129.0,
            sp_gflops: 3090.0,
            int_giops: 860.0,
            warp_giops: 350.0,
            txn_bytes: 128,
            tex_cache_bytes: 48 * 1024,
            tex_line_bytes: 32,
            tex_assoc: 4,
            full_bw_warps_per_sm: 40,
            launch_overhead_s: 4.0e-6,
        }
    }

    /// Tesla K20 (Kepler GK110, compute capability 3.5).
    pub fn tesla_k20() -> Self {
        DeviceProfile {
            name: "Tesla K20",
            compute_capability: "3.5",
            sms: 13,
            cores_per_sm: 192,
            warp_size: 32,
            mem_bw_peak_gbs: 208.0,
            mem_bw_measured_gbs: 159.0,
            dp_gflops: 1170.0,
            sp_gflops: 3520.0,
            int_giops: 245.0,
            warp_giops: 280.0,
            txn_bytes: 128,
            tex_cache_bytes: 48 * 1024,
            tex_line_bytes: 32,
            tex_assoc: 4,
            full_bw_warps_per_sm: 44,
            launch_overhead_s: 4.0e-6,
        }
    }

    /// The three evaluation devices in the paper's order.
    pub fn evaluation_set() -> Vec<DeviceProfile> {
        vec![Self::tesla_c2070(), Self::gtx680(), Self::tesla_k20()]
    }

    /// Total core count (the "Cores" row of Table 1).
    pub fn total_cores(&self) -> usize {
        self.sms * self.cores_per_sm
    }

    /// Peak FLOP rate for a value type of the given byte width.
    pub fn flops_for_bytes(&self, val_bytes: usize) -> f64 {
        if val_bytes >= 8 {
            self.dp_gflops * 1e9
        } else {
            self.sp_gflops * 1e9
        }
    }

    /// Measured DRAM bandwidth in bytes/s.
    pub fn bw_bytes_per_s(&self) -> f64 {
        self.mem_bw_measured_gbs * 1e9
    }
}

impl std::fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (cc {}, {} cores, {:.1} GB/s peak, {:.0} DP GFLOP/s)",
            self.name,
            self.compute_capability,
            self.total_cores(),
            self.mem_bw_peak_gbs,
            self.dp_gflops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_core_counts() {
        assert_eq!(DeviceProfile::tesla_c2070().total_cores(), 448);
        assert_eq!(DeviceProfile::gtx680().total_cores(), 1536);
        assert_eq!(DeviceProfile::tesla_k20().total_cores(), 2496);
    }

    #[test]
    fn table_1_bandwidths_and_dp() {
        let c = DeviceProfile::tesla_c2070();
        assert_eq!(c.mem_bw_peak_gbs, 144.0);
        assert_eq!(c.dp_gflops, 515.0);
        let g = DeviceProfile::gtx680();
        assert_eq!(g.mem_bw_peak_gbs, 192.3);
        assert_eq!(g.dp_gflops, 129.0);
        let k = DeviceProfile::tesla_k20();
        assert_eq!(k.mem_bw_peak_gbs, 208.0);
        assert_eq!(k.dp_gflops, 1170.0);
    }

    #[test]
    fn measured_bandwidth_ordering_matches_paper() {
        // K20 > GTX680 > C2070, as in Section 4.1.
        let set = DeviceProfile::evaluation_set();
        assert!(set[2].mem_bw_measured_gbs > set[1].mem_bw_measured_gbs);
        assert!(set[1].mem_bw_measured_gbs > set[0].mem_bw_measured_gbs);
    }

    #[test]
    fn flops_selects_precision() {
        let k = DeviceProfile::tesla_k20();
        assert_eq!(k.flops_for_bytes(8), 1170.0e9);
        assert_eq!(k.flops_for_bytes(4), 3520.0e9);
    }

    #[test]
    fn display_mentions_name() {
        assert!(DeviceProfile::gtx680().to_string().contains("GTX680"));
    }
}
