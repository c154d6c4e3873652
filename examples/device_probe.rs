//! Device-model probe: sweeps the grid size of a fixed-traffic kernel to
//! expose the simulator's occupancy model — the mechanism behind the
//! paper's Fig. 6 observation that small matrices (e40r5000) cannot
//! saturate wide GPUs.
//!
//! ```sh
//! cargo run --release --example device_probe
//! ```

use bro_spmv::gpu_sim::KernelReport;
use bro_spmv::prelude::*;

fn main() {
    println!(
        "Bandwidth-utilization curve: a streaming kernel moving the same bytes\n\
         per block, at increasing block counts, on each device.\n"
    );
    for profile in DeviceProfile::evaluation_set() {
        println!("{profile}");
        println!("{:>8} {:>12} {:>12} {:>12}", "blocks", "occupancy", "GB/s", "util");
        for &blocks in &[4usize, 13, 26, 52, 104, 416, 1664] {
            let mut sim = DeviceSim::new(profile.clone());
            let buf = sim.alloc(blocks * 256 * 16, 8);
            sim.launch(blocks, 256, |b, ctx| {
                // Each warp streams 16 coalesced double loads.
                for w0 in (0..256).step_by(32) {
                    for j in 0..16 {
                        let base = (b * 256 + w0) * 16 + j * 32;
                        let mut load = ctx.load(8);
                        for l in 0..32 {
                            load.lane(buf.addr((base + l) % buf.len));
                        }
                        load.end();
                    }
                }
            });
            let r = KernelReport::from_device(&sim, 1, 8);
            println!(
                "{:>8} {:>11.0}% {:>12.1} {:>11.0}%",
                blocks,
                r.occupancy * 100.0,
                r.achieved_bw_gbs,
                r.bw_utilization * 100.0
            );
        }
        println!();
    }
    println!(
        "Reading: below ~2 blocks/SM the devices cannot hide DRAM latency;\n\
         the wide Kepler parts (GTX680, K20) need more resident warps than\n\
         Fermi, which is why e40r5000 underutilizes them in Fig. 6."
    );
}
