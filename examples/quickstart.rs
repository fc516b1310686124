//! Quickstart: the classic 2-D lid-driven cavity.
//!
//! Demonstrates the minimal SunwayLB-RS workflow: build a grid, paint boundary
//! conditions, initialize, run, and post-process. Writes `cavity_speed.ppm`
//! (velocity-magnitude colormap) into the working directory.
//!
//! Run with: `cargo run --release --example quickstart`. The same case
//! through the case catalogue is `swlb run --nx 96 --ny 96 --tau 0.56 --u 0.1
//! --steps 4000 --output ppm`.

use std::io::Write as _;
use swlb_core::prelude::*;
use swlb_io::{colormap_viridis_like, write_ppm, PpmImage};

fn main() {
    let (tau, u_lid, steps) = (0.56, 0.1, 4000u64);
    let dims = GridDims::new2d(96, 96);
    let lid = [u_lid, 0.0, 0.0];
    println!(
        "lid-driven cavity: {}x{} grid, tau = {tau}, lid u = {u_lid}",
        dims.nx, dims.ny
    );

    let mut solver = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(tau))
        .pool(ThreadPool::auto())
        .build();
    solver.flags_mut().set_box_walls();
    solver.flags_mut().paint_lid(lid);
    solver.initialize_uniform(1.0, [0.0; 3]);

    // Run in chunks and report convergence of the kinetic energy.
    let chunk = (steps / 10).max(1);
    let mut prev_energy = 0.0;
    let mut done = 0;
    while done < steps {
        let n = chunk.min(steps - done);
        solver
            .run_checked(n, n)
            .expect("simulation diverged — lower u_lattice or raise tau");
        done += n;
        let stats = solver.stats();
        let delta = (stats.kinetic_energy - prev_energy).abs() / stats.kinetic_energy.max(1e-30);
        println!(
            "step {:>6}: mass {:.6}, max |u| {:.4}, E_k {:.6e} (delta {:.2e})",
            stats.step, stats.mass, stats.max_velocity, stats.kinetic_energy, delta
        );
        prev_energy = stats.kinetic_energy;
    }

    // The cavity's primary vortex: velocity at the center should be nonzero.
    let m = solver.macroscopic();
    let center = m.u[dims.idx(dims.nx / 2, dims.ny / 2, 0)];
    println!(
        "center velocity: ({:.5}, {:.5}) — primary vortex {}",
        center[0],
        center[1],
        if center[0].abs() + center[1].abs() > 1e-6 {
            "established"
        } else {
            "not yet formed"
        }
    );

    let speed = m.slice_xy_speed(0);
    let img = PpmImage::from_scalar(dims.nx, dims.ny, &speed, colormap_viridis_like);
    let path = "cavity_speed.ppm";
    let mut f = std::fs::File::create(path).expect("cannot create image");
    write_ppm(&mut f, &img).expect("cannot write image");
    f.flush().ok();
    println!("wrote {path}");
}
