//! The SOR kernel (Section 6.1.3): a red-black successive over-relaxation
//! solve with its halo-exchange communication measured on the simulated
//! T3D.
//!
//! ```text
//! cargo run --release --example sor_stencil
//! ```

use memcomm::kernels::apps::{CommMethod, SorKernel, Table6Kernel};
use memcomm::machines::Machine;

/// One red-black SOR sweep of the 5-point Laplace stencil on an n×n grid
/// with Dirichlet boundary 0 except the top edge at 1.
fn sor_sweep(grid: &mut [Vec<f64>], omega: f64, color: usize) -> f64 {
    let n = grid.len();
    let mut max_delta = 0.0f64;
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            if (i + j) % 2 != color {
                continue;
            }
            let gs = 0.25 * (grid[i - 1][j] + grid[i + 1][j] + grid[i][j - 1] + grid[i][j + 1]);
            let new = grid[i][j] + omega * (gs - grid[i][j]);
            max_delta = max_delta.max((new - grid[i][j]).abs());
            grid[i][j] = new;
        }
    }
    max_delta
}

fn main() {
    // Solve the model problem to show the kernel is a real solver.
    let n = 64;
    let mut grid = vec![vec![0.0f64; n]; n];
    for cell in &mut grid[0] {
        *cell = 1.0;
    }
    let omega = 2.0 / (1.0 + (std::f64::consts::PI / n as f64).sin());
    let mut iterations = 0;
    loop {
        let d = sor_sweep(&mut grid, omega, 0).max(sor_sweep(&mut grid, omega, 1));
        iterations += 1;
        if d < 1e-8 || iterations > 10_000 {
            break;
        }
    }
    let center = grid[n / 2][n / 2];
    println!(
        "SOR (omega={omega:.3}) converged in {iterations} iterations; u(center) = {center:.4}"
    );
    assert!(iterations < 600, "optimal-omega SOR converges fast");
    assert!(
        (center - 0.25).abs() < 0.02,
        "harmonic center value near 1/4"
    );

    // Every iteration of the distributed version exchanges overlap rows
    // with the shift neighbours; the paper measures that step per node.
    let t3d = Machine::t3d();
    let sor = SorKernel::paper_instance();
    let kernel = Table6Kernel::Sor(sor);
    println!(
        "\nhalo exchange (rows of {} words) on the simulated {} (congestion {:.0}):",
        sor.n,
        t3d.name,
        kernel
            .analytic_congestion(&t3d, &t3d.topology)
            .expect("valid decomposition")
    );
    for method in [
        CommMethod::Pvm,
        CommMethod::BufferPacking,
        CommMethod::Chained,
    ] {
        let m = kernel.measure(&t3d, method).expect("simulates");
        assert!(m.verified);
        println!("  {:<15} {}", m.method, m.per_node);
    }
    println!(
        "(paper, Table 6: PVM3 ~25, buffer packing 26.2, chained 27.9 MB/s per node — \
         contiguous halo rows mean chaining cannot help much, and fixed costs dominate)"
    );
}
