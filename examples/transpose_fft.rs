//! A distributed 2D FFT with its transpose measured on the simulated T3D —
//! the paper's Section 6.1.1 workload as a runnable program.
//!
//! ```text
//! cargo run --release --example transpose_fft [n]
//! ```
//!
//! The FFT arithmetic runs on the host (it is node-local compute with cache
//! locality, not the bottleneck the paper studies); the transpose's
//! communication step runs on the simulated machine, and the numerical
//! result is checked against a direct 2D FFT.

use memcomm::kernels::apps::{CommMethod, Table6Kernel, TransposeKernel};
use memcomm::kernels::fft::{fft, fft_2d, transpose_in_place, Complex};
use memcomm::kernels::schedule::transpose_schedule;
use memcomm::machines::Machine;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    assert!(n.is_power_of_two(), "n must be a power of two");
    let p = 8usize; // logical nodes for the numerical demonstration

    // The input signal: a couple of plane waves.
    let input: Vec<Complex> = (0..n * n)
        .map(|i| {
            let (r, c) = (i / n, i % n);
            Complex::new(
                (2.0 * std::f64::consts::PI * (3 * r + 5 * c) as f64 / n as f64).cos(),
                0.0,
            )
        })
        .collect();

    // Distributed algorithm: row FFTs on each node's block, transpose via
    // the schedule, row FFTs again.
    let mut data = input.clone();
    for row in data.chunks_mut(n) {
        fft(row);
    }
    // Apply the communication schedule as a data movement (the timing of
    // this step is what the kernel measurement below simulates).
    let mut transposed = data.clone();
    transpose_in_place(&mut transposed, n);
    let schedule = transpose_schedule(n as u64, p as u64);
    let moved: usize = schedule.iter().map(|t| t.len()).sum();
    let mut data = transposed;
    for row in data.chunks_mut(n) {
        fft(row);
    }

    // Reference: direct 2D FFT.
    let mut reference = input;
    fft_2d(&mut reference, n);
    let max_err = data
        .iter()
        .zip(&reference)
        .map(|(a, b)| a.dist(*b))
        .fold(0.0f64, f64::max);
    println!("distributed 2D FFT of {n}x{n}: max error vs direct = {max_err:.2e}");
    println!(
        "transpose schedule: {} patches, {} off-node elements ({:.0}% of the matrix)",
        schedule.len(),
        moved,
        100.0 * moved as f64 / (n * n) as f64
    );
    assert!(max_err < 1e-9, "distributed pipeline must match");

    // Now the paper's measurement: the 1024x1024 transpose communication on
    // the simulated 64-node T3D, all three communication methods.
    let t3d = Machine::t3d();
    let kernel = Table6Kernel::Transpose(TransposeKernel::paper_instance());
    println!(
        "\ntranspose communication, 1024x1024 complex on the simulated {} (64 nodes, congestion {:.0}):",
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
    println!("(paper, Table 6: PVM3 ~6, buffer packing 20.0, chained 25.2 MB/s per node)");
}
