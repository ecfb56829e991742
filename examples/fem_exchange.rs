//! The FEM boundary exchange (Section 6.1.2) on a synthetic partitioned
//! mesh, with a Jacobi relaxation running over it to show the kernel in a
//! real solver loop.
//!
//! ```text
//! cargo run --release --example fem_exchange
//! ```

use memcomm::kernels::apps::{CommMethod, FemKernel, Table6Kernel};
use memcomm::kernels::mesh::PartitionedMesh;
use memcomm::machines::Machine;

fn main() {
    let mesh = PartitionedMesh::synthetic_valley([48, 48, 48], [4, 4, 4], 1995);
    println!(
        "synthetic valley mesh: {} points in {} partitions of {} points",
        mesh.points_per_partition * mesh.partitions(),
        mesh.partitions(),
        mesh.points_per_partition
    );
    println!(
        "interfaces: {} of mean {:.0} points; boundary fraction of partition 21: {:.1}%",
        mesh.interfaces.len(),
        mesh.mean_interface_points(),
        100.0 * mesh.boundary_fraction(21)
    );

    // A toy Jacobi relaxation over the interface graph to demonstrate that
    // the index arrays drive a real computation: each partition holds one
    // value per point; interface points average with their twins.
    let p = mesh.partitions();
    let mut values: Vec<Vec<f64>> = (0..p)
        .map(|k| {
            (0..mesh.points_per_partition)
                .map(|i| (k * 31 + i) as f64 % 97.0)
                .collect()
        })
        .collect();
    for _ in 0..60 {
        // Consensus sweep: every interface point averages with all of its
        // twins (a point on a box edge sits on several interfaces).
        let mut sum = values.clone();
        let mut count: Vec<Vec<u32>> = (0..p).map(|_| vec![1; mesh.points_per_partition]).collect();
        for iface in &mesh.interfaces {
            for (la, lb) in iface.a_locals.iter().zip(&iface.b_locals) {
                sum[iface.a][*la as usize] += values[iface.b][*lb as usize];
                count[iface.a][*la as usize] += 1;
                sum[iface.b][*lb as usize] += values[iface.a][*la as usize];
                count[iface.b][*lb as usize] += 1;
            }
        }
        for k in 0..p {
            for i in 0..mesh.points_per_partition {
                values[k][i] = sum[k][i] / f64::from(count[k][i]);
            }
        }
    }
    let residual: f64 = mesh
        .interfaces
        .iter()
        .flat_map(|i| {
            i.a_locals
                .iter()
                .zip(&i.b_locals)
                .map(|(la, lb)| (values[i.a][*la as usize] - values[i.b][*lb as usize]).abs())
        })
        .fold(0.0, f64::max);
    println!("after 60 consensus sweeps the max interface mismatch is {residual:.2e}");
    assert!(residual < 1e-6, "consensus iteration converges");

    // The measured kernel: indexed exchange on the simulated T3D.
    let t3d = Machine::t3d();
    let fem = FemKernel::paper_instance();
    let kernel = Table6Kernel::Fem(fem.clone());
    println!(
        "\nFEM boundary exchange on the simulated {} ({} words per neighbour, congestion {:.0}):",
        t3d.name,
        fem.exchange_words(),
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
    println!("(paper, Table 6: PVM3 ~2, buffer packing 12.2, chained 14.2 MB/s per node)");
}
