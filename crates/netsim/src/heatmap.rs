//! Spatial telemetry rollups: per-link utilization and per-node congestion
//! heatmaps, rendered as deterministic JSON and as aligned ASCII grids for
//! 2D/3D tori (`repro --heatmap`).
//!
//! Everything here is integer arithmetic over the engine's
//! [`Telemetry`] — utilization in parts per
//! million, occupancy as per-tick means — so renderings are byte-identical
//! wherever the telemetry is (which the engine guarantees at any
//! jobs × shards).

use memcomm_util::json::Json;

use crate::engine::Telemetry;
use crate::topology::Topology;

/// Busy time (16.16 fixed point) over a run of `cycles`, in parts per
/// million. Saturates at zero-length runs instead of dividing by zero.
pub fn util_ppm(busy_fp: u64, cycles: u64) -> u64 {
    if cycles == 0 {
        return 0;
    }
    ((u128::from(busy_fp) * 1_000_000) / (65536u128 * u128::from(cycles))) as u64
}

/// Per-node link utilization: the busiest *outgoing* link of each node, in
/// parts per million of the run's cycles.
pub fn node_util_ppm(tel: &Telemetry, nodes: usize, cycles: u64) -> Vec<u64> {
    let mut out = vec![0u64; nodes];
    for (i, &from) in tel.link_from.iter().enumerate() {
        let u = util_ppm(tel.link_busy_fp[i], cycles);
        let slot = &mut out[from as usize];
        *slot = (*slot).max(u);
    }
    out
}

/// Per-node congestion: mean words sitting in the node's ejection queue and
/// rx FIFO per sample tick.
pub fn node_mean_occupancy(tel: &Telemetry) -> Vec<u64> {
    let ticks = tel.ticks.max(1);
    tel.node_occupancy.iter().map(|&o| o / ticks).collect()
}

/// The heatmap as deterministic JSON: link records in ascending global link
/// order plus the two per-node rollups, with enough context (dims, tick
/// count, cycles) to re-derive every number.
pub fn heatmap_json(topo: &Topology, tel: &Telemetry, cycles: u64) -> Json {
    let links: Vec<usize> = (0..tel.link_from.len()).collect();
    Json::obj([
        ("nodes", Json::Int(topo.len() as i64)),
        ("dims", Json::arr(topo.dims(), |&d| Json::Int(i64::from(d)))),
        ("torus", Json::Bool(topo.is_torus())),
        ("sample_every", Json::Int(tel.sample_every as i64)),
        ("ticks", Json::Int(tel.ticks as i64)),
        ("cycles", Json::Int(cycles as i64)),
        (
            "links",
            Json::arr(&links, |&i| {
                Json::obj([
                    ("from", Json::Int(i64::from(tel.link_from[i]))),
                    ("to", Json::Int(i64::from(tel.link_to[i]))),
                    (
                        "busy_ppm",
                        Json::Int(util_ppm(tel.link_busy_fp[i], cycles) as i64),
                    ),
                ])
            }),
        ),
        (
            "node_util_ppm",
            Json::arr(&node_util_ppm(tel, topo.len(), cycles), |&u| {
                Json::Int(u as i64)
            }),
        ),
        (
            "node_occupancy",
            Json::arr(&node_mean_occupancy(tel), |&o| Json::Int(o as i64)),
        ),
    ])
}

/// One per-node grid. The topology's innermost dimension varies fastest,
/// so the last dimension is the column, the second-to-last the row, and
/// any remaining outer dimensions flatten into labelled planes (a 3D torus
/// prints one grid per outermost-coordinate plane).
fn render_grid(out: &mut String, topo: &Topology, values: &[u64]) {
    let dims = topo.dims();
    let cols = dims.last().copied().unwrap_or(1).max(1) as usize;
    let rows = if dims.len() >= 2 {
        dims[dims.len() - 2] as usize
    } else {
        1
    };
    let planes = topo.len() / (rows * cols);
    for p in 0..planes {
        if planes > 1 {
            out.push_str(&format!("  plane {p}\n"));
        }
        for r in 0..rows {
            out.push_str("   ");
            for c in 0..cols {
                let v = values[(p * rows + r) * cols + c].min(9999);
                out.push_str(&format!(" {v:>4}"));
            }
            out.push('\n');
        }
    }
}

/// Renders both heatmaps as aligned ASCII grids: link utilization (percent
/// of cycles the node's busiest outgoing link was transmitting) and queue
/// hotspots (mean words queued at the node per tick).
pub fn render_grids(topo: &Topology, tel: &Telemetry, cycles: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "link utilization (% busiest outgoing link; {} nodes, {} ticks x {} cycles)\n",
        topo.len(),
        tel.ticks,
        tel.sample_every
    ));
    let util_pct: Vec<u64> = node_util_ppm(tel, topo.len(), cycles)
        .iter()
        .map(|&u| u / 10_000)
        .collect();
    render_grid(&mut out, topo, &util_pct);
    out.push_str("queue hotspots (mean words queued per node per tick)\n");
    render_grid(&mut out, topo, &node_mean_occupancy(tel));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{self, AdversaryConfig, AdversaryKind};
    use crate::engine::{run_flows, EngineConfig};
    use crate::link::LinkParams;
    use memcomm_memsim::node::NodeParams;

    fn sampled_outcome(topo: &Topology) -> crate::engine::EngineOutcome {
        let t = adversary::generate(
            topo,
            &AdversaryConfig {
                kind: AdversaryKind::Incast,
                base_bytes: 128,
                ..AdversaryConfig::default()
            },
        );
        let link = LinkParams {
            bytes_per_cycle: 8.0,
            packet_words: 16,
            header_bytes: 8,
            adp_extra_bytes: 8,
            latency_cycles: 4,
            congestion: 1.0,
        };
        let mut cfg = EngineConfig::new(link, NodeParams::default());
        cfg.sample_every = 16;
        run_flows(topo, &t.flows, &cfg).unwrap()
    }

    #[test]
    fn ppm_is_exact_integer_arithmetic() {
        assert_eq!(util_ppm(0, 100), 0);
        // A wire busy every cycle is exactly one million ppm.
        assert_eq!(util_ppm(65536 * 100, 100), 1_000_000);
        assert_eq!(util_ppm(65536 * 50, 100), 500_000);
        assert_eq!(util_ppm(1, 0), 0, "zero-cycle runs render as idle");
    }

    #[test]
    fn json_covers_every_link_and_node() {
        let topo = Topology::torus(&[4, 4]);
        let out = sampled_outcome(&topo);
        let tel = out.telemetry.as_ref().unwrap();
        let j = heatmap_json(&topo, tel, out.cycles);
        assert_eq!(
            j.get("links").and_then(Json::as_arr).unwrap().len(),
            tel.link_from.len()
        );
        assert_eq!(
            j.get("node_util_ppm").and_then(Json::as_arr).unwrap().len(),
            16
        );
        // Rendering is a pure function: byte-identical on re-render, and
        // it parses back.
        assert_eq!(j.render(), j.render());
        assert!(Json::parse(&j.render()).is_ok());
        // The incast destination's neighbourhood must glow.
        let utils = node_util_ppm(tel, topo.len(), out.cycles);
        assert!(utils.iter().any(|&u| u > 0));
    }

    #[test]
    fn grids_match_topology_shape() {
        let t2 = Topology::torus(&[4, 4]);
        let out2 = sampled_outcome(&t2);
        let g2 = render_grids(&t2, out2.telemetry.as_ref().unwrap(), out2.cycles);
        // Two headers + 4 rows per heatmap.
        assert_eq!(g2.lines().count(), 2 + 4 + 4);
        assert!(g2.starts_with("link utilization"));

        let t3 = Topology::torus(&[2, 2, 4]);
        let out3 = sampled_outcome(&t3);
        let g3 = render_grids(&t3, out3.telemetry.as_ref().unwrap(), out3.cycles);
        // Two headers + per heatmap: 2 planes × (label + 2 rows).
        assert_eq!(g3.lines().count(), 2 + 2 * (2 * 3));
        assert!(g3.contains("  plane 1\n"));
    }
}
