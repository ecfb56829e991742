//! Flow-level congestion analysis.
//!
//! "Congestion two means a network link is traversed by twice as much data
//! as it can support at peak speed." Given a set of simultaneously active
//! flows, this module routes each with dimension-order routing, accumulates
//! per-link loads, and reports the pattern's congestion factor — including
//! the T3D's port quirk: "two adjacent nodes share a single communication
//! port [so] the minimal congestion is *two* unless half of the processors
//! remain unused."

use std::collections::HashMap;

use crate::routing::{for_each_hop, LinkId};
use crate::topology::Topology;
use crate::traffic::Flow;

/// Result of analysing one pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionReport {
    /// Maximum over links of (bytes crossing the link ÷ largest single
    /// flow): how overcommitted the worst link is.
    pub max_link: f64,
    /// Mean load over links that carry any traffic, in the same unit.
    pub mean_link: f64,
    /// Maximum over ports of injected+ejected flows per shared port,
    /// relative to one flow (≥ `nodes_per_port` when every node is active).
    pub port: f64,
    /// The overall congestion factor: `max(max_link, port)`, at least 1.
    pub factor: f64,
}

/// Accumulates per-link byte loads for a flow set under dimension-order
/// routing.
pub fn link_loads(topo: &Topology, flows: &[Flow]) -> HashMap<LinkId, u64> {
    let mut loads = HashMap::new();
    for f in flows {
        for_each_hop(topo, f.src, f.dst, |link| {
            *loads.entry(link).or_insert(0) += f.bytes;
        });
    }
    loads
}

/// Analyses the congestion of a set of simultaneously active flows.
///
/// `nodes_per_port` captures endpoint sharing (2 on the T3D, 1 on the
/// Paragon): the injection/ejection load of a port is the total flow count
/// of all nodes mapped to it.
///
/// # Panics
///
/// Panics if `nodes_per_port` is zero.
pub fn pattern_congestion(
    topo: &Topology,
    flows: &[Flow],
    nodes_per_port: u32,
) -> CongestionReport {
    assert!(nodes_per_port >= 1, "ports serve at least one node");
    let unit = flows.iter().map(|f| f.bytes).max().unwrap_or(0).max(1) as f64;
    let loads = link_loads(topo, flows);
    let max_link = loads.values().copied().max().unwrap_or(0) as f64 / unit;
    let mean_link = if loads.is_empty() {
        0.0
    } else {
        loads.values().copied().sum::<u64>() as f64 / loads.len() as f64 / unit
    };

    // Injection + ejection per shared port, whichever direction is worse.
    let ports = topo.len().div_ceil(nodes_per_port as usize);
    let mut inject = vec![0u64; ports];
    let mut eject = vec![0u64; ports];
    for f in flows {
        if f.src != f.dst {
            inject[f.src / nodes_per_port as usize] += f.bytes;
            eject[f.dst / nodes_per_port as usize] += f.bytes;
        }
    }
    let port = inject.iter().chain(&eject).copied().max().unwrap_or(0) as f64 / unit;

    CongestionReport {
        max_link,
        mean_link,
        port,
        factor: max_link.max(port).max(1.0),
    }
}

/// The worst round of a scheduled pattern (e.g. the XOR all-to-all
/// schedule): the congestion a correctly scheduled implementation actually
/// experiences.
pub fn scheduled_congestion(
    topo: &Topology,
    rounds: &[Vec<Flow>],
    nodes_per_port: u32,
) -> CongestionReport {
    rounds
        .iter()
        .map(|r| pattern_congestion(topo, r, nodes_per_port))
        .max_by(|a, b| a.factor.total_cmp(&b.factor))
        .unwrap_or(CongestionReport {
            max_link: 0.0,
            mean_link: 0.0,
            port: 0.0,
            factor: 1.0,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic;

    #[test]
    fn unit_shift_on_torus_has_link_congestion_one() {
        let t = Topology::torus(&[8]);
        let flows = traffic::cyclic_shift(&t, 1, 1024);
        let r = pattern_congestion(&t, &flows, 1);
        assert_eq!(r.max_link, 1.0);
        assert_eq!(r.factor, 1.0);
    }

    #[test]
    fn shared_ports_double_the_congestion() {
        // Same shift, but two nodes per port as on the T3D: each port
        // injects two flows.
        let t = Topology::torus(&[8]);
        let flows = traffic::cyclic_shift(&t, 1, 1024);
        let r = pattern_congestion(&t, &flows, 2);
        assert_eq!(r.port, 2.0);
        assert_eq!(r.factor, 2.0);
    }

    #[test]
    fn longer_shifts_load_links_more() {
        let t = Topology::torus(&[16]);
        let near = pattern_congestion(&t, &traffic::cyclic_shift(&t, 1, 8), 1);
        let far = pattern_congestion(&t, &traffic::cyclic_shift(&t, 4, 8), 1);
        assert!(far.max_link > near.max_link);
        assert_eq!(far.max_link, 4.0, "k overlapping routes per ring link");
    }

    #[test]
    fn scheduled_aapc_beats_naive_all_to_all() {
        let t = Topology::torus(&[4, 4, 4]);
        let naive = pattern_congestion(&t, &traffic::all_to_all(&t, 64), 2);
        let rounds = traffic::aapc_xor_schedule(t.len(), 64);
        let scheduled = scheduled_congestion(&t, &rounds, 2);
        assert!(
            scheduled.factor < naive.factor / 4.0,
            "scheduling must reduce congestion drastically: {} vs {}",
            scheduled.factor,
            naive.factor
        );
    }

    #[test]
    fn xor_rounds_on_t3d_torus_run_near_port_limit() {
        // The paper's claim: dense patterns can be scheduled with minimal
        // congestion on T3D tori; the floor is the shared-port factor 2.
        let t = Topology::torus(&[4, 4, 4]);
        let rounds = traffic::aapc_xor_schedule(t.len(), 64);
        let r = scheduled_congestion(&t, &rounds, 2);
        assert!(r.factor >= 2.0);
        assert!(r.factor <= 4.0, "worst round factor {}", r.factor);
    }

    #[test]
    fn empty_flow_set_is_factor_one() {
        let t = Topology::torus(&[4]);
        let r = pattern_congestion(&t, &[], 1);
        assert_eq!(r.factor, 1.0);
    }

    #[test]
    fn link_loads_accumulate_bytes() {
        let t = Topology::mesh(&[3]);
        // Two flows crossing the middle link 0->1->2.
        let flows = [
            Flow {
                src: 0,
                dst: 2,
                bytes: 100,
            },
            Flow {
                src: 0,
                dst: 1,
                bytes: 50,
            },
        ];
        let loads = link_loads(&t, &flows);
        let l01 = LinkId { from: 0, to: 1 };
        assert_eq!(loads[&l01], 150);
    }
}
