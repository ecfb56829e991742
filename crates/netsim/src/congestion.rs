//! Flow-level congestion analysis.
//!
//! "Congestion two means a network link is traversed by twice as much data
//! as it can support at peak speed." Given a set of simultaneously active
//! flows, this module routes each with dimension-order routing, accumulates
//! per-link loads, and reports the pattern's congestion factor — including
//! the T3D's port quirk: "two adjacent nodes share a single communication
//! port \[so\] the minimal congestion is *two* unless half of the processors
//! remain unused."

use std::collections::BTreeMap;

use crate::routing::LinkId;
use crate::topology::Topology;
use crate::traffic::Flow;

/// Result of analysing one pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionReport {
    /// Maximum over links of (bytes crossing the link ÷ largest single
    /// flow): how overcommitted the worst link is.
    pub max_link: f64,
    /// Mean load over links that any flow crosses (zero-byte flows
    /// included), in the same unit.
    pub mean_link: f64,
    /// Maximum over ports of injected+ejected flows per shared port,
    /// relative to one flow (≥ `nodes_per_port` when every node is active).
    pub port: f64,
    /// The overall congestion factor: `max(max_link, port)`, at least 1.
    pub factor: f64,
}

/// Per-link byte loads of flow sets on one topology under dimension-order
/// routing. The dimension strides and every node's coordinates are
/// tabulated once, with each dimension's hop deltas, and loads accumulate in
/// a flat array indexed by (node, outgoing link), so a route is walked
/// without dividing or hashing; one accumulator serves every round of a
/// schedule.
struct LinkLoads<'t> {
    topo: &'t Topology,
    /// Node-id step of each dimension (row-major, first dimension
    /// outermost).
    strides: Vec<usize>,
    /// Each node's coordinates, one per dimension.
    coords: Vec<u32>,
    /// Per dimension of size `d`, the routed hop delta
    /// ([`Topology::hop_delta`]) of each coordinate difference `b − a`, at
    /// `b − a + d − 1`.
    deltas: Vec<Vec<i64>>,
    /// Bytes crossing each link, at `(node · dims + dim) · 2 + upward`;
    /// `None` for a link no flow of the current set crosses.
    load: Vec<Option<u64>>,
    /// The links the current set crosses and their slots in `load`, in
    /// first-crossing order.
    crossed: Vec<(usize, LinkId)>,
}

impl<'t> LinkLoads<'t> {
    fn new(topo: &'t Topology) -> Self {
        let dims = topo.dims();
        let mut strides = vec![1; dims.len()];
        for k in (1..dims.len()).rev() {
            strides[k - 1] = strides[k] * dims[k] as usize;
        }
        LinkLoads {
            topo,
            strides,
            coords: (0..topo.len()).flat_map(|node| topo.coords(node)).collect(),
            deltas: dims
                .iter()
                .enumerate()
                .map(|(dim, &d)| {
                    // Each difference taken between two in-range coordinates.
                    (1 - i64::from(d)..i64::from(d))
                        .map(|diff| {
                            let a = (-diff).max(0);
                            topo.hop_delta(a as u32, (a + diff) as u32, dim)
                        })
                        .collect()
                })
                .collect(),
            load: vec![None; topo.len() * dims.len() * 2],
            crossed: Vec::new(),
        }
    }

    /// Replaces the loads with those of `flows`: each flow's bytes land on
    /// every link of its [`route`](crate::routing::route), lowest dimension
    /// first, the shortest way around torus rings.
    ///
    /// # Panics
    ///
    /// Panics if a flow's endpoint is out of range.
    fn fill(&mut self, flows: &[Flow]) {
        for (slot, _) in self.crossed.drain(..) {
            self.load[slot] = None;
        }
        let (nodes, dims) = (self.topo.len(), self.strides.len());
        for f in flows {
            assert!(
                f.src < nodes && f.dst < nodes,
                "route {} -> {} outside machine",
                f.src,
                f.dst
            );
            let mut here = f.src;
            for (dim, &stride) in self.strides.iter().enumerate() {
                let size = self.topo.dims()[dim];
                let mut at = self.coords[f.src * dims + dim];
                let to_at = self.coords[f.dst * dims + dim];
                let mut delta = self.deltas[dim][(to_at + size - 1 - at) as usize];
                let upward = delta > 0;
                while delta != 0 {
                    let next = match upward {
                        true if at + 1 == size => 0,
                        true => at + 1,
                        false if at == 0 => size - 1,
                        false => at - 1,
                    };
                    let to = here + next as usize * stride - at as usize * stride;
                    let slot = (here * dims + dim) * 2 + usize::from(upward);
                    let load = &mut self.load[slot];
                    if load.is_none() {
                        self.crossed.push((slot, LinkId { from: here, to }));
                    }
                    *load = Some(load.unwrap_or(0) + f.bytes);
                    (here, at) = (to, next);
                    delta -= delta.signum();
                }
            }
        }
    }

    /// The congestion of `flows` (see [`pattern_congestion`]).
    fn congestion(&mut self, flows: &[Flow], nodes_per_port: u32) -> CongestionReport {
        assert!(nodes_per_port >= 1, "ports serve at least one node");
        let unit = flows.iter().map(|f| f.bytes).max().unwrap_or(0).max(1) as f64;
        self.fill(flows);
        let (mut max, mut sum) = (0u64, 0u64);
        for &(slot, _) in &self.crossed {
            let load = self.load[slot].unwrap_or(0);
            max = max.max(load);
            sum += load;
        }
        let max_link = max as f64 / unit;
        let mean_link = if self.crossed.is_empty() {
            0.0
        } else {
            sum as f64 / self.crossed.len() as f64 / unit
        };

        // Injection + ejection per shared port, whichever direction is worse.
        let per_port = nodes_per_port as usize;
        let ports = self.topo.len().div_ceil(per_port);
        // Bytes each port injects, then bytes each ejects.
        let mut load = vec![0u64; 2 * ports];
        for f in flows.iter().filter(|f| f.src != f.dst) {
            load[f.src / per_port] += f.bytes;
            load[ports + f.dst / per_port] += f.bytes;
        }
        let port = load.into_iter().max().unwrap_or(0) as f64 / unit;

        CongestionReport {
            max_link,
            mean_link,
            port,
            factor: max_link.max(port).max(1.0),
        }
    }
}

/// The bytes crossing each link that any flow crosses (zero-byte flows
/// included) under dimension-order routing.
pub fn link_loads(topo: &Topology, flows: &[Flow]) -> BTreeMap<LinkId, u64> {
    let mut loads = LinkLoads::new(topo);
    loads.fill(flows);
    loads
        .crossed
        .iter()
        .map(|&(slot, link)| (link, loads.load[slot].unwrap_or(0)))
        .collect()
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
    LinkLoads::new(topo).congestion(flows, nodes_per_port)
}

/// The worst round of a scheduled pattern (e.g. the XOR all-to-all
/// schedule): the congestion a correctly scheduled implementation actually
/// experiences. Of equally bad rounds, the last one reports.
pub fn scheduled_congestion(
    topo: &Topology,
    rounds: &[Vec<Flow>],
    nodes_per_port: u32,
) -> CongestionReport {
    let mut loads = LinkLoads::new(topo);
    rounds
        .iter()
        .map(|r| loads.congestion(r, nodes_per_port))
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
