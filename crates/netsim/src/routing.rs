//! Dimension-order (e-cube) routing.

use crate::topology::{NodeId, Topology};

/// A directed link between two adjacent nodes.
///
/// Links are identified by their endpoints; dimension-order routes only
/// ever produce links between topology neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId {
    /// Sending endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
}

/// Computes the dimension-order route from `src` to `dst`: correct the
/// lowest dimension first, one hop at a time, taking the shortest direction
/// around torus rings.
///
/// Returns the (possibly empty) sequence of directed links.
///
/// # Panics
///
/// Panics if either node is out of range.
pub fn route(topo: &Topology, src: NodeId, dst: NodeId) -> Vec<LinkId> {
    let mut links = Vec::new();
    for_each_hop(topo, src, dst, |link| links.push(link));
    links
}

/// Calls `hop` with each link of [`route`]'s route, in order, without
/// building it: node ids step by the moving dimension's stride, so no
/// coordinate vector is allocated either.
///
/// # Panics
///
/// Panics if either node is out of range.
pub(crate) fn for_each_hop(topo: &Topology, src: NodeId, dst: NodeId, mut hop: impl FnMut(LinkId)) {
    let len = topo.len();
    assert!(
        src < len && dst < len,
        "route {src} -> {dst} outside machine"
    );
    let mut here = src;
    // Node ids are row-major with the first dimension outermost, so a
    // dimension's stride is the product of the sizes after it.
    let mut stride = len;
    for (dim, &size) in topo.dims().iter().enumerate() {
        let d = size as usize;
        stride /= d;
        let mut at = here / stride % d;
        let mut delta = topo.hop_delta(at as u32, (dst / stride % d) as u32, dim);
        while delta != 0 {
            let step = delta.signum();
            let next = (at as i64 + step).rem_euclid(size.into()) as usize;
            let to = here - at * stride + next * stride;
            hop(LinkId { from: here, to });
            here = to;
            at = next;
            delta -= step;
        }
    }
    debug_assert_eq!(here, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_length_equals_distance() {
        let t = Topology::torus(&[4, 4, 4]);
        for (a, b) in [(0, 63), (5, 5), (17, 42), (63, 0)] {
            assert_eq!(route(&t, a, b).len() as u64, t.distance(a, b));
        }
    }

    #[test]
    fn route_is_contiguous() {
        let t = Topology::mesh(&[8, 8]);
        let r = route(&t, 3, 60);
        for pair in r.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
        }
        assert_eq!(r.first().unwrap().from, 3);
        assert_eq!(r.last().unwrap().to, 60);
    }

    #[test]
    fn self_route_is_empty() {
        let t = Topology::torus(&[4, 4]);
        assert!(route(&t, 9, 9).is_empty());
    }

    #[test]
    fn dimension_order_corrects_low_dimension_first() {
        let t = Topology::mesh(&[4, 4]);
        let src = t.node_at(&[0, 0]);
        let dst = t.node_at(&[1, 1]);
        let r = route(&t, src, dst);
        // First hop moves in dimension 0.
        assert_eq!(r[0].to, t.node_at(&[1, 0]));
        assert_eq!(r[1].to, t.node_at(&[1, 1]));
    }

    /// The route stepped through coordinate vectors, hop by hop: the
    /// reference the stride arithmetic of `for_each_hop` must match.
    fn coordinate_route(topo: &Topology, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        let mut here = topo.coords(src);
        let target = topo.coords(dst);
        for dim in 0..topo.dims().len() {
            let mut delta = topo.hop_delta(here[dim], target[dim], dim);
            let d = topo.dims()[dim];
            while delta != 0 {
                let step = delta.signum();
                let from = topo.node_at(&here);
                here[dim] = (i64::from(here[dim]) + step).rem_euclid(i64::from(d)) as u32;
                links.push(LinkId {
                    from,
                    to: topo.node_at(&here),
                });
                delta -= step;
            }
        }
        links
    }

    #[test]
    fn routes_match_coordinate_stepping_between_every_pair() {
        for dims in [
            vec![8u32],
            vec![2, 2, 2],
            vec![4, 4, 4],
            vec![5, 3],
            vec![1, 6, 2],
            vec![8, 8, 4],
        ] {
            for topo in [Topology::torus(&dims), Topology::mesh(&dims)] {
                for src in 0..topo.len() {
                    for dst in 0..topo.len() {
                        assert_eq!(
                            route(&topo, src, dst),
                            coordinate_route(&topo, src, dst),
                            "{dims:?} {src} -> {dst}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn torus_uses_wraparound() {
        let t = Topology::torus(&[8]);
        let r = route(&t, 0, 7);
        assert_eq!(r.len(), 1, "one wraparound hop, not seven");
        assert_eq!(r[0], LinkId { from: 0, to: 7 });
    }
}
