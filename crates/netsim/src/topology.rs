//! Mesh and torus topologies.

use std::fmt;

/// A node's index in the machine (row-major over the dimensions).
pub type NodeId = usize;

/// A k-dimensional mesh or torus.
///
/// The T3D is a 3D torus (e.g. 2×8×8×8 compute nodes counting the shared
/// ports); the Paragon a 2D mesh with sometimes unfortunate aspect ratios
/// (e.g. 112×16). Wraparound links are per-machine: meshes have none.
///
/// # Examples
///
/// ```rust
/// use memcomm_netsim::Topology;
///
/// let t3d = Topology::torus(&[4, 4, 4]);
/// assert_eq!(t3d.len(), 64);
/// assert_eq!(t3d.coords(21), vec![1, 1, 1]);
/// assert_eq!(t3d.node_at(&[1, 1, 1]), 21);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topology {
    dims: Vec<u32>,
    wrap: bool,
}

impl Topology {
    /// A torus with the given dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or no dimensions are given.
    pub fn torus(dims: &[u32]) -> Self {
        Self::new(dims, true)
    }

    /// A mesh (no wraparound links) with the given dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or no dimensions are given.
    pub fn mesh(dims: &[u32]) -> Self {
        Self::new(dims, false)
    }

    fn new(dims: &[u32], wrap: bool) -> Self {
        assert!(!dims.is_empty(), "topology needs at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be positive");
        Topology {
            dims: dims.to_vec(),
            wrap,
        }
    }

    /// Whether wraparound links exist.
    pub fn is_torus(&self) -> bool {
        self.wrap
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.dims.iter().map(|&d| d as usize).product()
    }

    /// Whether the machine has no nodes (never true — dimensions are
    /// positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The coordinates of a node (innermost dimension varies fastest).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: NodeId) -> Vec<u32> {
        assert!(node < self.len(), "node {node} outside machine");
        let mut rest = node;
        let mut out = vec![0; self.dims.len()];
        for (k, &d) in self.dims.iter().enumerate().rev() {
            out[k] = (rest % d as usize) as u32;
            rest /= d as usize;
        }
        out
    }

    /// The node at given coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range or of the wrong rank.
    pub fn node_at(&self, coords: &[u32]) -> NodeId {
        assert_eq!(coords.len(), self.dims.len(), "coordinate rank mismatch");
        let mut id = 0usize;
        for (k, (&c, &d)) in coords.iter().zip(&self.dims).enumerate() {
            assert!(c < d, "coordinate {c} out of range in dimension {k}");
            id = id * d as usize + c as usize;
        }
        id
    }

    /// Signed hop distance from `a` to `b` along dimension `dim` under the
    /// routing rule (shortest way around for a torus, direct for a mesh).
    pub fn hop_delta(&self, a: u32, b: u32, dim: usize) -> i64 {
        let d = i64::from(self.dims[dim]);
        let delta = i64::from(b) - i64::from(a);
        if !self.wrap {
            return delta;
        }
        // Shortest way around the ring; ties go positive.
        let wrapped = delta.rem_euclid(d);
        if wrapped * 2 <= d {
            wrapped
        } else {
            wrapped - d
        }
    }

    /// Manhattan routing distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        let (ca, cb) = (self.coords(a), self.coords(b));
        (0..self.dims.len())
            .map(|k| self.hop_delta(ca[k], cb[k], k).unsigned_abs())
            .sum()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = self
            .dims
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("x");
        write!(f, "{} {}", shape, if self.wrap { "torus" } else { "mesh" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let t = Topology::torus(&[2, 8, 4]);
        for n in 0..t.len() {
            assert_eq!(t.node_at(&t.coords(n)), n);
        }
    }

    #[test]
    fn torus_wraps_shortest_way() {
        let t = Topology::torus(&[8]);
        assert_eq!(t.hop_delta(0, 7, 0), -1);
        assert_eq!(t.hop_delta(7, 0, 0), 1);
        assert_eq!(t.hop_delta(0, 4, 0), 4); // tie goes positive
        assert_eq!(t.hop_delta(0, 3, 0), 3);
    }

    #[test]
    fn mesh_does_not_wrap() {
        let m = Topology::mesh(&[8]);
        assert_eq!(m.hop_delta(0, 7, 0), 7);
        assert_eq!(m.distance(0, 7), 7);
    }

    #[test]
    fn distance_is_manhattan() {
        let t = Topology::torus(&[4, 4]);
        let a = t.node_at(&[0, 0]);
        let b = t.node_at(&[3, 2]);
        // dim0: 0->3 wraps to -1 (1 hop); dim1: 0->2 is 2 hops.
        assert_eq!(t.distance(a, b), 3);
    }

    #[test]
    fn display_shows_shape() {
        assert_eq!(Topology::torus(&[2, 8, 8]).to_string(), "2x8x8 torus");
        assert_eq!(Topology::mesh(&[112, 16]).to_string(), "112x16 mesh");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = Topology::torus(&[4, 0]);
    }
}
