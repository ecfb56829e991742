//! The co-simulation drivers' per-step scheduling list.

use memcomm_memsim::Cycle;

/// Up to `N` `(local time, agent id)` candidates, kept on the stack and
/// visited earliest first. Ids are unique within a step, so the order is
/// total and independent of the order of the pushes.
pub(crate) struct Agenda<const N: usize> {
    items: [(Cycle, usize); N],
    len: usize,
}

impl<const N: usize> Agenda<N> {
    pub(crate) fn new() -> Self {
        Agenda {
            items: [(0, 0); N],
            len: 0,
        }
    }

    /// Adds agent `id`, whose local time is `t`.
    pub(crate) fn push(&mut self, t: Cycle, id: usize) {
        self.items[self.len] = (t, id);
        self.len += 1;
    }

    /// The candidates, earliest first; ties go to the lower id.
    pub(crate) fn sorted(&mut self) -> &[(Cycle, usize)] {
        let items = &mut self.items[..self.len];
        items.sort_unstable();
        items
    }
}
