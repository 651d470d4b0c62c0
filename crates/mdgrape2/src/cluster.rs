//! An MDGRAPE-2 cluster: two boards behind a PCI–PCI bridge (§3.5.1).
//! As with WINE-2, the cluster is the unit of host-link bandwidth: the
//! emulator builds no cluster, and [`crate::timing::bill`] adds its
//! boards' bus bytes.

/// Boards per cluster (Fig. 3).
pub const BOARDS_PER_CLUSTER: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Mdgrape2Config;
    use crate::timing::{BoardBill, MdgCounters};

    #[test]
    fn cluster_has_two_boards() {
        assert_eq!(Mdgrape2Config { clusters: 1 }.boards(), BOARDS_PER_CLUSTER);
        // One bus carries both boards' bytes; the busier board sets the
        // cycles.
        let bill = |b: usize| BoardBill { pair_ops: [9, 17][b], bus_bytes: 100 };
        let counters = MdgCounters::of_boards(1, 5, bill);
        assert_eq!(
            counters,
            MdgCounters { pair_ops: 26, cycles: 3, bus_bytes_per_cluster: 200, particles: 5 }
        );
    }
}
