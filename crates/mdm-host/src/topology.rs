//! The machine description of the paper's Fig. 3 and Table 1.
//!
//! "The host computer is composed of four node computers, and they are
//! connected with each other by a network. Each node computer has 5
//! WINE-2 clusters and 4 MDGRAPE-2 clusters via links. Each WINE-2
//! cluster has 7 WINE-2 boards connected by a bus. Each MDGRAPE-2
//! cluster has 2 MDGRAPE-2 boards connected by a bus."

use std::fmt::Write as _;

/// One Table 1 component row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Component {
    /// Component role ("Node computer", "Network", …).
    pub component: &'static str,
    /// Product name.
    pub product: &'static str,
    /// Manufacturer.
    pub manufacturer: &'static str,
}

/// The Table 1 inventory.
pub fn table1_components() -> Vec<Component> {
    vec![
        Component {
            component: "Node computer",
            product: "Enterprise 4500",
            manufacturer: "Sun Microsystems",
        },
        Component {
            component: "CPU",
            product: "Ultra SPARC-II 400 MHz",
            manufacturer: "Sun Microsystems",
        },
        Component {
            component: "Network",
            product: "Myrinet",
            manufacturer: "Myricom",
        },
        Component {
            component: "Switch",
            product: "16-port LAN switch",
            manufacturer: "Myricom",
        },
        Component {
            component: "Network card",
            product: "LAN PCI card (LANai 4.3)",
            manufacturer: "Myricom",
        },
        Component {
            component: "Link",
            product: "Bus bridge (PCI host card / (Compact)PCI backplane controller card)",
            manufacturer: "SBS Technologies",
        },
        Component {
            component: "Bus",
            product: "CompactPCI (WINE-2) / PCI (MDGRAPE-2), PCI local bus spec. rev. 2.1",
            manufacturer: "-",
        },
    ]
}

/// The assembled-machine topology (counts of Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MdmTopology {
    /// Host node computers.
    pub nodes: usize,
    /// CPUs per node (E4500: 6 × UltraSPARC-II).
    pub cpus_per_node: usize,
    /// WINE-2 clusters per node.
    pub wine_clusters_per_node: usize,
    /// MDGRAPE-2 clusters per node.
    pub mdg_clusters_per_node: usize,
}

impl MdmTopology {
    /// The current MDM (as in the paper's run).
    pub const CURRENT: Self = Self {
        nodes: 4,
        cpus_per_node: 6,
        wine_clusters_per_node: 5,
        mdg_clusters_per_node: 4,
    };

    /// Total WINE-2 clusters / boards / chips / pipelines.
    pub fn wine_clusters(&self) -> usize {
        self.nodes * self.wine_clusters_per_node
    }
    /// WINE-2 boards (7 per cluster).
    pub fn wine_boards(&self) -> usize {
        self.wine_clusters() * wine2::cluster::BOARDS_PER_CLUSTER
    }
    /// WINE-2 chips (16 per board).
    pub fn wine_chips(&self) -> usize {
        self.wine_boards() * wine2::board::CHIPS_PER_BOARD
    }
    /// WINE-2 pipelines (8 per chip).
    pub fn wine_pipelines(&self) -> usize {
        self.wine_chips() * wine2::chip::PIPELINES_PER_CHIP
    }

    /// Total MDGRAPE-2 clusters.
    pub fn mdg_clusters(&self) -> usize {
        self.nodes * self.mdg_clusters_per_node
    }
    /// MDGRAPE-2 boards (2 per cluster).
    pub fn mdg_boards(&self) -> usize {
        self.mdg_clusters() * mdgrape2::cluster::BOARDS_PER_CLUSTER
    }
    /// MDGRAPE-2 chips (2 per board).
    pub fn mdg_chips(&self) -> usize {
        self.mdg_boards() * mdgrape2::board::CHIPS_PER_BOARD
    }
    /// MDGRAPE-2 pipelines (4 per chip).
    pub fn mdg_pipelines(&self) -> usize {
        self.mdg_chips() * mdgrape2::chip::PIPELINES_PER_CHIP
    }

    /// WINE-2 peak flops.
    pub fn wine_peak_flops(&self) -> f64 {
        wine2::timing::peak_flops(self.wine_chips())
    }

    /// MDGRAPE-2 peak flops.
    pub fn mdg_peak_flops(&self) -> f64 {
        mdgrape2::timing::peak_flops(self.mdg_chips())
    }

    /// The Fig.-3 block diagram as an indented text tree (the `figure3`
    /// bench binary prints this).
    pub fn render_tree(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "MDM (peak {:.1} Tflops WINE-2 + {:.1} Tflops MDGRAPE-2)",
            self.wine_peak_flops() / 1e12,
            self.mdg_peak_flops() / 1e12
        );
        let _ = writeln!(s, "└─ host computer: {} node computers (Myrinet)", self.nodes);
        let _ = writeln!(
            s,
            "   └─ node computer: Sun E4500, {} x UltraSPARC-II 400 MHz",
            self.cpus_per_node
        );
        let _ = writeln!(
            s,
            "      ├─ {} WINE-2 clusters (PCI-CompactPCI bridge each)",
            self.wine_clusters_per_node
        );
        let _ = writeln!(
            s,
            "      │  └─ WINE-2 cluster: {} boards on a CompactPCI bus",
            wine2::cluster::BOARDS_PER_CLUSTER
        );
        let _ = writeln!(
            s,
            "      │     └─ WINE-2 board: {} chips, 16 MB SDRAM particle memory, FPGA interface",
            wine2::board::CHIPS_PER_BOARD
        );
        let _ = writeln!(
            s,
            "      │        └─ WINE-2 chip: {} pipelines @ 66.6 MHz (~20 Gflops)",
            wine2::chip::PIPELINES_PER_CHIP
        );
        let _ = writeln!(
            s,
            "      │           └─ pipeline: fixed-point DFT/IDFT, 2 resident waves"
        );
        let _ = writeln!(
            s,
            "      └─ {} MDGRAPE-2 clusters (PCI-PCI bridge each)",
            self.mdg_clusters_per_node
        );
        let _ = writeln!(
            s,
            "         └─ MDGRAPE-2 cluster: {} boards on a PCI bus",
            mdgrape2::cluster::BOARDS_PER_CLUSTER
        );
        let _ = writeln!(
            s,
            "            └─ MDGRAPE-2 board: {} chips, 8 MB SSRAM, cell memory + dual index counters",
            mdgrape2::board::CHIPS_PER_BOARD
        );
        let _ = writeln!(
            s,
            "               └─ MDGRAPE-2 chip: {} pipelines @ 100 MHz (~16 Gflops), 32-type coefficient RAM",
            mdgrape2::chip::PIPELINES_PER_CHIP
        );
        let _ = writeln!(
            s,
            "                  └─ pipeline: f32 arithmetic, f64 accumulation, 1024-segment quartic g(x)"
        );
        let _ = writeln!(
            s,
            "totals: {} WINE-2 chips ({} pipelines), {} MDGRAPE-2 chips ({} pipelines)",
            self.wine_chips(),
            self.wine_pipelines(),
            self.mdg_chips(),
            self.mdg_pipelines()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_topology_matches_paper_counts() {
        let t = MdmTopology::CURRENT;
        assert_eq!(t.wine_clusters(), 20);
        assert_eq!(t.wine_boards(), 140);
        assert_eq!(t.wine_chips(), 2240); // paper: 2,240 chips
        assert_eq!(t.mdg_clusters(), 16);
        assert_eq!(t.mdg_boards(), 32);
        assert_eq!(t.mdg_chips(), 64); // paper: 64 chips

        // The emulators' default machines are this one.
        assert_eq!(wine2::Wine2Config::default().clusters, t.wine_clusters());
        assert_eq!(mdgrape2::Mdgrape2Config::default().clusters, t.mdg_clusters());
    }

    #[test]
    fn peak_performance_matches_paper() {
        let t = MdmTopology::CURRENT;
        // "45 Tflops" WINE-2, "1 Tflops" MDGRAPE-2.
        assert!((t.wine_peak_flops() / 1e12 - 45.0).abs() < 8.0);
        assert!((t.mdg_peak_flops() / 1e12 - 1.0).abs() < 0.1);
    }

    #[test]
    fn table1_has_all_component_rows() {
        let rows = table1_components();
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().any(|r| r.product.contains("Enterprise 4500")));
        assert!(rows.iter().any(|r| r.product.contains("Myrinet")));
    }

    #[test]
    fn tree_renders_all_levels() {
        let tree = MdmTopology::CURRENT.render_tree();
        for needle in [
            "node computers",
            "WINE-2 cluster",
            "MDGRAPE-2 board",
            "pipelines @ 66.6 MHz",
            "pipelines @ 100 MHz",
            "2240 WINE-2 chips",
        ] {
            assert!(tree.contains(needle), "missing {needle}:\n{tree}");
        }
    }
}
