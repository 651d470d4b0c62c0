//! The three machine configurations of Table 4.
//!
//! A [`MachineModel`] carries everything the performance model needs:
//! compute rates (pipelines × clock × duty), link bandwidths, and the
//! host's effective speed. The *duty factor* is the single calibrated
//! quantity: the fraction of peak pipeline throughput sustained over a
//! whole step (pipeline fill, wave reloads, synchronisation, driver
//! overhead). It is fitted once, to the paper's measured 43.8 s/step,
//! and then reused for predictions — see `EXPERIMENTS.md` for how the
//! calibrated model compares against the paper's own (self-described
//! "roughly estimated") future-machine projections.

use crate::topology::MdmTopology;

/// How real-space work is executed: on MDGRAPE-2 pipelines (counting
/// `N_int_g` ordered block pairs) or on a general-purpose CPU (counting
/// `N_int` unique pairs with Newton's third law).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RealSpaceEngine {
    /// MDGRAPE-2 hardware.
    Mdgrape2,
    /// Conventional CPU.
    Conventional,
}

/// A machine configuration for the performance model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// Display name.
    pub name: &'static str,
    /// WINE-2 chips (0 for the conventional machine).
    pub wine_chips: usize,
    /// MDGRAPE-2 chips (0 for the conventional machine).
    pub mdg_chips: usize,
    /// Sustained fraction of WINE-2 pipeline peak over a step.
    pub wine_duty: f64,
    /// Sustained fraction of MDGRAPE-2 pipeline peak over a step.
    pub mdg_duty: f64,
    /// Host↔board link bandwidth per cluster, bytes/s.
    pub pci_bytes_per_s: f64,
    /// Inter-node network bandwidth per node, bytes/s.
    pub network_bytes_per_s: f64,
    /// Host nodes.
    pub nodes: usize,
    /// Effective host flops for the O(N) work (integration, bookkeeping).
    pub host_flops: f64,
    /// Sustained general-purpose flops, used when `real_engine` or the
    /// wavenumber part runs on the CPU (the "conventional" column).
    pub cpu_flops: f64,
    /// Where real-space pairs are computed.
    pub real_engine: RealSpaceEngine,
}

impl MachineModel {
    /// The MDM as measured in the paper (July 2000): the chips and nodes
    /// of [`MdmTopology::CURRENT`] (2,240 WINE-2 chips, 64 MDGRAPE-2
    /// chips, 4 nodes). Duty factors calibrated so the model's
    /// step time at the paper's (N, α) equals the measured 43.8 s
    /// (see `perfmodel::tests::calibration_reproduces_measured_step_time`).
    pub fn mdm_current() -> Self {
        let machine = MdmTopology::CURRENT;
        Self {
            name: "MDM current",
            wine_chips: machine.wine_chips(),
            mdg_chips: machine.mdg_chips(),
            wine_duty: 0.42,
            mdg_duty: 0.42,
            pci_bytes_per_s: 132e6,
            network_bytes_per_s: 160e6,
            nodes: machine.nodes,
            host_flops: 2.4e9,
            cpu_flops: 2.4e9,
            real_engine: RealSpaceEngine::Mdgrape2,
        }
    }

    /// The end-of-2000 MDM of §6.1/Table 5: 2,688 WINE-2 chips, 1,536
    /// MDGRAPE-2 chips, 64-bit PCI (×2 bandwidth), new Myrinet cards
    /// (×3), and the paper's projected ~50 % efficiencies.
    pub fn mdm_future() -> Self {
        Self {
            name: "MDM future",
            wine_chips: 2688,
            mdg_chips: 1536,
            wine_duty: 0.50,
            mdg_duty: 0.50,
            pci_bytes_per_s: 264e6,
            network_bytes_per_s: 480e6,
            nodes: 4,
            host_flops: 2.4e9,
            cpu_flops: 2.4e9,
            real_engine: RealSpaceEngine::Mdgrape2,
        }
    }

    /// The paper's own optimistic reading of the future machine. Its
    /// Table 4 projects 4.48 s/step, which the paper's own flop counts
    /// only admit at essentially **full pipeline duty** (2·N·N_wv /
    /// R_wine = 3.0 s at 100 %, before any comm or host time) — an
    /// interesting fact the reproduction surfaces. This preset uses
    /// duty 1.0 so the `table4` harness can show the paper's number
    /// beside the calibrated prediction.
    pub fn mdm_future_paper_projection() -> Self {
        Self {
            wine_duty: 1.0,
            mdg_duty: 1.0,
            name: "MDM future (paper projection)",
            ..Self::mdm_future()
        }
    }

    /// The "conventional general-purpose computer with the same
    /// effective performance as MDM" of Table 4's middle column: all
    /// work on CPUs sustaining 1.34 Tflops.
    pub fn conventional(sustained_flops: f64) -> Self {
        Self {
            name: "Conventional",
            wine_chips: 0,
            mdg_chips: 0,
            wine_duty: 1.0,
            mdg_duty: 1.0,
            pci_bytes_per_s: f64::INFINITY,
            network_bytes_per_s: f64::INFINITY,
            nodes: 1,
            host_flops: sustained_flops,
            cpu_flops: sustained_flops,
            real_engine: RealSpaceEngine::Conventional,
        }
    }

    /// WINE-2 pipeline throughput, particle–wave ops per second, after
    /// the duty factor.
    pub fn wine_rate(&self) -> f64 {
        self.wine_chips as f64
            * wine2::chip::PIPELINES_PER_CHIP as f64
            * wine2::timing::CLOCK_HZ
            * self.wine_duty
    }

    /// MDGRAPE-2 pipeline throughput, pairs per second, after duty.
    pub fn mdg_rate(&self) -> f64 {
        self.mdg_chips as f64
            * mdgrape2::chip::PIPELINES_PER_CHIP as f64
            * mdgrape2::timing::CLOCK_HZ
            * self.mdg_duty
    }

    /// Combined peak flops (Table 5's "peak performance" rows).
    pub fn peak_flops(&self) -> f64 {
        wine2::timing::peak_flops(self.wine_chips) + mdgrape2::timing::peak_flops(self.mdg_chips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_machine_rates() {
        let m = MachineModel::mdm_current();
        // 2240×8×66.6 MHz = 1.19e12 ops/s before duty.
        assert!((m.wine_rate() / m.wine_duty / 1.193e12 - 1.0).abs() < 0.01);
        // 64×4×100 MHz = 2.56e10 pairs/s before duty.
        assert!((m.mdg_rate() / m.mdg_duty / 2.56e10 - 1.0).abs() < 0.01);
    }

    #[test]
    fn table5_peak_rows() {
        // Table 5: current 45 + 1 Tflops; future 54 + 25 Tflops.
        let cur = MachineModel::mdm_current();
        assert!((cur.peak_flops() / 1e12 - 46.0).abs() < 8.0, "{}", cur.peak_flops());
        let fut = MachineModel::mdm_future();
        let wine_peak = wine2::timing::peak_flops(fut.wine_chips) / 1e12;
        let mdg_peak = mdgrape2::timing::peak_flops(fut.mdg_chips) / 1e12;
        assert!((wine_peak - 54.0).abs() < 10.0, "{wine_peak}");
        assert!((mdg_peak - 25.0).abs() < 1.0, "{mdg_peak}");
    }

    #[test]
    fn conventional_has_no_accelerators() {
        let c = MachineModel::conventional(1.34e12);
        assert_eq!(c.wine_chips, 0);
        assert_eq!(c.mdg_chips, 0);
        assert_eq!(c.real_engine, RealSpaceEngine::Conventional);
    }
}
