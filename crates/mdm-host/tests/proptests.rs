//! Property tests on the host-side performance-model algebra.

use mdm_host::machines::MachineModel;
use mdm_host::perfmodel::{AlphaStrategy, PerformanceModel, SystemSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flop-balance α satisfies its defining equation, and the
    /// evaluated column is self-consistent, for any system size.
    #[test]
    fn alpha_balance_equation(n_log in 4.0f64..8.0) {
        let spec = SystemSpec::paper_density(10f64.powf(n_log));
        let model = PerformanceModel::new(MachineModel::conventional(1e12));
        let alpha = model.optimal_alpha(&spec, AlphaStrategy::BalanceFlops);
        let col = model.evaluate(&spec, alpha);
        prop_assert!(
            (col.real_flops / col.wave_flops - 1.0).abs() < 1e-6,
            "imbalance at N={}: {} vs {}",
            spec.n,
            col.real_flops,
            col.wave_flops
        );
        // Total flops at the optimum beat any nearby alpha.
        for factor in [0.8, 1.25] {
            let other = model.evaluate(&spec, alpha * factor);
            prop_assert!(other.total_flops() >= col.total_flops() * 0.999);
        }
    }

    /// Effective speed never exceeds calculation speed, anywhere in the
    /// (machine, α, N) space.
    #[test]
    fn effective_le_calc(n_log in 5.0f64..7.8, alpha in 20.0f64..120.0) {
        let spec = SystemSpec::paper_density(10f64.powf(n_log));
        let model = PerformanceModel::new(MachineModel::mdm_current());
        let col = model.evaluate(&spec, alpha);
        prop_assert!(col.effective_speed <= col.calc_speed * (1.0 + 1e-12));
    }

    /// Step time decreases monotonically with more MDGRAPE-2 chips at
    /// the hardware-balanced α (no pathological non-monotonicity in the
    /// model).
    #[test]
    fn more_chips_never_slower(chips_a in 32usize..512, mult in 2usize..8) {
        let spec = SystemSpec::paper();
        let mut small = MachineModel::mdm_current();
        small.mdg_chips = chips_a;
        let mut large = small;
        large.mdg_chips = chips_a * mult;
        let m_small = PerformanceModel::new(small);
        let m_large = PerformanceModel::new(large);
        let a_small = m_small.optimal_alpha(&spec, AlphaStrategy::BalanceHardware);
        let a_large = m_large.optimal_alpha(&spec, AlphaStrategy::BalanceHardware);
        let t_small = m_small.evaluate(&spec, a_small).sec_per_step;
        let t_large = m_large.evaluate(&spec, a_large).sec_per_step;
        prop_assert!(t_large <= t_small * 1.0001, "{t_small} -> {t_large}");
    }
}
