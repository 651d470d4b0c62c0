//! The paper's §2 floating-point operation accounting.
//!
//! Table 4 is built on four formulas:
//!
//! * eq. 5: `N_int ≈ ½·(4π/3)·r_cut³·(N/L³)` — pairs per particle with
//!   Newton's third law (conventional computer);
//! * eq. 6: `N_int_g ≈ 27·r_cut³·(N/L³)` — the MDGRAPE-2 work per
//!   particle (27-cell scan, no third law, no cutoff skip);
//! * eq. 13: `N_wv ≈ ½·(4π/3)·(L·k_cut)³` — half-space wave count;
//! * flop counts: **59** per real-space pair (eq. 2: one erfc, one exp,
//!   one sqrt, one division at 10 flops each, plus 10 mul / 6 add /
//!   3 sub), **29** per particle–wave in the DFT (eqs. 9–10: sin and
//!   cos at 10 each, 5 mul, 4 add) and **35** in the IDFT (eq. 11:
//!   sin + cos, 9 mul, 5 add, 1 sub) — 64 total per particle–wave.
//!
//! The "erfc at 10 flops" is a fixed price, and the f64 kernel now has
//! one too: `ewald::real::real_kernel` spends one `exp` and a
//! twelve-coefficient polynomial on it at every `κr` (`special::erfc`),
//! not a continued fraction whose length depended on the argument.

/// Flops per real-space pair interaction (paper §2.2).
pub const FLOPS_PER_REAL_PAIR: f64 = 59.0;

/// Flops per particle–wave interaction in the DFT phase (paper §2.3).
pub const FLOPS_PER_WAVE_DFT: f64 = 29.0;

/// Flops per particle–wave interaction in the IDFT phase (paper §2.3).
pub const FLOPS_PER_WAVE_IDFT: f64 = 35.0;

/// Combined flops per particle–wave (DFT + IDFT).
pub const FLOPS_PER_WAVE: f64 = FLOPS_PER_WAVE_DFT + FLOPS_PER_WAVE_IDFT;

/// eq. 5: interactions per particle with Newton's third law.
pub fn n_int(r_cut: f64, n: f64, l: f64) -> f64 {
    0.5 * (4.0 * std::f64::consts::PI / 3.0) * r_cut.powi(3) * n / (l * l * l)
}

/// eq. 6: interactions per particle on MDGRAPE-2 (cell edge = r_cut).
pub fn n_int_g(r_cut: f64, n: f64, l: f64) -> f64 {
    27.0 * r_cut.powi(3) * n / (l * l * l)
}

/// eq. 13: half-space wave count for dimensionless cutoff `n_max = L·k_cut`.
pub fn n_wv(n_max: f64) -> f64 {
    0.5 * (4.0 * std::f64::consts::PI / 3.0) * n_max.powi(3)
}

/// Flops per time step of the real-space part, conventional flavour.
pub fn real_flops_conventional(n: f64, r_cut: f64, l: f64) -> f64 {
    FLOPS_PER_REAL_PAIR * n * n_int(r_cut, n, l)
}

/// Flops per time step of the real-space part, MDGRAPE-2 flavour.
pub fn real_flops_mdgrape(n: f64, r_cut: f64, l: f64) -> f64 {
    FLOPS_PER_REAL_PAIR * n * n_int_g(r_cut, n, l)
}

/// Flops per time step of the wavenumber-space part.
pub fn wave_flops(n: f64, n_max: f64) -> f64 {
    FLOPS_PER_WAVE * n * n_wv(n_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's headline system.
    const N: f64 = 1.88e7;
    const L: f64 = 850.0;

    #[test]
    fn table4_n_int_column() {
        // Conventional: r_cut = 74.4 → N_int = 2.65e4.
        let v = n_int(74.4, N, L);
        assert!((v / 2.65e4 - 1.0).abs() < 0.02, "{v}");
    }

    #[test]
    fn table4_n_int_g_column() {
        // Current: r_cut = 26.4 → N_int_g = 1.52e4.
        let v = n_int_g(26.4, N, L);
        assert!((v / 1.52e4 - 1.0).abs() < 0.02, "{v}");
        // Future: r_cut = 44.5 → 7.32e4.
        let v = n_int_g(44.5, N, L);
        assert!((v / 7.32e4 - 1.0).abs() < 0.02, "{v}");
    }

    #[test]
    fn table4_n_wv_column() {
        for (n_max, expect) in [(63.9, 5.46e5), (22.7, 2.44e4), (37.9, 1.14e5)] {
            let v = n_wv(n_max);
            assert!((v / expect - 1.0).abs() < 0.02, "n_max={n_max}: {v}");
        }
    }

    #[test]
    fn table4_flop_totals() {
        // Current column: 59·N·N_int_g = 1.69e13; 64·N·N_wv = 6.58e14.
        let real = real_flops_mdgrape(N, 26.4, L);
        assert!((real / 1.69e13 - 1.0).abs() < 0.02, "{real}");
        let wave = wave_flops(N, 63.9);
        assert!((wave / 6.58e14 - 1.0).abs() < 0.02, "{wave}");
        // Conventional: 59·N·N_int = 2.94e13 = 64·N·N_wv.
        let real_c = real_flops_conventional(N, 74.4, L);
        assert!((real_c / 2.94e13 - 1.0).abs() < 0.02, "{real_c}");
        let wave_c = wave_flops(N, 22.7);
        assert!((wave_c / 2.94e13 - 1.0).abs() < 0.02, "{wave_c}");
        // Future: 8.13e13 and 1.37e14.
        let real_f = real_flops_mdgrape(N, 44.5, L);
        assert!((real_f / 8.13e13 - 1.0).abs() < 0.02, "{real_f}");
        let wave_f = wave_flops(N, 37.9);
        assert!((wave_f / 1.37e14 - 1.0).abs() < 0.02, "{wave_f}");
    }

    #[test]
    fn work_inflation_is_about_13() {
        let ratio = n_int_g(26.4, N, L) / n_int(26.4, N, L);
        assert!((ratio - 12.89).abs() < 0.05, "{ratio}");
    }
}
