//! `longrange_scratch_reuses` accounting, one rule for every software
//! backend: the first `compute` sizes the scratch (wave buffers, mesh
//! grid, stencils), each later call reuses it, so N calls report N − 1.
//!
//! The counter lives in the process-global profile registry, so this
//! is the only test in its binary: nothing else may step a backend
//! while it counts.

use mdm::core::ewald::EwaldParams;
use mdm::core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm::core::longrange::{by_name, SOFTWARE_BACKENDS};

#[test]
fn n_calls_report_n_minus_one_scratch_reuses_for_every_software_backend() {
    let s = rocksalt_nacl(2, NACL_LATTICE_A);
    let l = s.simbox().l();
    let params = EwaldParams::from_alpha_accuracy(7.0, 3.2, 3.2, l);
    mdm::profile::take();
    for name in SOFTWARE_BACKENDS {
        for calls in [1u64, 4] {
            let mut backend = by_name(name, &params, l).expect("software backend");
            for _ in 0..calls {
                backend.compute(s.simbox(), s.positions(), s.charges());
            }
            let reuses = mdm::profile::take()
                .counters
                .get("longrange_scratch_reuses")
                .copied()
                .unwrap_or(0);
            assert_eq!(reuses, calls - 1, "{name}: {calls} calls");
        }
    }
}
