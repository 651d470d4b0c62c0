//! # wine2 — emulator of the WINE-2 special-purpose computer
//!
//! WINE-2 (Narumi et al., SC 2000, §3.4) is the wavenumber-space engine
//! of the MDM: 2,240 chips × 8 fixed-point pipelines evaluating the
//! Ewald reciprocal sum as a brute-force DFT (eqs. 9–10) and IDFT
//! (eq. 11) over all wave vectors below the cutoff.
//!
//! The emulator bills the hardware hierarchy level by level, from its
//! numbers, and builds no object per level:
//!
//! | paper | numbers (current MDM) | in the emulator |
//! |---|---|---|
//! | pipeline (Fig. 7) | 2 waves resident, 1 particle–wave op/cycle | [`chip::WAVES_PER_PIPELINE`]; [`WinePipeline`], the per-wave oracle |
//! | chip (Fig. 6) | 8 pipelines, 66.6 MHz, ≈20 Gflops | [`chip::PIPELINES_PER_CHIP`], `P·⌈w/8⌉` cycles a pass |
//! | board (Fig. 5) | 16 chips, 16 MB particle memory, FPGA interface | [`board::CHIPS_PER_BOARD`], [`board::PARTICLE_CAPACITY`], billed by [`timing::bill`] |
//! | cluster | 7 boards on a CompactPCI bus | [`cluster::BOARDS_PER_CLUSTER`], dealt by [`timing::bill`] |
//! | system (Fig. 3) | 20 clusters = 2,240 chips ≈ 45 Tflops | [`Wine2System`]: one packed particle column, one sweep |
//!
//! plus [`api`], the host library of Table 2 (`wine2_allocate_board`,
//! `calculate_force_and_pot_wavepart_nooffset`, …), and [`timing`], the
//! cycle/bus accounting used by the performance model.
//!
//! ## Billed in closed form, executed as one sweep
//!
//! The hierarchy is the accounting truth: every particle–wave operation
//! is billed to the pipeline that holds the wave, every chip pass
//! costs `P·⌈w/8⌉` cycles, every board pass moves its bytes over the
//! cluster's bus. [`timing::bill`] computes those counters from the
//! particle count, the wave count and the cluster count alone: the
//! particles are dealt in contiguous chunks to the clusters and each
//! cluster's chunk to its boards, and a board's bill follows from its
//! chunk and the table. That is not the order in which the host
//! computes. The datapath is integer arithmetic, so the order is free,
//! and an
//! evaluation runs as one *wavenumber sweep* (`sweep`, with an AVX-512
//! form in `simd`): one lane per particle over the system's particle
//! memory, every cluster's and board's chunk packed into one set of SoA
//! columns, the wave table regrouped into rows of consecutive `n_x`
//! along which the phase is walked by a modular add instead of
//! re-multiplied, sums kept in machine words and folded into the wide
//! registers once. The sweep is split across threads — the DFT by runs
//! of wave slots, the IDFT by runs of particle blocks — never by
//! emulated clusters, so a 20-cluster machine costs what a 2-cluster one
//! does and every result is the same at any cluster or thread count.
//! [`WinePipeline::dft_wave`] and [`WinePipeline::idft_wave`] remain the
//! per-wave definition of the datapath, and the sweep is asserted
//! raw-register-equal to them.
//!
//! ## Numerics
//!
//! All pipeline arithmetic is two's-complement fixed point
//! ([`mdm_fixed`]): positions enter as 32-bit turn fractions, the phase
//! `θ = 2π n⃗·s⃗` is formed by wrapping integer multiplies (exact modulo
//! one turn), sine/cosine come from a 4096-entry ROM with linear
//! interpolation, and products accumulate into wide registers. The
//! resulting relative force error is ~10⁻⁴·⁵, the figure the paper
//! quotes (§3.4.4) — validated against the `f64` reference in the
//! tests.
//!
//! ## One ROM image
//!
//! The silicon has a sine ROM in every pipeline, and the model counts
//! it that way (16 KB per pipeline, ops and cycles per pipeline). All
//! of them hold the same read-only words, so the emulator builds the
//! table once per process and the sweep and every [`WinePipeline`] read
//! that one image: building a [`Wine2System`] of any size allocates no
//! table, and the sweep keeps one table hot instead of rotating 224
//! copies through the caches.

pub mod api;
pub mod board;
pub mod chip;
pub mod cluster;
pub mod pipeline;
mod simd;
mod sweep;
pub mod system;
pub mod timing;

pub use api::Wine2Library;
pub use pipeline::{WineParticle, WinePipeline};
pub use system::{Wine2Config, Wine2System};
