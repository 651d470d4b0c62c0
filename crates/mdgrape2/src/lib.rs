//! # mdgrape2 — emulator of the MDGRAPE-2 special-purpose computer
//!
//! MDGRAPE-2 (Narumi et al., SC 2000, §3.5) is the real-space engine of
//! the MDM: 64 chips × 4 pipelines evaluating arbitrary central pair
//! forces
//!
//! ```text
//! f⃗ᵢⱼ = bᵢⱼ · g(aᵢⱼ·rᵢⱼ²) · r⃗ᵢⱼ                  (paper eq. 14)
//! ```
//!
//! with a programmable function evaluator (`mdm-funceval`: 4th-order
//! interpolation, 1,024 segments) and cell-index hardware that walks 27
//! neighbour cells **without Newton's third law and without cutoff
//! skipping** — the ~13× work inflation the paper's `N_int_g` quantifies.
//!
//! The emulator bills the hierarchy above the pipeline from its numbers,
//! and builds boards and chips only as the per-i oracle and for the
//! Newton's-third-law mode:
//!
//! | paper | numbers (current MDM) | in the emulator |
//! |---|---|---|
//! | pipeline (Fig. 11) | f32 arithmetic, f64 accumulation, 1 pair/cycle | [`pipeline::MdgPipeline`] |
//! | chip (Fig. 10) | 4 pipelines, 100 MHz, ≈16 Gflops, 32-type coefficient RAM | [`chip::PIPELINES_PER_CHIP`], [`chip::AtomCoefficients`] |
//! | board (Fig. 9) | 2 chips, cell memory + dual index counters, 8 MB SSRAM | [`board::PIPELINES_PER_BOARD`], [`board::PARTICLE_CAPACITY`], [`timing::board_bill`]; [`board::MdgBoard`], the per-i oracle |
//! | cluster | 2 boards on a PCI bus | [`cluster::BOARDS_PER_CLUSTER`], dealt by [`timing::bill`] |
//! | system (Fig. 3) | 16 clusters = 64 chips ≈ 1 Tflops | [`Mdgrape2System`]: one loaded table and coefficient image, one tile sweep |
//!
//! plus [`api`] (the Table 3 host library: `MR1allocateboard`, `MR1init`,
//! `MR1SetTable`, `MR1calcvdw_block2`, `MR1free`), [`tables`] (the
//! g(x) tables for Ewald-real Coulomb, Lennard-Jones and the Tosi–Fumi
//! terms), [`plan`] (which i-particles share a tile of the emulator's
//! sweep) and [`timing`].
//!
//! ## Numerics
//!
//! "Most of the arithmetic units in the pipeline use IEEE754 single
//! floating point format. The double floating point format is used for
//! accumulating the force" (§3.5.4) — the pipeline here computes `r⃗ᵢⱼ`,
//! `aᵢⱼrᵢⱼ²`, `g(x)` and the multiplies in `f32` and accumulates in
//! `f64`, and lands at the paper's ~10⁻⁷ relative pairwise accuracy
//! (validated against the `f64` reference in the tests).
//!
//! Subnormals are **flushed to zero** inside every board call ([`ftz`]):
//! the special-purpose arithmetic units have no gradual-underflow path,
//! and because the cell-index hardware never skips far pairs, emulating
//! gradual underflow on the host would both diverge from the silicon
//! and pay a microcode assist on nearly every tail pair. All pipeline
//! paths (batched, per-pair reference, N3L) run under the same flush
//! mode, so their mutual bitwise/tolerance contracts are unchanged.
//!
//! ## One sweep for the passes of a composed force field
//!
//! The real host ran the §4 NaCl force field as four passes over the
//! same j-store with a table swap in between. Every pass walks the same
//! 27-cell pair set, so the emulator evaluates them side by side
//! ([`Mdgrape2System::calc_passes_with_jstore`]): the geometry once per
//! pair, then each pass's own `a·r²` → g(x) → `b·g·r⃗ᵢⱼ` into its own f64
//! accumulators. Per pass the result is bitwise what the pass alone
//! produces, and the counters ([`timing::MdgCounters`]) still bill every
//! pass in full — the model of the machine does not change, only the
//! time the host takes to emulate it.
//!
//! The sweep runs the silicon's own dataflow on every CPU: sixteen
//! resident i-particles to a tile — sixteen consecutive j-store slots,
//! whichever home cells they belong to — each streamed j-particle
//! broadcast to all of them, every lane adding into f64 chains of its own
//! under a mask of the cells in its own 27-cell box (the `sweep` module;
//! AVX-512 registers where the CPU has AVX-512 F, `[f32; 16]` arrays
//! elsewhere), in one parallel region over the tiles of a cached
//! [`plan::TilePlan`] above the board level; the boards are billed their
//! chunks by arithmetic ([`timing::bill`]). The per-i scalar column sweep
//! ([`board::MdgBoard::calc_block2`]) is the oracle both forms are pinned
//! against, bit for bit and counter for counter.

pub mod api;
pub mod board;
pub mod chip;
pub mod cluster;
pub mod ftz;
pub mod jstore;
pub mod pipeline;
pub mod plan;
mod simd;
mod sweep;
pub mod system;
pub mod tables;
pub mod timing;

pub use api::Mr1Library;
pub use jstore::JStore;
pub use plan::TilePlan;
pub use system::{Mdgrape2Config, Mdgrape2System, RealSpaceMode};
pub use tables::GFunction;
