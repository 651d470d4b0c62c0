//! The MDM force-field driver: the paper's §4 host program, one node.
//!
//! "The difference of the program when we use MDM is that we call
//! library routines to calculate real-space and wavenumber-space forces
//! instead of calling internal force subroutines." This module is that
//! program: a [`mdm_core::ForceField`] whose `compute` drives the
//! emulated WINE-2 (Table 2 routines) and MDGRAPE-2 (Table 3 routines).
//!
//! Per step:
//!
//! 1. build the cell-sorted j-store and upload it (`MR1calcvdw_block2`'s
//!    block structure);
//! 2. four MDGRAPE-2 force passes — Ewald-real Coulomb, Born–Mayer,
//!    `r⁻⁶`, `r⁻⁸` — each with its own `MR1SetTable` + coefficient
//!    upload. The emulator evaluates the four in one sweep of the pair
//!    set they share (bit-identical per pass; see
//!    `Mdgrape2System::calc_passes_with_jstore`) while the modeled
//!    machine is billed four passes, as the real one ran them;
//! 3. one WINE-2 evaluation (`calculate_force_and_pot_wavepart_nooffset`)
//!    for the wavenumber part;
//! 4. host adds the Ewald self-energy;
//! 5. every `potential_interval` steps (the paper used 100), the
//!    energy-mode passes re-evaluate the potential; between those steps
//!    the last known potential is carried (exactly the staleness the
//!    real runs had).

use crate::virial::PairTerms;
use mdgrape2::chip::AtomCoefficients;
use mdgrape2::jstore::JStore;
use mdgrape2::pipeline::PipelineMode;
use mdgrape2::system::{MdgPassResult, Mdgrape2Config, Mdgrape2System, TablePass};
use mdgrape2::tables::GFunction;
use mdgrape2::timing::MdgCounters;
use mdm_core::boxsim::SimBox;
use mdm_core::ewald::{self_energy, EwaldParams};
use mdm_core::forcefield::{ForceField, ForceResult};
use mdm_core::kvectors::{half_space_vectors, KVector};
use mdm_core::longrange::{LongRangeBackend, LongRangeCounters, LongRangeResult};
use mdm_core::potentials::TosiFumi;
use mdm_core::system::System;
use mdm_core::units::COULOMB_EV_A;
use mdm_core::vec3::Vec3;
use mdm_funceval::FunctionEvaluator;
use rayon::prelude::*;
use std::sync::OnceLock;
use wine2::system::{Wine2Config, Wine2System};
use wine2::timing::WineCounters;

/// Hardware counters for the last computed step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepCounters {
    /// WINE-2 counters.
    pub wine: WineCounters,
    /// MDGRAPE-2 counters merged over all passes.
    pub mdg: MdgCounters,
}

impl StepCounters {
    /// Total Ewald-credited flops (the paper's `59·N·N_int_g + 64·N·N_wv`
    /// when only the Coulomb passes are credited).
    pub fn credited_flops(&self) -> f64 {
        self.wine.credited_flops() + self.mdg.credited_flops()
    }
}

/// The WINE-2 board emulator behind the [`LongRangeBackend`] interface
/// — the adapter that lets the MDM driver swap its wavenumber engine
/// for any software backend (and vice versa: software force fields can
/// run on the emulated board).
pub struct Wine2Backend {
    wine: Wine2System,
    alpha: f64,
    n_max: f64,
    /// The half-space wave table, enumerated on first use (a driver
    /// that swaps WINE-2 for a mesh backend never pays for it) and
    /// reused every step.
    waves: OnceLock<Vec<KVector>>,
    last: WineCounters,
    warm: bool,
}

impl Wine2Backend {
    /// Build for the given Ewald parameterisation on `clusters`
    /// emulated clusters (results are cluster-count independent; only
    /// the concurrency accounting changes).
    pub fn new(params: &EwaldParams, clusters: usize) -> Self {
        Self {
            wine: Wine2System::new(Wine2Config { clusters }),
            alpha: params.alpha,
            n_max: params.n_max,
            waves: OnceLock::new(),
            last: WineCounters::default(),
            warm: false,
        }
    }

    /// Hardware counters of the last evaluation.
    pub fn last_wine_counters(&self) -> WineCounters {
        self.last
    }
}

impl LongRangeBackend for Wine2Backend {
    fn name(&self) -> &'static str {
        "wine2"
    }

    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn compute(
        &mut self,
        simbox: SimBox,
        positions: &[Vec3],
        charges: &[f64],
    ) -> LongRangeResult {
        // The board emulator owns its scratch (`Wine2System`: row plan,
        // particle columns, coefficient and result registers) and a
        // warm call reuses all of it for this fixed table and α.
        if self.warm {
            mdm_profile::counter("longrange_scratch_reuses", 1);
        } else {
            self.warm = true;
        }
        let waves = self.waves.get_or_init(|| half_space_vectors(self.n_max));
        let out = self
            .wine
            .compute_wavepart_with_waves(simbox, positions, charges, self.alpha, waves)
            .expect("wavepart");
        self.last = out.counters;
        let flops = out.counters.credited_flops();
        mdm_profile::counter("longrange_flops", flops as u64);
        // DFT/IDFT busy fraction of the whole pipeline array this
        // evaluation — the `wine.occupancy` utilization gauge.
        let pipes = (self.wine.config().chips() * wine2::chip::PIPELINES_PER_CHIP) as u64;
        mdm_profile::gauge("wine.occupancy", out.counters.pipeline_occupancy(pipes));
        LongRangeResult {
            energy: out.energy,
            forces: out.forces,
            // Host-side reduction over the board's structure factors,
            // same provenance as the energy.
            virial: out.virial,
            counters: LongRangeCounters {
                dft_ops: out.counters.dft_ops,
                idft_ops: out.counters.idft_ops,
                waves: out.counters.waves,
                flops,
                cycles: out.counters.cycles,
                bus_bytes: out.counters.bus_bytes_per_cluster,
            },
        }
    }

    fn describe(&self) -> String {
        format!(
            "WINE-2 emulator ({} clusters, alpha={}, {} waves)",
            self.wine.config().clusters,
            self.alpha,
            self.waves
                .get_or_init(|| half_space_vectors(self.n_max))
                .len()
        )
    }
}

/// Every backend the MDM driver can select by name: the emulated board
/// plus all of [`mdm_core::longrange::SOFTWARE_BACKENDS`].
pub const LONGRANGE_BACKENDS: &[&str] = &["wine2", "ewald", "pme", "pswf"];

/// Build a long-range backend by name — `"wine2"` for the emulated
/// board (sized to `wine_clusters`), else whatever the software
/// factory knows. `None` for an unknown name.
pub fn longrange_by_name(
    name: &str,
    params: &EwaldParams,
    l: f64,
    wine_clusters: usize,
) -> Option<Box<dyn LongRangeBackend>> {
    match name {
        "wine2" => Some(Box::new(Wine2Backend::new(params, wine_clusters))),
        _ => mdm_core::longrange::by_name(name, params, l),
    }
}

/// The stale-carried potential-cadence state of the driver: what the
/// energy-mode passes produced when they last ran, plus how long ago.
/// The checkpoint layer exports and restores this so a resumed run
/// carries exactly the staleness the uninterrupted run would have had
/// (and therefore streams bit-identical observables).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PotentialCarry {
    /// Real-space Coulomb energy of the last energy passes (eV).
    pub e_real: f64,
    /// Short-range energy of the last energy passes (eV).
    pub e_short: f64,
    /// Host-side real-space virial of the last energy passes (eV).
    pub virial_real: f64,
    /// Force evaluations since the energy passes last ran.
    pub steps_since: u64,
}

impl PotentialCarry {
    /// Checkpoint-extras keys (see
    /// [`mdm_core::checkpoint::Checkpoint::extras`]).
    const KEYS: [&'static str; 4] = [
        "carry.e_real",
        "carry.e_short",
        "carry.virial_real",
        "carry.steps_since",
    ];

    /// Flatten into a checkpoint's `extras` map. Energies keep their
    /// exact bits (the map is bit-exact end to end); `steps_since` is
    /// exact as an `f64` for any realistic cadence (< 2⁵³).
    pub fn to_extras(&self, extras: &mut std::collections::BTreeMap<String, f64>) {
        let vals = [
            self.e_real,
            self.e_short,
            self.virial_real,
            self.steps_since as f64,
        ];
        for (k, v) in Self::KEYS.iter().zip(vals) {
            extras.insert((*k).to_string(), v);
        }
    }

    /// Read back from a checkpoint's `extras`; `None` if the carry
    /// keys are absent (a checkpoint from a different force field).
    pub fn from_extras(extras: &std::collections::BTreeMap<String, f64>) -> Option<Self> {
        let mut vals = [0.0f64; 4];
        for (slot, k) in vals.iter_mut().zip(Self::KEYS) {
            *slot = *extras.get(k)?;
        }
        Some(PotentialCarry {
            e_real: vals[0],
            e_short: vals[1],
            virial_real: vals[2],
            steps_since: vals[3] as u64,
        })
    }
}

/// The eight fitted function-table images (force + energy kernels for
/// the four §4 passes) an [`MdmForceField`] needs. Building them runs
/// the table-fit utility eight times — by far the most expensive part
/// of constructing a force field — so hosts that spin up many runs
/// build one `MdmTables` and clone it per run.
#[derive(Clone)]
pub struct MdmTables {
    force_tables: [FunctionEvaluator; 4],
    energy_tables: [FunctionEvaluator; 4],
}

impl MdmTables {
    /// The §4 kernels in table order: the four force passes, then the
    /// four energy passes.
    const KERNELS: [GFunction; 8] = [
        GFunction::CoulombRealForce,
        GFunction::BornMayerForce,
        GFunction::Dispersion6Force,
        GFunction::Dispersion8Force,
        GFunction::CoulombRealEnergy,
        GFunction::BornMayerEnergy,
        GFunction::Dispersion6Energy,
        GFunction::Dispersion8Energy,
    ];

    /// Run the §4 table-fit utility for all eight kernels, one kernel
    /// per parallel item. The collect keeps kernel order and each fit is
    /// serial, so the images do not depend on the thread count, and the
    /// first failing kernel in that order is the error returned.
    pub fn build() -> Result<Self, mdm_funceval::TableBuildError> {
        let mut fitted = Self::KERNELS
            .par_iter()
            .map(GFunction::build_evaluator)
            .collect::<Result<Vec<_>, _>>()?
            .into_iter();
        let mut next = || fitted.next().expect("one table per kernel");
        Ok(Self {
            force_tables: std::array::from_fn(|_| next()),
            energy_tables: std::array::from_fn(|_| next()),
        })
    }
}

/// Force field evaluated on the emulated MDM.
pub struct MdmForceField {
    longrange: Box<dyn LongRangeBackend>,
    mdg: Mdgrape2System,
    params: EwaldParams,
    short: TosiFumi,
    /// Prebuilt function-table images (the §4 utility program output).
    force_tables: [FunctionEvaluator; 4],
    energy_tables: [FunctionEvaluator; 4],
    potential_interval: u64,
    steps_since_potential: u64,
    /// `(e_real, e_short, virial_real)` of the last energy passes.
    last_potential: Option<(f64, f64, f64)>,
    last_counters: StepCounters,
    /// Only credit the Coulomb passes in the flop counters (the paper
    /// excludes "the force calculation other than the Coulomb").
    coulomb_pass_ops: u64,
    /// Wall clock of this step's MDGRAPE-2 uploads and sweeps (force
    /// and potential, each timed inside its `comm` or `real` span): the
    /// window the j-store upload-bandwidth gauge divides by.
    mdg_seconds: f64,
    /// The j-store carried across steps and refreshed in place (see
    /// [`JStore::refresh`]); `None` until the first step.
    jstore: Option<JStore>,
    /// The real-space virial's fitted pair terms, kept across jobs while
    /// `(κ, r_cut, species charges)` stay the same.
    virial_terms: Option<PairTerms>,
}

impl MdmForceField {
    /// Assemble the machine for an NaCl system with the given Ewald
    /// parameters. `wine_clusters`/`mdg_clusters` size the emulated
    /// hardware (use small numbers for tests — results are identical,
    /// only the concurrency accounting changes).
    pub fn new(
        params: EwaldParams,
        wine_clusters: usize,
        mdg_clusters: usize,
    ) -> Result<Self, mdm_funceval::TableBuildError> {
        Ok(Self::with_tables(
            params,
            wine_clusters,
            mdg_clusters,
            MdmTables::build()?,
        ))
    }

    /// Like [`Self::new`] with prebuilt function tables. The tables
    /// are parameter-independent (they fit the dimensionless g(x)
    /// kernels, not any particular α or box), so a multi-run host — the
    /// serve layer time-slicing hundreds of jobs — builds them once
    /// and clones them per job instead of re-running the table fits.
    pub fn with_tables(
        params: EwaldParams,
        wine_clusters: usize,
        mdg_clusters: usize,
        tables: MdmTables,
    ) -> Self {
        let MdmTables {
            force_tables,
            energy_tables,
        } = tables;
        Self {
            longrange: Box::new(Wine2Backend::new(&params, wine_clusters)),
            mdg: Mdgrape2System::new(
                Mdgrape2Config {
                    clusters: mdg_clusters,
                },
                force_tables[0].clone(),
                AtomCoefficients::uniform(1.0, 0.0),
            ),
            params,
            short: TosiFumi::nacl(),
            force_tables,
            energy_tables,
            potential_interval: 1,
            steps_since_potential: 0,
            last_potential: None,
            last_counters: StepCounters::default(),
            coulomb_pass_ops: 0,
            mdg_seconds: 0.0,
            jstore: None,
            virial_terms: None,
        }
    }

    /// A convenient NaCl configuration for a box of side `l`: α chosen
    /// so `r_cut ≈ L/3` (three cells per side, the hardware minimum),
    /// accuracy `s ≈ 3.2`.
    pub fn nacl_default(l: f64) -> Result<Self, mdm_funceval::TableBuildError> {
        Ok(Self::nacl_default_with_tables(l, MdmTables::build()?))
    }

    /// [`Self::nacl_default`] with prebuilt tables (see
    /// [`Self::with_tables`]) — the per-job constructor the run server
    /// uses so a hundred small jobs don't re-run a hundred table fits.
    pub fn nacl_default_with_tables(l: f64, tables: MdmTables) -> Self {
        Self::with_tables(Self::nacl_default_params(l), 2, 2, tables)
    }

    /// The Ewald parameters [`Self::nacl_default`] picks for a box of
    /// side `l`.
    pub fn nacl_default_params(l: f64) -> EwaldParams {
        let s = 3.2;
        let alpha = 3.0 * s * 1.02; // r_cut = s·L/α ≈ L/3.06
        EwaldParams::from_alpha_accuracy(alpha, s, s, l)
    }

    /// Make the machine ready for another job with the same parameters,
    /// as a host reloads hardware that persists between runs: forget the
    /// previous job's potential carry, cadence, counters and j-store.
    /// What stays is what a fresh machine would rebuild the same — the
    /// function tables, both emulators with their row plan, tile plan
    /// and scratch, the wave table and the virial's fitted pair terms
    /// (refitted if the next job's κ, `r_cut` or species charges differ)
    /// — so the next job computes every bit, counter included, as it
    /// would on a new machine.
    pub fn forget_job(&mut self) {
        self.potential_interval = 1;
        self.steps_since_potential = 0;
        self.last_potential = None;
        self.last_counters = StepCounters::default();
        self.coulomb_pass_ops = 0;
        self.jstore = None;
    }

    /// Evaluate the potential every `interval` steps (paper: 100) and
    /// carry the stale value in between; `1` = every step.
    pub fn set_potential_interval(&mut self, interval: u64) {
        assert!(interval >= 1);
        self.potential_interval = interval;
    }

    /// The Ewald parameters.
    pub fn params(&self) -> &EwaldParams {
        &self.params
    }

    /// Swap the wavenumber backend — `wine2` (the default), `ewald`,
    /// `pme`, `pswf`, … The backend's α must match the driver's
    /// parameters, same contract as
    /// [`mdm_core::forcefield::EwaldTosiFumi::with_longrange`].
    pub fn set_longrange(&mut self, longrange: Box<dyn LongRangeBackend>) {
        assert!(
            (longrange.alpha() - self.params.alpha).abs() < 1e-12,
            "backend alpha {} != params alpha {}",
            longrange.alpha(),
            self.params.alpha
        );
        self.longrange = longrange;
    }

    /// The active wavenumber backend.
    pub fn longrange(&self) -> &dyn LongRangeBackend {
        self.longrange.as_ref()
    }

    /// Hardware counters of the last `compute` call.
    pub fn last_counters(&self) -> StepCounters {
        self.last_counters
    }

    /// Export the stale-carried potential state for a checkpoint, or
    /// `None` before the first evaluation.
    pub fn potential_carry(&self) -> Option<PotentialCarry> {
        self.last_potential
            .map(|(e_real, e_short, virial_real)| PotentialCarry {
                e_real,
                e_short,
                virial_real,
                steps_since: self.steps_since_potential,
            })
    }

    /// Restore a [`PotentialCarry`] from a checkpoint: the next
    /// `compute` re-runs the energy passes at exactly the step the
    /// uninterrupted run would have, carrying the stale values until
    /// then.
    pub fn restore_potential_carry(&mut self, carry: PotentialCarry) {
        self.last_potential = Some((carry.e_real, carry.e_short, carry.virial_real));
        self.steps_since_potential = carry.steps_since;
    }

    /// Host-side real-space virial `Σ f⃗·d⃗` over the unordered pairs of
    /// the hardware's block-pair set within `r_cut`, in f64 (see
    /// [`crate::virial`]). The MDGRAPE-2 pipelines accumulate forces
    /// only, so the driver reduces the virial itself — at the potential
    /// cadence, carried stale between energy passes exactly like the
    /// potential. The pair terms come from the machine's fitted table,
    /// fitted here on the first energy evaluation and again only when
    /// `(κ, r_cut, species charges)` change. The j-store's cell list is
    /// the walk's grid, and `JStore::build` has already refused fewer
    /// than 3 cells per side, so the half shell never meets an aliased
    /// neighbour cell.
    fn real_virial(&mut self, system: &System, jstore: &JStore, kappa: f64) -> f64 {
        let _host = mdm_profile::span(mdm_profile::phase::HOST);
        let _virial = mdm_profile::span("virial");
        let r_cut = self.params.r_cut;
        let terms = match self.virial_terms.take() {
            Some(terms) if terms.fits(kappa, r_cut, system.species()) => terms,
            _ => {
                let _fit = mdm_profile::span("fit");
                PairTerms::fit(kappa, r_cut, system.species(), &self.short)
            }
        };
        let virial = crate::virial::real_virial(jstore.cells(), system, &terms);
        self.virial_terms = Some(terms);
        virial
    }

    /// Real-space pair interactions of the last Coulomb force pass —
    /// the count the paper's `59 flops/pair` credit applies to
    /// (passes 2–4 recompute the same pairs for the short-range terms
    /// and are excluded, like the paper excludes "the force
    /// calculation other than the Coulomb").
    pub fn coulomb_pair_ops(&self) -> u64 {
        self.coulomb_pass_ops
    }

    /// The per-pass `(aᵢⱼ, bᵢⱼ)` coefficient matrices for the NaCl
    /// species table — force kernels, or their energy counterparts.
    /// `kappa = α/L`.
    fn coefficients(&self, system: &System, kappa: f64, energy: bool) -> [AtomCoefficients; 4] {
        let species = system.species();
        let nt = species.len();
        let rho = self.short.rho();
        let mut coulomb_a = vec![vec![0.0; nt]; nt];
        let mut coulomb_b = vec![vec![0.0; nt]; nt];
        let mut bm_a = vec![vec![0.0; nt]; nt];
        let mut bm_b = vec![vec![0.0; nt]; nt];
        let mut d6_a = vec![vec![0.0; nt]; nt];
        let mut d6_b = vec![vec![0.0; nt]; nt];
        let mut d8_a = vec![vec![0.0; nt]; nt];
        let mut d8_b = vec![vec![0.0; nt]; nt];
        for i in 0..nt {
            for j in 0..nt {
                let qq = species[i].charge * species[j].charge;
                coulomb_a[i][j] = kappa * kappa;
                coulomb_b[i][j] = if energy {
                    COULOMB_EV_A * qq * kappa
                } else {
                    COULOMB_EV_A * qq * kappa.powi(3)
                };
                bm_a[i][j] = 1.0 / (rho * rho);
                let prefactor = self.short.born_mayer_prefactor(i, j);
                bm_b[i][j] = if energy {
                    prefactor
                } else {
                    prefactor / (rho * rho)
                };
                d6_a[i][j] = 1.0;
                d6_b[i][j] = if energy {
                    -self.short.c6(i, j)
                } else {
                    -6.0 * self.short.c6(i, j)
                };
                d8_a[i][j] = 1.0;
                d8_b[i][j] = if energy {
                    -self.short.d8(i, j)
                } else {
                    -8.0 * self.short.d8(i, j)
                };
            }
        }
        [
            AtomCoefficients::new(&coulomb_a, &coulomb_b),
            AtomCoefficients::new(&bm_a, &bm_b),
            AtomCoefficients::new(&d6_a, &d6_b),
            AtomCoefficients::new(&d8_a, &d8_b),
        ]
    }

    /// The four §4 passes (Ewald-real, Born–Mayer, `r⁻⁶`, `r⁻⁸`) in
    /// `mode` over one j-store. The host uploads each pass's table and
    /// coefficient images — timed as `comm`, not billed — and the boards
    /// then evaluate the four passes in one sweep of the pair set they
    /// share (see [`Mdgrape2System::calc_passes_with_jstore`]); every
    /// pass still returns, and is billed, its own counters.
    fn real_space_passes(
        &mut self,
        mode: PipelineMode,
        system: &System,
        jstore: &JStore,
        kappa: f64,
    ) -> [MdgPassResult; 4] {
        let energy = mode == PipelineMode::Potential;
        let coeffs = self.coefficients(system, kappa, energy);
        let tables = if energy {
            &self.energy_tables
        } else {
            &self.force_tables
        };
        let passes: [TablePass<'_>; 4] = std::array::from_fn(|p| TablePass {
            table: &tables[p],
            coefficients: &coeffs[p],
        });
        {
            let _comm = mdm_profile::span(mdm_profile::phase::COMM);
            let _upload = mdm_profile::span("upload");
            let started = std::time::Instant::now();
            for pass in &passes {
                self.mdg.load_table(pass.table);
                self.mdg.load_coefficients(pass.coefficients);
            }
            self.mdg_seconds += started.elapsed().as_secs_f64();
        }
        let _real = mdm_profile::span(mdm_profile::phase::REAL);
        let _pot = energy.then(|| mdm_profile::span("potential"));
        let started = std::time::Instant::now();
        let results = self
            .mdg
            .calc_passes_with_jstore(mode, &passes, system.positions(), system.types(), jstore)
            .expect("real-space passes");
        self.mdg_seconds += started.elapsed().as_secs_f64();
        for pass in &results {
            self.last_counters.mdg.merge(&pass.counters);
        }
        results
    }

    /// Run the four energy-mode passes; returns (coulomb_real, short).
    fn potential_passes(&mut self, system: &System, jstore: &JStore, kappa: f64) -> (f64, f64) {
        // Ordered pairs double-count: halve.
        let [e_real, bm, d6, d8] = self
            .real_space_passes(PipelineMode::Potential, system, jstore, kappa)
            .map(|pass| 0.5 * pass.values.iter().map(|v| v[0]).sum::<f64>());
        (e_real, bm + d6 + d8)
    }
}

impl ForceField for MdmForceField {
    fn compute(&mut self, system: &System) -> ForceResult {
        let simbox = system.simbox();
        let l = simbox.l();
        let kappa = self.params.kappa(l);
        let n = system.len();
        self.last_counters = StepCounters::default();
        self.coulomb_pass_ops = 0;
        self.mdg_seconds = 0.0;

        // j-store shared by all MDGRAPE-2 passes this step: refreshed in
        // place from the previous step (bit-identical to a from-scratch
        // build — the JStore::refresh contract), built on the first.
        let jstore = {
            let _host = mdm_profile::span(mdm_profile::phase::HOST);
            match self.jstore.take() {
                Some(mut js) => {
                    js.refresh(simbox, system.positions(), system.types(), self.params.r_cut);
                    js
                }
                None => JStore::build(simbox, system.positions(), system.types(), self.params.r_cut),
            }
        };

        // --- MDGRAPE-2: four force passes. ---
        let passes = self.real_space_passes(PipelineMode::Force, system, &jstore, kappa);
        let mut forces = vec![Vec3::ZERO; n];
        for pass in &passes {
            for (f, v) in forces.iter_mut().zip(&pass.values) {
                *f += Vec3::new(v[0], v[1], v[2]);
            }
        }
        self.coulomb_pass_ops = passes[0].counters.pair_ops;

        // --- Wavenumber part (WINE-2 by default, any backend by name). ---
        let wave = {
            let _wave = mdm_profile::span(mdm_profile::phase::WAVE);
            self.longrange
                .compute(simbox, system.positions(), system.charges())
        };
        for (f, df) in forces.iter_mut().zip(&wave.forces) {
            *f += *df;
        }
        self.last_counters.wine = WineCounters {
            dft_ops: wave.counters.dft_ops,
            idft_ops: wave.counters.idft_ops,
            cycles: wave.counters.cycles,
            bus_bytes_per_cluster: wave.counters.bus_bytes,
            waves: wave.counters.waves,
            // Mesh backends report zero ops — then nothing ran on the
            // emulated board this step.
            particles: if wave.counters.dft_ops > 0 { n as u64 } else { 0 },
        };

        // --- Host: self-energy. ---
        let e_self = {
            let _host = mdm_profile::span(mdm_profile::phase::HOST);
            self_energy(kappa, system.charges())
        };

        // --- Potential (every `potential_interval` steps). ---
        let need_potential =
            self.last_potential.is_none() || self.steps_since_potential + 1 >= self.potential_interval;
        if need_potential {
            let (e_real, e_short) = self.potential_passes(system, &jstore, kappa);
            let virial_real = self.real_virial(system, &jstore, kappa);
            self.last_potential = Some((e_real, e_short, virial_real));
            self.steps_since_potential = 0;
        } else {
            self.steps_since_potential += 1;
        }
        let (e_real, e_short, virial_real) =
            self.last_potential.expect("potential computed at least once");

        // Per-device utilization gauges (sampled once per step, so the
        // trace exporter can draw them as counter tracks and the run
        // ledger can summarize them). Occupancy is work over pipeline
        // slots of the busy window; the upload gauge is the modeled bus
        // bytes over the measured wall clock of the MDGRAPE-2 passes
        // (uploads and sweeps, not the wavenumber part or the host's
        // work between them) — the bandwidth the emulated bus sustained.
        let mdg_pipes = (self.mdg.config().boards()
            * mdgrape2::board::PIPELINES_PER_BOARD) as u64;
        mdm_profile::gauge(
            "mdg.occupancy",
            self.last_counters.mdg.pipeline_occupancy(mdg_pipes),
        );
        mdm_profile::gauge(
            "comm.jstore_upload_mbps",
            self.last_counters.mdg.upload_bandwidth(self.mdg_seconds) / 1e6,
        );

        // Engine counters beside the wall-clock spans — the modeled leg
        // of the measured-vs-modeled comparison.
        mdm_profile::counter("wine_dft_ops", self.last_counters.wine.dft_ops);
        mdm_profile::counter("wine_idft_ops", self.last_counters.wine.idft_ops);
        mdm_profile::counter("wine_cycles", self.last_counters.wine.cycles);
        mdm_profile::counter("mdg_pair_ops", self.last_counters.mdg.pair_ops);
        mdm_profile::counter("mdg_cycles", self.last_counters.mdg.cycles);
        // Coulomb pass only: the paper's 59-flop pair credit excludes
        // the Born–Mayer/dispersion passes, so the live flop meter
        // needs this count separately from the all-pass total.
        mdm_profile::counter("mdg_coulomb_pair_ops", self.coulomb_pass_ops);

        self.jstore = Some(jstore);

        let coulomb = e_real + wave.energy + e_self;
        ForceResult {
            forces,
            potential: coulomb + e_short,
            coulomb,
            short_range: e_short,
            // Real-space part reduced host-side at the potential
            // cadence; wavenumber part fresh every step from the
            // backend's structure factors.
            virial: virial_real + wave.virial,
        }
    }

    fn describe(&self) -> String {
        format!(
            "MDM machine (wave: {}, MDGRAPE-2 {} clusters, alpha={}, r_cut={:.2} A, n_max={:.1})",
            self.longrange.describe(),
            self.mdg.config().clusters,
            self.params.alpha,
            self.params.r_cut,
            self.params.n_max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_core::forcefield::EwaldTosiFumi;
    use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};

    fn perturbed(cells: usize) -> System {
        let mut s = rocksalt_nacl(cells, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.31, -0.17, 0.12));
        s.displace(5, Vec3::new(-0.21, 0.08, 0.33));
        s.displace(17, Vec3::new(0.05, 0.25, -0.2));
        s
    }

    /// An exact-f64 reference with the *hardware's* pair semantics:
    /// the same 27-cell block traversal with no cutoff skip for the
    /// real-space terms, plus the f64 reciprocal sum and self-energy.
    /// Differences against this isolate the emulator's finite precision
    /// (f32 pipelines, fixed-point DFT) from cutoff physics.
    fn block_reference(s: &System, params: &EwaldParams) -> (Vec<Vec3>, f64) {
        use mdm_core::celllist::CellList;
        let simbox = s.simbox();
        let kappa = params.kappa(simbox.l());
        let tf = TosiFumi::nacl();
        let cl = CellList::build(simbox, s.positions(), params.r_cut);
        let mut forces = vec![Vec3::ZERO; s.len()];
        let mut e_real = 0.0;
        let mut e_short = 0.0;
        let charges = s.charges();
        let types = s.types();
        use mdm_core::potentials::ShortRangePotential;
        cl.for_each_block_pair(s.positions(), |i, j, d, r_sq| {
            let r = r_sq.sqrt();
            let (e, f_over_r) = mdm_core::ewald::real::real_kernel(kappa, r_sq);
            let qq = COULOMB_EV_A * charges[i] * charges[j];
            let (ti, tj) = (types[i] as usize, types[j] as usize);
            let fs = tf.force_over_r(ti, tj, r);
            forces[i] += d * (qq * f_over_r + fs);
            e_real += 0.5 * qq * e;
            e_short += 0.5 * mdm_core::potentials::ShortRangePotential::energy(&tf, ti, tj, r);
        });
        let waves = half_space_vectors(params.n_max);
        let recip = mdm_core::ewald::recip::recip_space(
            simbox,
            s.positions(),
            charges,
            params.alpha,
            &waves,
        );
        for (f, df) in forces.iter_mut().zip(&recip.forces) {
            *f += *df;
        }
        let e_self = self_energy(kappa, charges);
        (forces, e_real + e_short + recip.energy + e_self)
    }

    /// The boards must not notice how the host evaluates `erfc`:
    /// `mdgrape2::tables` fits the two Coulomb kernels from the same
    /// function, and one moved `f32` coefficient would move every force.
    /// FNV-1a over the eight coefficient-RAM images' bits, pinned at the
    /// value the series/continued-fraction `erfc` produced (the table
    /// fit still reads that one: `mdm_core::special::erfc_expansion`).
    #[test]
    fn table_images_are_pinned() {
        let tables = MdmTables::build().unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for evaluator in tables.force_tables.iter().chain(&tables.energy_tables) {
            for coefficient in evaluator.table().rows().iter().flatten() {
                for byte in coefficient.to_bits().to_le_bytes() {
                    digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 0x3ee1_b415_ffeb_0d1d, "digest {digest:#018x}");
    }

    #[test]
    fn forces_match_f64_block_reference() {
        let s = perturbed(3);
        let mut hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        let fr_hw = hw.compute(&s);
        let (f_ref, _) = block_reference(&s, hw.params());
        let scale = f_ref.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
        for (i, (a, b)) in fr_hw.forces.iter().zip(&f_ref).enumerate() {
            let rel = (*a - *b).norm() / scale;
            // Budget: MDGRAPE-2 f32 (~1e-6) + WINE-2 fixed point
            // (~1e-4.5 of the smaller wavenumber part).
            assert!(rel < 1e-4, "particle {i}: rel {rel} ({a:?} vs {b:?})");
        }
    }

    #[test]
    fn energy_matches_f64_block_reference() {
        let s = perturbed(3);
        let mut hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        let e_hw = hw.compute(&s).potential;
        let (_, e_ref) = block_reference(&s, hw.params());
        assert!(
            ((e_hw - e_ref) / e_ref).abs() < 1e-5,
            "hw {e_hw} vs ref {e_ref}"
        );
    }

    #[test]
    fn close_to_conventional_reference_at_the_percent_level() {
        // Against the *conventional* cutoff-skipping software field the
        // remaining difference is cutoff physics (the hardware keeps
        // the r > r_cut tails of every kernel): small but nonzero.
        let s = perturbed(3);
        let mut hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        let mut sw = EwaldTosiFumi::new(*hw.params(), TosiFumi::nacl());
        let e_hw = hw.compute(&s).potential;
        let e_sw = sw.compute(&s).potential;
        let rel = ((e_hw - e_sw) / e_sw).abs();
        assert!(rel < 1e-2, "hw {e_hw} vs sw {e_sw}");
    }

    #[test]
    fn virial_is_finite_and_close_to_f64_reference() {
        // The driver's virial (host-side real reduction + WINE-2
        // structure-factor reduction) against the software reference
        // field at the same parameters. Both truncate the real sum at
        // r_cut, so the residual is WINE-2 fixed-point noise plus
        // summation-order rounding — well under 1% even on the small,
        // nearly-cancelling crystal virial.
        let s = perturbed(3);
        let mut hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        let mut sw = EwaldTosiFumi::new(*hw.params(), TosiFumi::nacl());
        let w_hw = hw.compute(&s).virial;
        let w_sw = sw.compute(&s).virial;
        assert!(w_hw.is_finite(), "MDM virial must be finite now");
        let rel = ((w_hw - w_sw) / w_sw).abs();
        assert!(rel < 1e-2, "hw {w_hw} vs sw {w_sw} (rel {rel})");
    }

    /// The real-space virial as `real_virial` reduced it before the
    /// half-shell walk: every ordered block pair, `× 0.5`, one serial
    /// sum — the formula the new sum must equal to reassociation.
    fn ordered_pair_virial(ff: &MdmForceField, system: &System) -> f64 {
        use mdm_core::potentials::ShortRangePotential;
        let kappa = ff.params.kappa(system.simbox().l());
        let r_cut = ff.params.r_cut.min(system.simbox().max_cutoff());
        let r_cut_sq = r_cut * r_cut;
        let cl =
            mdm_core::celllist::CellList::build(system.simbox(), system.positions(), r_cut);
        let charges = system.charges();
        let types = system.types();
        let mut virial = 0.0;
        cl.for_each_block_pair(system.positions(), |i, j, _d, r_sq| {
            if r_sq > r_cut_sq {
                return;
            }
            let r = r_sq.sqrt();
            let (_e, f_over_r) = mdm_core::ewald::real::real_kernel(kappa, r_sq);
            let qq = COULOMB_EV_A * charges[i] * charges[j];
            let fs = ff
                .short
                .force_over_r(types[i] as usize, types[j] as usize, r);
            virial += 0.5 * (qq * f_over_r + fs) * r_sq;
        });
        virial
    }

    /// `real_virial` with the pair terms `ff` fits on its first energy
    /// evaluation.
    fn half_shell_virial(ff: &MdmForceField, system: &System) -> f64 {
        let jstore = JStore::build(
            system.simbox(),
            system.positions(),
            system.types(),
            ff.params.r_cut,
        );
        let kappa = ff.params.kappa(system.simbox().l());
        let terms = PairTerms::fit(kappa, ff.params.r_cut, system.species(), &ff.short);
        crate::virial::real_virial(jstore.cells(), system, &terms)
    }

    /// A hot N = 8·cells³ melt a few steps off the lattice.
    fn molten(cells: usize) -> System {
        use mdm_core::integrate::Simulation;
        let mut s = rocksalt_nacl(cells, NACL_LATTICE_A);
        mdm_core::velocities::maxwell_boltzmann(&mut s, 1500.0, 31);
        let ff = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        let mut sim = Simulation::new(s, ff, 2.0);
        sim.run(3);
        sim.system().clone()
    }

    /// `stress_config` of `tests/realspace_equivalence.rs` as a
    /// `System`: a generic cloud, a pair 1e-3 Å apart (its `r⁻⁸` term
    /// dwarfs everything else in the sum) and a lone corner particle.
    fn clustered() -> System {
        let l = 24.0;
        let mut s = System::new(SimBox::cubic(l), mdm_core::lattice::nacl_species());
        let mut pos: Vec<Vec3> = (0..96u32)
            .map(|i| {
                let t = i as f64;
                Vec3::new(
                    (t * 0.754_877_666).fract() * l,
                    (t * 0.569_840_291).fract() * l,
                    (t * 0.362_912_223).fract() * l,
                )
            })
            .collect();
        pos.push(Vec3::new(3.0, 3.0, 3.0));
        pos.push(Vec3::new(3.0 + 1e-3, 3.0, 3.0));
        pos.push(Vec3::new(l - 0.1, l - 0.1, l - 0.1));
        for (i, p) in pos.into_iter().enumerate() {
            s.push_particle(i % 2, p);
        }
        s
    }

    fn assert_virials_agree(ff: &MdmForceField, system: &System, what: &str) {
        let new = half_shell_virial(ff, system);
        let old = ordered_pair_virial(ff, system);
        assert!(new.is_finite() && new != 0.0, "{what}: virial {new}");
        let rel = ((new - old) / old).abs();
        assert!(rel <= 1e-12, "{what}: half-shell {new} vs ordered {old} (rel {rel:e})");
    }

    #[test]
    fn real_virial_is_bitwise_independent_of_the_thread_count() {
        for (what, s) in [("molten N = 512", molten(4)), ("clustered", clustered())] {
            let ff = MdmForceField::nacl_default(s.simbox().l()).unwrap();
            let [one, two, four] =
                [1, 2, 4].map(|n| rayon::with_num_threads(n, || half_shell_virial(&ff, &s)));
            assert_eq!(one.to_bits(), two.to_bits(), "{what}: 1 vs 2 threads");
            assert_eq!(one.to_bits(), four.to_bits(), "{what}: 1 vs 4 threads");
        }
    }

    #[test]
    fn real_virial_matches_the_ordered_pair_sum() {
        for (what, s) in [("molten N = 512", molten(4)), ("clustered", clustered())] {
            let ff = MdmForceField::nacl_default(s.simbox().l()).unwrap();
            assert_virials_agree(&ff, &s, what);
        }
    }

    #[test]
    fn real_virial_matches_the_ordered_pair_sum_in_the_smallest_box() {
        // r_cut capped at exactly L/3 gives the coarsest grid the machine
        // takes: 3 cells per side, where every cell's 27 neighbours are
        // the 27 cells of the box, each once. That is still enough for
        // the half shell (offset o from c and −o from its partner are
        // distinct entries), so it needs no special case; a coarser grid
        // never gets this far because `JStore::build` panics on it. (The
        // 1-cell box, N = 8, has no pair within L/3 = 1.9 Å; N = 64 is
        // the smallest with a virial to compare.)
        for cells in [2, 3] {
            let mut s = rocksalt_nacl(cells, NACL_LATTICE_A);
            s.displace_all(|i| {
                let t = i as f64;
                Vec3::new((0.7 * t).sin(), (1.3 * t).cos(), (2.1 * t).sin()) * 0.4
            });
            let l = s.simbox().l();
            let params = EwaldParams::new(9.0, l / 3.0, 3.0);
            let ff = MdmForceField::new(params, 1, 1).unwrap();
            assert_eq!(
                JStore::build(s.simbox(), s.positions(), s.types(), params.r_cut)
                    .cells()
                    .cells_per_side(),
                3
            );
            assert_virials_agree(&ff, &s, &format!("{cells}-cell box at r_cut = L/3"));
        }
    }

    /// The driver with its real-space virial swapped for the
    /// ordered-pair formula.
    struct OrderedPairVirial(MdmForceField);

    impl ForceField for OrderedPairVirial {
        fn compute(&mut self, system: &System) -> ForceResult {
            let mut result = self.0.compute(system);
            let (_, _, half_shell) = self.0.last_potential.expect("energy pass every step");
            let wave = result.virial - half_shell;
            result.virial = ordered_pair_virial(&self.0, system) + wave;
            result
        }
    }

    #[test]
    fn trajectory_does_not_depend_on_which_virial_formula_runs() {
        use mdm_core::integrate::Simulation;
        use mdm_core::observables::pressure_gpa;
        let start = molten(4);
        let l = start.simbox().l();
        let field = || MdmForceField::nacl_default(l).unwrap();
        let mut new = Simulation::new(start.clone(), field(), 2.0);
        let mut old = Simulation::new(start, OrderedPairVirial(field()), 2.0);
        for step in 0..=20 {
            if step > 0 {
                new.step();
                old.step();
            }
            assert_eq!(new.system().positions(), old.system().positions(), "step {step}");
            assert_eq!(new.system().velocities(), old.system().velocities(), "step {step}");
            let (a, b) = (new.current_forces(), old.current_forces());
            assert_eq!(a.forces, b.forces, "step {step}");
            assert_eq!(a.potential.to_bits(), b.potential.to_bits(), "step {step}");
            let (pa, pb) = (
                pressure_gpa(new.system(), a.virial),
                pressure_gpa(old.system(), b.virial),
            );
            assert!(
                ((pa - pb) / pb).abs() <= 1e-12,
                "step {step}: pressure {pa} vs {pb} GPa"
            );
        }
    }

    #[test]
    fn potential_carry_round_trips() {
        // Export-then-restore reproduces the exact stale state: a fresh
        // field with the carry restored computes the same result as the
        // original field would on its next step.
        let s = perturbed(3);
        let mut a = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        a.set_potential_interval(100);
        let _ = a.compute(&s);
        let carry = a.potential_carry().expect("computed once");
        assert_eq!(carry.steps_since, 0);

        let mut b = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        b.set_potential_interval(100);
        b.restore_potential_carry(carry);
        let mut s2 = s.clone();
        s2.displace(1, Vec3::new(0.2, 0.0, 0.0));
        let ra = a.compute(&s2);
        let rb = b.compute(&s2);
        assert_eq!(ra.potential, rb.potential);
        assert_eq!(ra.virial, rb.virial);
        assert_eq!(ra.short_range, rb.short_range);
    }

    /// An N = 64 job at 1200 K from `seed`, its first
    /// `steps` force evaluations on `ff` (the initial one included):
    /// every result, the counters after each and the carry at the end.
    fn run_job(
        ff: MdmForceField,
        seed: u64,
        interval: u64,
        steps: usize,
    ) -> (
        Vec<(ForceResult, StepCounters)>,
        Option<PotentialCarry>,
        MdmForceField,
    ) {
        use mdm_core::integrate::Simulation;
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        mdm_core::velocities::maxwell_boltzmann(&mut s, 1200.0, seed);
        let mut ff = ff;
        ff.set_potential_interval(interval);
        let mut sim = Simulation::new(s, ff, 2.0);
        let mut seen = Vec::new();
        for step in 0..steps {
            if step > 0 {
                sim.step();
            }
            seen.push((
                sim.current_forces().clone(),
                sim.force_field().last_counters(),
            ));
        }
        let carry = sim.force_field().potential_carry();
        (seen, carry, sim.into_force_field())
    }

    #[test]
    fn a_machine_that_ran_other_jobs_computes_a_new_job_as_a_fresh_one_does() {
        let l = rocksalt_nacl(2, NACL_LATTICE_A).simbox().l();
        let fresh = || MdmForceField::nacl_default(l).unwrap();
        // Jobs A–C on one machine: other seeds, cadences and lengths,
        // so it ends holding a stale carry, a j-store and warm scratch.
        let mut warm = fresh();
        for (seed, interval, steps) in [(1, 1, 3), (2, 3, 5), (3, 2, 4)] {
            warm = run_job(warm, seed, interval, steps).2;
        }
        assert!(warm.jstore.is_some() && warm.last_potential.is_some());
        warm.forget_job();
        assert_eq!(*warm.params(), MdmForceField::nacl_default_params(l));
        // Job D, on the warm machine and on a new one.
        let (on_warm, carry_warm, _) = run_job(warm, 4, 3, 7);
        let (on_fresh, carry_fresh, _) = run_job(fresh(), 4, 3, 7);
        assert_eq!(carry_warm, carry_fresh);
        for (step, ((a, ca), (b, cb))) in on_warm.iter().zip(&on_fresh).enumerate() {
            assert_eq!(a.forces, b.forces, "step {step}");
            for (x, y) in [
                (a.potential, b.potential),
                (a.coulomb, b.coulomb),
                (a.short_range, b.short_range),
                (a.virial, b.virial),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "step {step}");
            }
            assert_eq!(ca, cb, "step {step}");
            assert!(ca.wine.dft_ops > 0 && ca.mdg.pair_ops > 0, "step {step}");
        }
    }

    #[test]
    fn counters_match_paper_accounting() {
        let s = perturbed(3);
        let mut hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        hw.set_potential_interval(100);
        let _ = hw.compute(&s);
        let c = hw.last_counters();
        let n = s.len() as u64;
        // WINE: one DFT + one IDFT op per particle-wave.
        assert_eq!(c.wine.dft_ops, n * c.wine.waves);
        assert_eq!(c.wine.idft_ops, n * c.wine.waves);
        // MDGRAPE: 4 force passes over the same block pairs (+1 set of
        // energy passes on the first step).
        assert!(c.mdg.pair_ops > 0);
        assert_eq!(c.mdg.pair_ops % hw.coulomb_pass_ops, 0);
    }

    #[test]
    fn stale_potential_between_interval_steps() {
        // With interval > 1 the MDGRAPE-2 energy passes are skipped: the
        // short-range/real potential goes stale, while the WINE-2 energy
        // (a by-product of the force DFT, free every step) stays fresh.
        let s = perturbed(3);
        let mut hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        hw.set_potential_interval(100);
        let r1 = hw.compute(&s);
        let mut s2 = s.clone();
        s2.displace(1, Vec3::new(0.2, 0.0, 0.0));
        let r2 = hw.compute(&s2);
        assert_eq!(r1.short_range, r2.short_range, "short-range should be stale");
        assert_ne!(r1.forces[1], r2.forces[1], "forces must refresh");
        // With interval 1 everything refreshes.
        let mut hw2 = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        let f1 = hw2.compute(&s);
        let f2 = hw2.compute(&s2);
        assert_ne!(f1.short_range, f2.short_range);
    }

    #[test]
    fn a_diverged_machine_reports_a_nan_virial() {
        // dt = 1e300 fs flings every particle out of any finite range in
        // one step: whatever the walk makes of the positions, the
        // pressure must say so, not read as a finite number.
        use mdm_core::integrate::Simulation;
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        mdm_core::velocities::maxwell_boltzmann(&mut s, 1200.0, 5);
        let ff = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        let mut sim = Simulation::new(s, ff, 1e300);
        sim.step();
        let virial = sim.current_forces().virial;
        assert!(virial.is_nan(), "virial {virial}");
    }

    /// A wavenumber part that takes 20 ms and computes nothing, at the
    /// machine's α.
    struct SlowWave(f64);

    impl LongRangeBackend for SlowWave {
        fn name(&self) -> &'static str {
            "slow"
        }

        fn alpha(&self) -> f64 {
            self.0
        }

        fn compute(&mut self, _: SimBox, positions: &[Vec3], _: &[f64]) -> LongRangeResult {
            std::thread::sleep(std::time::Duration::from_millis(20));
            LongRangeResult {
                energy: 0.0,
                forces: vec![Vec3::ZERO; positions.len()],
                virial: 0.0,
                counters: LongRangeCounters::default(),
            }
        }
    }

    #[test]
    fn the_upload_gauge_is_timed_over_the_mdgrape2_passes_only() {
        // The bytes over the gauge give the window it was measured
        // over; that must lie inside the MDGRAPE-2 uploads and sweeps
        // (`comm` + `real`), not stretch over the 20 ms wavenumber part.
        let s = perturbed(3);
        let mut hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        hw.set_longrange(Box::new(SlowWave(hw.params().alpha)));
        let _scope = mdm_profile::scope();
        let _ = hw.compute(&s);
        let step = mdm_profile::take();
        assert!(step.seconds("wave") >= 0.02);
        let bytes = hw.last_counters().mdg.bus_bytes_per_cluster as f64;
        let mbps = step.gauges["comm.jstore_upload_mbps"].last;
        assert!(bytes > 0.0 && mbps > 0.0);
        let window = bytes / (mbps * 1e6);
        let passes = step.seconds("real") + step.seconds("comm");
        assert!(
            window < passes,
            "gauge window {window} s against {passes} s of comm + real"
        );
    }

    #[test]
    fn virial_span_marks_the_energy_steps() {
        // `host.virial` names where an energy step's host time goes; a
        // step that carries the stale potential has no such span, and
        // neither kind of step grows a phase.
        let s = perturbed(3);
        let mut hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        hw.set_potential_interval(100);
        let _scope = mdm_profile::scope();
        let _ = hw.compute(&s);
        let energy_step = mdm_profile::take();
        let _ = hw.compute(&s);
        let stale_step = mdm_profile::take();
        assert_eq!(energy_step.spans["host.virial"].calls, 1);
        assert!(energy_step.seconds("host.virial") <= energy_step.seconds("host"));
        assert!(!stale_step.spans.contains_key("host.virial"));
        for step in [&energy_step, &stale_step] {
            let mut phases: Vec<&str> = step.phases().map(|(name, _)| name).collect();
            phases.sort_unstable();
            assert_eq!(phases, ["comm", "host", "real", "wave"]);
        }
    }

    #[test]
    fn nve_energy_conservation_on_hardware() {
        // The paper's NVE phase conserved energy to < 5e-5 % — run a
        // short NVE on the emulated machine and check the same bound
        // scale (the emulator's f32 forces make it slightly worse than
        // the f64 reference, but conservation must hold).
        use mdm_core::integrate::Simulation;
        use mdm_core::velocities::maxwell_boltzmann;
        let mut s = rocksalt_nacl(3, NACL_LATTICE_A);
        maxwell_boltzmann(&mut s, 300.0, 11);
        let hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        let mut sim = Simulation::new(s, hw, 1.0);
        let e0 = sim.record().total;
        let rec = sim.run(20);
        let drift = ((rec.last().unwrap().total - e0) / e0).abs();
        assert!(drift < 5e-4, "drift {drift}");
    }
}
