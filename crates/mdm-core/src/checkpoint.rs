//! Versioned, bit-exact simulation checkpoints.
//!
//! A [`Checkpoint`] captures everything a [`Simulation`] needs to
//! resume *bit-for-bit*: positions, velocities, the cached force
//! evaluation (forces + energy/virial scalars), the step counter, the
//! RNG provenance (the seed that generated the initial velocities),
//! and whatever accumulated observables and force-field carry state
//! the caller wants to ride along. Restart correctness is the whole
//! point — a run killed mid-trajectory and resumed from its last
//! checkpoint must stream exactly the per-step energies and
//! temperatures the uninterrupted run would have.
//!
//! Two design rules follow from that:
//!
//! * **Every `f64` is stored as its IEEE-754 bit pattern** (`u64`,
//!   via [`mdm_profile::json::Value::from_u64`], which keeps values
//!   ≥ 2⁵³ exact as decimal strings). A decimal round-trip would be
//!   lossless too with enough digits, but bits are unambiguous and
//!   cheap to verify.
//! * **The cached [`ForceResult`] is stored, not recomputed.** Force
//!   fields that evaluate their potential on a cadence (the MDM driver)
//!   carry staleness state; an extra evaluation at restore time would
//!   advance that cadence and desynchronise the resumed run. Restoring
//!   the evaluation verbatim (plus the driver's own carry, through
//!   [`Checkpoint::extras`]) keeps the cadence aligned.
//!
//! The on-disk format is a single line of JSON (checkpoints spool
//! naturally into JSONL files) with a leading `version` field. Decode
//! rejects unknown versions with an actionable message instead of
//! misreading the payload — same pattern as the flight recorder's
//! [`mdm_profile::events::FLIGHT_RECORDER_VERSION`].

use std::collections::BTreeMap;
use std::path::Path;

use mdm_profile::json::{obj, Value};

use crate::boxsim::SimBox;
use crate::forcefield::{ForceField, ForceResult};
use crate::integrate::Simulation;
use crate::system::{Species, System};
use crate::vec3::Vec3;

/// Current checkpoint schema version. Bump on any layout change.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A resumable snapshot of one run. See the module docs for the
/// bit-exactness contract.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Job / run label this checkpoint belongs to.
    pub job: String,
    /// Completed steps at capture time.
    pub step: u64,
    /// Integration time step (fs).
    pub dt: f64,
    /// Seed that generated the initial velocities (RNG provenance —
    /// the only randomness in a run).
    pub seed: u64,
    /// Cubic box edge (Å).
    pub l: f64,
    /// Species table (masses/charges per type).
    pub species: Vec<Species>,
    /// Per-particle species indices.
    pub types: Vec<u8>,
    /// Canonical positions at capture time.
    pub positions: Vec<Vec3>,
    /// Velocities at capture time.
    pub velocities: Vec<Vec3>,
    /// The cached force evaluation the next step would consume.
    pub forces: Vec<Vec3>,
    /// `ForceResult::potential` of the cached evaluation (eV).
    pub potential: f64,
    /// `ForceResult::coulomb` of the cached evaluation (eV).
    pub coulomb: f64,
    /// `ForceResult::short_range` of the cached evaluation (eV).
    pub short_range: f64,
    /// `ForceResult::virial` of the cached evaluation (eV).
    pub virial: f64,
    /// Accumulated observables (e.g. running averages) the serving
    /// layer wants restored with the trajectory.
    pub observables: BTreeMap<String, f64>,
    /// Force-field carry state, flattened to named `f64`s by the layer
    /// that owns the force field (the MDM driver stores its stale
    /// potential carry here — `carry.e_real`, `carry.steps_since`, …).
    pub extras: BTreeMap<String, f64>,
}

/// Serialize one `f64` as its bit pattern.
fn bits(x: f64) -> Value {
    Value::from_u64(x.to_bits())
}

/// Read back a bit-pattern `f64`.
fn from_bits(v: &Value) -> Option<f64> {
    v.as_u64().map(f64::from_bits)
}

/// Flatten `[Vec3]` into an array of 3N bit patterns.
fn vec3s(vs: &[Vec3]) -> Value {
    let mut flat = Vec::with_capacity(vs.len() * 3);
    for v in vs {
        flat.push(bits(v.x));
        flat.push(bits(v.y));
        flat.push(bits(v.z));
    }
    Value::Arr(flat)
}

/// Read back a flattened `Vec3` array.
fn vec3s_back(v: &Value, what: &str) -> Result<Vec<Vec3>, String> {
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("checkpoint field {what:?} is not an array"))?;
    if arr.len() % 3 != 0 {
        return Err(format!(
            "checkpoint field {what:?} has {} scalars (not a multiple of 3)",
            arr.len()
        ));
    }
    let mut out = Vec::with_capacity(arr.len() / 3);
    for chunk in arr.chunks_exact(3) {
        let mut xyz = [0.0f64; 3];
        for (slot, value) in xyz.iter_mut().zip(chunk) {
            *slot = from_bits(value)
                .ok_or_else(|| format!("checkpoint field {what:?} holds a non-integer bit pattern"))?;
        }
        out.push(Vec3::new(xyz[0], xyz[1], xyz[2]));
    }
    Ok(out)
}

/// Encode a name → f64 map with bit-pattern values.
fn f64_map(m: &BTreeMap<String, f64>) -> Value {
    Value::Obj(m.iter().map(|(k, v)| (k.clone(), bits(*v))).collect())
}

/// Read back a name → f64 map.
fn f64_map_back(v: &Value, what: &str) -> Result<BTreeMap<String, f64>, String> {
    match v {
        Value::Obj(m) => m
            .iter()
            .map(|(k, v)| {
                from_bits(v)
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("checkpoint field {what}.{k} is not a bit pattern"))
            })
            .collect(),
        _ => Err(format!("checkpoint field {what:?} is not an object")),
    }
}

fn want<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key)
        .ok_or_else(|| format!("checkpoint is missing field {key:?}"))
}

fn want_bits(v: &Value, key: &str) -> Result<f64, String> {
    from_bits(want(v, key)?)
        .ok_or_else(|| format!("checkpoint field {key:?} is not an f64 bit pattern"))
}

impl Checkpoint {
    /// Snapshot a running simulation. `observables`/`extras` start
    /// empty — fill them before encoding if the run carries state
    /// beyond the trajectory.
    pub fn capture<F: ForceField>(sim: &Simulation<F>, job: &str, seed: u64) -> Self {
        let system = sim.system();
        let current = sim.current_forces();
        Checkpoint {
            job: job.to_string(),
            step: sim.step_count(),
            dt: sim.dt(),
            seed,
            l: system.simbox().l(),
            species: system.species().to_vec(),
            types: system.types().to_vec(),
            positions: system.positions().to_vec(),
            velocities: system.velocities().to_vec(),
            forces: current.forces.clone(),
            potential: current.potential,
            coulomb: current.coulomb,
            short_range: current.short_range,
            virial: current.virial,
            observables: BTreeMap::new(),
            extras: BTreeMap::new(),
        }
    }

    /// Rebuild the particle system exactly as captured.
    pub fn restore_system(&self) -> System {
        let mut system = System::new(SimBox::cubic(self.l), self.species.clone());
        for (&t, &r) in self.types.iter().zip(&self.positions) {
            // `wrap` is exact on already-canonical positions
            // (`x.rem_euclid(l) == x` for `0 ≤ x < l`), so push does
            // not perturb the stored bits.
            system.push_particle(t as usize, r);
        }
        system
            .velocities_mut()
            .copy_from_slice(&self.velocities);
        system
    }

    /// Resume a simulation around a force field the caller has already
    /// reconstructed (including any carry state from
    /// [`Self::extras`]). Installs the captured force evaluation
    /// verbatim — no force recomputation happens here.
    pub fn resume<F: ForceField>(&self, ff: F) -> Simulation<F> {
        Simulation::resume(
            self.restore_system(),
            ff,
            self.dt,
            self.step,
            ForceResult {
                forces: self.forces.clone(),
                potential: self.potential,
                coulomb: self.coulomb,
                short_range: self.short_range,
                virial: self.virial,
            },
        )
    }

    /// Encode as a JSON value (schema version [`CHECKPOINT_VERSION`]).
    pub fn to_json(&self) -> Value {
        obj([
            ("version", Value::from_u64(CHECKPOINT_VERSION)),
            ("job", Value::Str(self.job.clone())),
            ("step", Value::from_u64(self.step)),
            ("dt", bits(self.dt)),
            ("seed", Value::from_u64(self.seed)),
            ("l", bits(self.l)),
            (
                "species",
                Value::Arr(
                    self.species
                        .iter()
                        .map(|s| {
                            obj([
                                ("name", Value::Str(s.name.clone())),
                                ("mass", bits(s.mass)),
                                ("charge", bits(s.charge)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "types",
                Value::Arr(self.types.iter().map(|&t| Value::from_u64(t as u64)).collect()),
            ),
            ("positions", vec3s(&self.positions)),
            ("velocities", vec3s(&self.velocities)),
            ("forces", vec3s(&self.forces)),
            ("potential", bits(self.potential)),
            ("coulomb", bits(self.coulomb)),
            ("short_range", bits(self.short_range)),
            ("virial", bits(self.virial)),
            ("observables", f64_map(&self.observables)),
            ("extras", f64_map(&self.extras)),
        ])
    }

    /// Encode as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_compact()
    }

    /// Decode from a JSON value, rejecting unknown schema versions.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let version = v.req_u64("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint schema version {version} is not supported (this build reads \
                 version {CHECKPOINT_VERSION}); re-run the job from its submission or \
                 convert the checkpoint with the build that wrote it"
            ));
        }
        let species = match want(v, "species")? {
            Value::Arr(items) => items
                .iter()
                .map(|s| {
                    Ok(Species {
                        name: s.req_str("name")?.to_string(),
                        mass: want_bits(s, "mass")?,
                        charge: want_bits(s, "charge")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("checkpoint field \"species\" is not an array".into()),
        };
        let types = match want(v, "types")? {
            Value::Arr(items) => items
                .iter()
                .map(|t| {
                    t.as_u64()
                        .filter(|&t| t < species.len() as u64)
                        .map(|t| t as u8)
                        .ok_or_else(|| {
                            format!("checkpoint \"types\" entry {t:?} is not a valid species index")
                        })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("checkpoint field \"types\" is not an array".into()),
        };
        let positions = vec3s_back(want(v, "positions")?, "positions")?;
        let velocities = vec3s_back(want(v, "velocities")?, "velocities")?;
        let forces = vec3s_back(want(v, "forces")?, "forces")?;
        let n = types.len();
        if positions.len() != n || velocities.len() != n || forces.len() != n {
            return Err(format!(
                "checkpoint arrays disagree on particle count: {n} types, {} positions, \
                 {} velocities, {} forces",
                positions.len(),
                velocities.len(),
                forces.len()
            ));
        }
        Ok(Checkpoint {
            job: v.req_str("job")?.to_string(),
            step: v.req_u64("step")?,
            dt: want_bits(v, "dt")?,
            seed: v.req_u64("seed")?,
            l: want_bits(v, "l")?,
            species,
            types,
            positions,
            velocities,
            forces,
            potential: want_bits(v, "potential")?,
            coulomb: want_bits(v, "coulomb")?,
            short_range: want_bits(v, "short_range")?,
            virial: want_bits(v, "virial")?,
            observables: f64_map_back(want(v, "observables")?, "observables")?,
            extras: f64_map_back(want(v, "extras")?, "extras")?,
        })
    }

    /// Decode from one JSON line.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = Value::parse(line).map_err(|e| format!("checkpoint is not valid JSON: {e}"))?;
        Self::from_json(&v)
    }

    /// Write atomically (temp file + rename) so a crash mid-write
    /// never leaves a truncated checkpoint where a good one stood.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_line() + "\n")?;
        std::fs::rename(&tmp, path)
    }

    /// Load from a file written by [`Self::write`].
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read checkpoint {}: {e}", path.display()))?;
        Self::parse(text.trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::EwaldTosiFumi;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use crate::velocities::maxwell_boltzmann;

    fn running_sim(steps: usize) -> Simulation<EwaldTosiFumi> {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        maxwell_boltzmann(&mut s, 900.0, 42);
        let ff = EwaldTosiFumi::nacl_default(s.simbox().l());
        let mut sim = Simulation::new(s, ff, 2.0);
        sim.run(steps);
        sim
    }

    #[test]
    fn encode_decode_is_bitwise_lossless() {
        let sim = running_sim(5);
        let mut cp = Checkpoint::capture(&sim, "job-7", 42);
        cp.observables.insert("mean_temperature".into(), 873.2519);
        cp.extras.insert("carry.steps_since".into(), 3.0);
        let back = Checkpoint::parse(&cp.to_line()).expect("round-trip");
        assert_eq!(back, cp);
        // PartialEq on f64 would call -0.0 == 0.0 and NaN != NaN; the
        // contract is bit equality, so spot-check the bits too.
        for (a, b) in cp.positions.iter().zip(&back.positions) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_eq!(cp.potential.to_bits(), back.potential.to_bits());
    }

    #[test]
    fn resumed_simulation_matches_uninterrupted_run_bitwise() {
        // Reference: 12 uninterrupted steps.
        let mut reference = running_sim(0);
        let full: Vec<_> = (0..12).map(|_| reference.step()).collect();

        // Interrupted: 5 steps, checkpoint through a JSON round-trip,
        // resume with a *fresh* force field, 7 more steps.
        let mut first = running_sim(0);
        first.run(5);
        let cp = Checkpoint::parse(&Checkpoint::capture(&first, "t", 42).to_line()).unwrap();
        drop(first);
        let ff = EwaldTosiFumi::nacl_default(cp.l);
        let mut resumed = cp.resume(ff);
        assert_eq!(resumed.step_count(), 5);
        for r in &full[5..] {
            let got = resumed.step();
            assert_eq!(got.step, r.step);
            assert_eq!(
                got.total.to_bits(),
                r.total.to_bits(),
                "step {}: resumed total energy {} != uninterrupted {}",
                r.step,
                got.total,
                r.total
            );
            assert_eq!(got.temperature.to_bits(), r.temperature.to_bits());
            assert_eq!(got.potential.to_bits(), r.potential.to_bits());
        }
    }

    #[test]
    fn future_version_is_rejected_with_a_useful_message() {
        let sim = running_sim(1);
        let cp = Checkpoint::capture(&sim, "v-test", 1);
        let mut v = cp.to_json();
        if let Value::Obj(m) = &mut v {
            m.insert("version".into(), Value::from_u64(CHECKPOINT_VERSION + 1));
        }
        let err = Checkpoint::from_json(&v).unwrap_err();
        assert!(
            err.contains("not supported") && err.contains("re-run the job"),
            "unhelpful version error: {err}"
        );
    }

    #[test]
    fn truncated_line_is_an_error_not_a_panic() {
        let sim = running_sim(1);
        let line = Checkpoint::capture(&sim, "trunc", 1).to_line();
        let err = Checkpoint::parse(&line[..line.len() / 2]).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
    }

    #[test]
    fn write_and_load_round_trip() {
        let sim = running_sim(2);
        let cp = Checkpoint::capture(&sim, "disk", 9);
        let dir = std::env::temp_dir().join(format!("mdm-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ckpt");
        cp.write(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        std::fs::remove_dir_all(&dir).ok();
    }
}
