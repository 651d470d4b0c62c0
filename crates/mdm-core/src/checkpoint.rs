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
//!   spelled as [`mdm_profile::json::Value::from_u64`] spells it: a
//!   bare number below 2⁵³, a decimal string from there on). A decimal
//!   round-trip would be lossless too with enough digits, but bits are
//!   unambiguous and cheap to verify.
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
//!
//! The codec streams, because a run server reads and writes one
//! checkpoint per job per slice. [`Checkpoint::to_line`] writes the line
//! straight into one buffer, two digits at a time, and
//! [`Checkpoint::parse`] walks it once with a [`json::Reader`], reading
//! the three 3N-word arrays and the species indices straight into their
//! vectors (only the few other members become [`Value`]s); neither
//! builds a `Value` or a `String` per particle word. The line is the one a
//! `Value` tree of the same fields writes compactly, and `parse`
//! accepts exactly the lines that parsing into a `Value` first and
//! reading the fields off it would, with the same result — the tests
//! hold both to that `Value` codec as their oracle.

use std::collections::BTreeMap;
use std::path::Path;

use mdm_profile::json::{self, ParseError, Reader, Value};

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

/// One `f64` as its bit pattern, spelled as [`Value::from_u64`] writes it.
fn push_bits(out: &mut Vec<u8>, x: f64) {
    json::write_u64(out, x.to_bits());
}

/// A JSON string literal.
fn push_string(out: &mut Vec<u8>, s: &str) {
    let mut literal = String::with_capacity(s.len() + 2);
    json::write_string(&mut literal, s);
    out.extend_from_slice(literal.as_bytes());
}

/// `[Vec3]` flattened into an array of 3N bit patterns.
fn push_vec3s(out: &mut Vec<u8>, vs: &[Vec3]) {
    out.push(b'[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_bits(out, v.x);
        out.push(b',');
        push_bits(out, v.y);
        out.push(b',');
        push_bits(out, v.z);
    }
    out.push(b']');
}

/// A name → f64 map with bit-pattern values.
fn push_f64_map(out: &mut Vec<u8>, m: &BTreeMap<String, f64>) {
    out.push(b'{');
    for (i, (k, v)) in m.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_string(out, k);
        out.push(b':');
        push_bits(out, *v);
    }
    out.push(b'}');
}

/// Read back a bit-pattern `f64`.
fn from_bits(v: &Value) -> Option<f64> {
    v.as_u64().map(f64::from_bits)
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

/// Read a flattened `Vec3` array straight into its vectors, or say why
/// the field is unusable (decided once the whole value is read, so a
/// later repeat of the key can still replace it).
fn read_vec3s(r: &mut Reader<'_>, what: &str) -> Result<Result<Vec<Vec3>, String>, ParseError> {
    if r.peek() != Some(b'[') {
        r.value()?;
        return Ok(Err(format!("checkpoint field {what:?} is not an array")));
    }
    let mut out = Vec::new();
    let (mut xyz, mut words, mut integral) = ([0.0f64; 3], 0usize, true);
    r.array(|r| {
        match r.u64()? {
            Some(b) => xyz[words % 3] = f64::from_bits(b),
            None => integral = false,
        }
        words += 1;
        if words % 3 == 0 {
            out.push(Vec3::new(xyz[0], xyz[1], xyz[2]));
        }
        Ok(())
    })?;
    Ok(if words % 3 != 0 {
        Err(format!(
            "checkpoint field {what:?} has {words} scalars (not a multiple of 3)"
        ))
    } else if !integral {
        Err(format!(
            "checkpoint field {what:?} holds a non-integer bit pattern"
        ))
    } else {
        Ok(out)
    })
}

/// Read the species indices as written, or say why the field is
/// unusable (as [`read_vec3s`]).
fn read_types(r: &mut Reader<'_>) -> Result<Result<Vec<u64>, String>, ParseError> {
    if r.peek() != Some(b'[') {
        r.value()?;
        return Ok(Err("checkpoint field \"types\" is not an array".into()));
    }
    let (mut types, mut integral) = (Vec::new(), true);
    r.array(|r| {
        match r.u64()? {
            Some(t) => types.push(t),
            None => integral = false,
        }
        Ok(())
    })?;
    Ok(if integral {
        Ok(types)
    } else {
        Err("checkpoint \"types\" holds an entry that is not an integer".into())
    })
}

fn want<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key)
        .ok_or_else(|| format!("checkpoint is missing field {key:?}"))
}

fn want_bits(v: &Value, key: &str) -> Result<f64, String> {
    from_bits(want(v, key)?)
        .ok_or_else(|| format!("checkpoint field {key:?} is not an f64 bit pattern"))
}

/// A checkpoint line as [`Checkpoint::parse`] reads it: the four
/// particle arrays read straight into their vectors, every other member
/// as a [`Value`]. A repeated key replaces the earlier value, as in a
/// [`Value`] object.
#[derive(Default)]
struct Members {
    /// Species indices as read; checked against the species table once
    /// both are known.
    types: Option<Result<Vec<u64>, String>>,
    positions: Option<Result<Vec<Vec3>, String>>,
    velocities: Option<Result<Vec<Vec3>, String>>,
    forces: Option<Result<Vec<Vec3>, String>>,
    /// The scalars, the species table and the two maps.
    rest: BTreeMap<String, Value>,
}

impl Members {
    /// Read the value of member `key`.
    fn read(&mut self, r: &mut Reader<'_>, key: String) -> Result<(), ParseError> {
        match key.as_str() {
            "positions" => self.positions = Some(read_vec3s(r, &key)?),
            "velocities" => self.velocities = Some(read_vec3s(r, &key)?),
            "forces" => self.forces = Some(read_vec3s(r, &key)?),
            "types" => self.types = Some(read_types(r)?),
            _ => drop(self.rest.insert(key, r.value()?)),
        }
        Ok(())
    }

    /// The checkpoint the members spell, with the checks
    /// [`Checkpoint::parse`] documents.
    fn decode(self) -> Result<Checkpoint, String> {
        let missing = |key: &str| format!("checkpoint is missing field {key:?}");
        let v = Value::Obj(self.rest);
        let version = v.req_u64("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint schema version {version} is not supported (this build reads \
                 version {CHECKPOINT_VERSION}); re-run the job from its submission or \
                 convert the checkpoint with the build that wrote it"
            ));
        }
        let species = match want(&v, "species")? {
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
        let types = self
            .types
            .ok_or_else(|| missing("types"))??
            .into_iter()
            .map(|t| {
                // `as u8`, as a `Value` tree reads it: a species table
                // past 256 entries wraps.
                (t < species.len() as u64)
                    .then_some(t as u8)
                    .ok_or_else(|| {
                        format!("checkpoint \"types\" entry {t} is not a valid species index")
                    })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let positions = self.positions.ok_or_else(|| missing("positions"))??;
        let velocities = self.velocities.ok_or_else(|| missing("velocities"))??;
        let forces = self.forces.ok_or_else(|| missing("forces"))??;
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
        // `SimBox::cubic` would panic on it, wherever the checkpoint is
        // resumed: refuse it here, where a bad file is an error.
        let l = want_bits(&v, "l")?;
        if !(l.is_finite() && l > 0.0) {
            return Err(format!(
                "checkpoint box edge \"l\" is {l}, not a positive finite length"
            ));
        }
        Ok(Checkpoint {
            job: v.req_str("job")?.to_string(),
            step: v.req_u64("step")?,
            dt: want_bits(&v, "dt")?,
            seed: v.req_u64("seed")?,
            l,
            species,
            types,
            positions,
            velocities,
            forces,
            potential: want_bits(&v, "potential")?,
            coulomb: want_bits(&v, "coulomb")?,
            short_range: want_bits(&v, "short_range")?,
            virial: want_bits(&v, "virial")?,
            observables: f64_map_back(want(&v, "observables")?, "observables")?,
            extras: f64_map_back(want(&v, "extras")?, "extras")?,
        })
    }
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

    /// Encode as one compact JSON line (no trailing newline): schema
    /// version [`CHECKPOINT_VERSION`], keys in sorted order, every `f64`
    /// as its bit pattern.
    pub fn to_line(&self) -> String {
        String::from_utf8(self.encode(0)).expect("JSON text of UTF-8 strings")
    }

    /// [`Self::to_line`] as bytes, written straight into one buffer with
    /// room for `spare` more.
    fn encode(&self, spare: usize) -> Vec<u8> {
        let words = 9 * self.positions.len() + 8 + 2 * self.species.len();
        let mut out = Vec::with_capacity(23 * words + 256 + spare);
        out.extend_from_slice(b"{\"coulomb\":");
        push_bits(&mut out, self.coulomb);
        out.extend_from_slice(b",\"dt\":");
        push_bits(&mut out, self.dt);
        out.extend_from_slice(b",\"extras\":");
        push_f64_map(&mut out, &self.extras);
        out.extend_from_slice(b",\"forces\":");
        push_vec3s(&mut out, &self.forces);
        out.extend_from_slice(b",\"job\":");
        push_string(&mut out, &self.job);
        out.extend_from_slice(b",\"l\":");
        push_bits(&mut out, self.l);
        out.extend_from_slice(b",\"observables\":");
        push_f64_map(&mut out, &self.observables);
        out.extend_from_slice(b",\"positions\":");
        push_vec3s(&mut out, &self.positions);
        out.extend_from_slice(b",\"potential\":");
        push_bits(&mut out, self.potential);
        out.extend_from_slice(b",\"seed\":");
        json::write_u64(&mut out, self.seed);
        out.extend_from_slice(b",\"short_range\":");
        push_bits(&mut out, self.short_range);
        out.extend_from_slice(b",\"species\":[");
        for (i, s) in self.species.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(b"{\"charge\":");
            push_bits(&mut out, s.charge);
            out.extend_from_slice(b",\"mass\":");
            push_bits(&mut out, s.mass);
            out.extend_from_slice(b",\"name\":");
            push_string(&mut out, &s.name);
            out.push(b'}');
        }
        out.extend_from_slice(b"],\"step\":");
        json::write_u64(&mut out, self.step);
        out.extend_from_slice(b",\"types\":[");
        for (i, &t) in self.types.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            json::write_u64(&mut out, t as u64);
        }
        out.extend_from_slice(b"],\"velocities\":");
        push_vec3s(&mut out, &self.velocities);
        out.extend_from_slice(b",\"version\":");
        json::write_u64(&mut out, CHECKPOINT_VERSION);
        out.extend_from_slice(b",\"virial\":");
        push_bits(&mut out, self.virial);
        out.push(b'}');
        out
    }

    /// Decode one JSON line in one pass, rejecting unknown schema
    /// versions. Any JSON object with the members [`Self::to_line`]
    /// writes reads back: whitespace, member order, repeated keys (the
    /// last wins), unknown members and every spelling of an integer
    /// that [`Value::as_u64`] reads are all accepted, as if the line
    /// were parsed into a [`Value`] first.
    pub fn parse(line: &str) -> Result<Self, String> {
        let invalid = |e: ParseError| format!("checkpoint is not valid JSON: {e}");
        let mut reader = Reader::new(line);
        if reader.peek() != Some(b'{') {
            reader.value().map_err(invalid)?;
            reader.finish().map_err(invalid)?;
            return Err("checkpoint is not a JSON object".into());
        }
        let mut members = Members::default();
        reader
            .object(|r, key| members.read(r, key))
            .map_err(invalid)?;
        reader.finish().map_err(invalid)?;
        members.decode()
    }

    /// Replace the checkpoint at `path`, never renaming over a file:
    /// write `path.with_extension("tmp")` in full, remove `path`, then
    /// rename the `.tmp` onto the now free name. At every instant either
    /// `path` holds the newest complete checkpoint, or `path` is absent
    /// and the `.tmp` holds it complete, so a process killed at any point
    /// leaves one that [`Self::load_latest`] reads back. Nothing is
    /// synced: the guarantee covers a killed process, not a power loss.
    ///
    /// A rename over an existing file is what this order avoids: ext4's
    /// `auto_da_alloc` flushes a file that replaces another, 54–70 ms a
    /// call on the ext4 disk of a 2-vCPU host where this whole write
    /// costs 0.02–0.07 ms at N = 64–512 (`examples/checkpoint_write.rs`
    /// prints both).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        let mut line = self.encode(1);
        line.push(b'\n');
        std::fs::write(&tmp, line)?;
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::rename(&tmp, path)
    }

    /// Load from one file, as [`Self::write`] leaves it.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read checkpoint {}: {e}", path.display()))?;
        Self::parse(text.trim_end())
    }

    /// The newest complete checkpoint [`Self::write`] left at `path`,
    /// wherever a killed writer left it:
    ///
    /// * `path` if it exists — a bad `path` is an error;
    /// * otherwise its `.tmp` if that parses: a finished write killed
    ///   between its remove and its rename. The rename is finished here
    ///   (onto the free name), so the next write's `.tmp` never
    ///   overwrites the only copy;
    /// * otherwise `None`: no `.tmp`, or a torn one, means no write ever
    ///   finished, and the run starts from its first step.
    pub fn load_latest(path: &Path) -> Result<Option<Self>, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => return Self::parse(text.trim_end()).map(Some),
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("read checkpoint {}: {e}", path.display()))
            }
            Err(_) => {}
        }
        let tmp = path.with_extension("tmp");
        let bytes = match std::fs::read(&tmp) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("read checkpoint {}: {e}", tmp.display())),
        };
        // A write cut short may end inside a UTF-8 sequence: torn too.
        let parsed = std::str::from_utf8(&bytes).map(|text| Self::parse(text.trim_end()));
        let Ok(Ok(cp)) = parsed else {
            return Ok(None);
        };
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("adopt checkpoint {}: {e}", tmp.display()))?;
        Ok(Some(cp))
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
        let line = Checkpoint::capture(&sim, "v-test", 1).to_line();
        let current = format!(",\"version\":{CHECKPOINT_VERSION},");
        assert!(line.contains(&current), "{line}");
        let future = line.replace(
            &current,
            &format!(",\"version\":{},", CHECKPOINT_VERSION + 1),
        );
        let err = Checkpoint::parse(&future).unwrap_err();
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
    fn a_box_edge_that_is_no_length_is_an_error_not_a_panic() {
        let sim = running_sim(1);
        let cp = Checkpoint::capture(&sim, "edge", 1);
        let line = cp.to_line();
        let good = format!("\"l\":\"{}\"", cp.l.to_bits());
        assert!(line.contains(&good), "{line}");
        let bad_edges = [0.0, -0.0, -cp.l, f64::INFINITY, f64::NAN, f64::NEG_INFINITY]
            .map(|l| format!("\"l\":\"{}\"", l.to_bits()));
        for bad in bad_edges.iter().map(String::as_str).chain(["\"l\":0"]) {
            let err = Checkpoint::parse(&line.replace(&good, bad)).unwrap_err();
            assert!(err.contains("box edge"), "{bad}: {err}");
        }
        let smallest = f64::from_bits(1);
        let tiny = line.replace(&good, &format!("\"l\":\"{}\"", smallest.to_bits()));
        assert_eq!(Checkpoint::parse(&tiny).unwrap().l, smallest);
    }

    /// A fresh directory holding nothing, and the two names a
    /// checkpoint at `job.ckpt` lives under.
    fn spool(tag: &str) -> (std::path::PathBuf, std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("mdm-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ckpt");
        let tmp = dir.join("job.tmp");
        (dir, path, tmp)
    }

    /// The bytes [`Checkpoint::write`] puts in a file.
    fn file_bytes(cp: &Checkpoint) -> Vec<u8> {
        let mut line = cp.to_line().into_bytes();
        line.push(b'\n');
        line
    }

    #[test]
    fn write_and_load_round_trip() {
        // The second write replaces a checkpoint, as every resumed
        // slice's does.
        let (dir, path, tmp) = spool("disk");
        let older = Checkpoint::capture(&running_sim(1), "disk", 9);
        let newer = Checkpoint::capture(&running_sim(2), "disk", 9);
        older.write(&path).unwrap();
        newer.write(&path).unwrap();
        assert!(!tmp.exists(), "the write left its .tmp behind");
        assert_eq!(std::fs::read(&path).unwrap(), file_bytes(&newer));
        assert_eq!(Checkpoint::load(&path).unwrap(), newer);
        assert_eq!(Checkpoint::load_latest(&path).unwrap(), Some(newer));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_complete_tmp_with_no_checkpoint_is_the_latest_and_is_adopted() {
        // A writer killed between its remove and its rename.
        let (dir, path, tmp) = spool("window");
        let cp = Checkpoint::capture(&running_sim(2), "window", 5);
        std::fs::write(&tmp, file_bytes(&cp)).unwrap();
        assert_eq!(Checkpoint::load_latest(&path).unwrap(), Some(cp.clone()));
        assert!(
            !tmp.exists() && path.exists(),
            "the rename was not finished"
        );
        assert_eq!(Checkpoint::load_latest(&path).unwrap(), Some(cp));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_tmp_with_no_checkpoint_is_no_checkpoint() {
        // A writer killed inside its first write: nothing finished.
        let (dir, path, tmp) = spool("torn");
        // A prefix may end inside a UTF-8 sequence: cut one in the name.
        let bytes = file_bytes(&Checkpoint::capture(&running_sim(1), "torn-é", 5));
        let name = bytes.windows(2).position(|w| w == "é".as_bytes()).unwrap();
        for cut in [0, 1, name + 1, bytes.len() / 2, bytes.len() - 2] {
            std::fs::write(&tmp, &bytes[..cut]).unwrap();
            assert_eq!(
                Checkpoint::load_latest(&path).unwrap(),
                None,
                "cut at {cut}"
            );
            assert!(!path.exists(), "cut at {cut}: a torn .tmp was adopted");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_good_checkpoint_beside_a_torn_tmp_is_the_latest() {
        // A writer killed inside a later write.
        let (dir, path, tmp) = spool("beside");
        let cp = Checkpoint::capture(&running_sim(2), "beside", 5);
        cp.write(&path).unwrap();
        let later = file_bytes(&Checkpoint::capture(&running_sim(3), "beside", 5));
        std::fs::write(&tmp, &later[..later.len() / 3]).unwrap();
        assert_eq!(Checkpoint::load_latest(&path).unwrap(), Some(cp.clone()));
        // The next write replaces the torn .tmp and leaves none behind.
        cp.write(&path).unwrap();
        assert!(!tmp.exists());
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_checkpoint_and_no_tmp_is_no_checkpoint() {
        let (dir, path, _) = spool("none");
        assert_eq!(Checkpoint::load_latest(&path).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bad_checkpoint_is_an_error_even_beside_a_good_tmp() {
        let (dir, path, tmp) = spool("bad");
        let cp = Checkpoint::capture(&running_sim(1), "bad", 5);
        let bytes = file_bytes(&cp);
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(&tmp, &bytes).unwrap();
        let err = Checkpoint::load_latest(&path).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
