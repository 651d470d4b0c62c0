//! The checkpoint codec through a [`Value`] tree: encode by building
//! the tree and writing it compactly, decode by parsing the line into a
//! tree and reading the fields off it. The streamed `to_line` / `parse`
//! must agree with it byte for byte and decision for decision.

use std::collections::BTreeMap;

use mdm_core::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
use mdm_core::system::Species;
use mdm_core::vec3::Vec3;
use mdm_profile::json::{obj, Value};

fn bits(x: f64) -> Value {
    Value::from_u64(x.to_bits())
}

fn from_bits(v: &Value) -> Option<f64> {
    v.as_u64().map(f64::from_bits)
}

fn vec3s(vs: &[Vec3]) -> Value {
    Value::Arr(
        vs.iter()
            .flat_map(|v| [bits(v.x), bits(v.y), bits(v.z)])
            .collect(),
    )
}

fn vec3s_back(v: &Value, what: &str) -> Result<Vec<Vec3>, String> {
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("checkpoint field {what:?} is not an array"))?;
    if arr.len() % 3 != 0 {
        return Err(format!("checkpoint field {what:?} is not a multiple of 3"));
    }
    let mut out = Vec::with_capacity(arr.len() / 3);
    for chunk in arr.chunks_exact(3) {
        let mut xyz = [0.0f64; 3];
        for (slot, value) in xyz.iter_mut().zip(chunk) {
            *slot = from_bits(value)
                .ok_or_else(|| format!("checkpoint field {what:?} holds a non-integer"))?;
        }
        out.push(Vec3::new(xyz[0], xyz[1], xyz[2]));
    }
    Ok(out)
}

fn f64_map(m: &BTreeMap<String, f64>) -> Value {
    Value::Obj(m.iter().map(|(k, v)| (k.clone(), bits(*v))).collect())
}

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
    from_bits(want(v, key)?).ok_or_else(|| format!("checkpoint field {key:?} is not a bit pattern"))
}

/// The checkpoint as a JSON tree.
pub fn to_value(cp: &Checkpoint) -> Value {
    obj([
        ("version", Value::from_u64(CHECKPOINT_VERSION)),
        ("job", Value::Str(cp.job.clone())),
        ("step", Value::from_u64(cp.step)),
        ("dt", bits(cp.dt)),
        ("seed", Value::from_u64(cp.seed)),
        ("l", bits(cp.l)),
        (
            "species",
            Value::Arr(
                cp.species
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
            Value::Arr(
                cp.types
                    .iter()
                    .map(|&t| Value::from_u64(t as u64))
                    .collect(),
            ),
        ),
        ("positions", vec3s(&cp.positions)),
        ("velocities", vec3s(&cp.velocities)),
        ("forces", vec3s(&cp.forces)),
        ("potential", bits(cp.potential)),
        ("coulomb", bits(cp.coulomb)),
        ("short_range", bits(cp.short_range)),
        ("virial", bits(cp.virial)),
        ("observables", f64_map(&cp.observables)),
        ("extras", f64_map(&cp.extras)),
    ])
}

/// The checkpoint a JSON tree spells.
pub fn from_value(v: &Value) -> Result<Checkpoint, String> {
    let version = v.req_u64("version")?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint schema version {version} is not supported"
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
                        format!("checkpoint \"types\" entry {t:?} is not a species index")
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
        return Err("checkpoint arrays disagree on particle count".into());
    }
    let l = want_bits(v, "l")?;
    if !(l.is_finite() && l > 0.0) {
        return Err(format!("checkpoint box edge \"l\" is {l}"));
    }
    Ok(Checkpoint {
        job: v.req_str("job")?.to_string(),
        step: v.req_u64("step")?,
        dt: want_bits(v, "dt")?,
        seed: v.req_u64("seed")?,
        l,
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

/// Encode through the tree.
pub fn to_line(cp: &Checkpoint) -> String {
    to_value(cp).to_compact()
}

/// Decode through the tree.
pub fn parse(line: &str) -> Result<Checkpoint, String> {
    from_value(&Value::parse(line).map_err(|e| e.to_string())?)
}
