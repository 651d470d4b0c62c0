//! The streamed checkpoint decoder against the `Value`-tree oracle on
//! damaged and re-spelled lines: every prefix of a line, every
//! single-byte substitution of it, and a set of valid but unusual
//! spellings. On each input both decoders must accept with the same bits
//! or both reject, and the streamed one must not panic.

#[path = "support/checkpoint_oracle.rs"]
mod checkpoint_oracle;

use std::collections::BTreeMap;

use mdm_core::checkpoint::Checkpoint;
use mdm_core::system::Species;
use mdm_core::vec3::Vec3;

/// Two particles and every kind of word the writer emits: bare numbers
/// (0, the smallest subnormal, 2⁵³ − 1), quoted bit patterns (2⁵³ and
/// up), −0 and a NaN with a payload.
fn small_checkpoint() -> Checkpoint {
    let w = |bits: u64| f64::from_bits(bits);
    Checkpoint {
        job: "j\"1".into(),
        step: 3,
        dt: 2.0,
        seed: u64::MAX,
        l: 11.28,
        species: vec![
            Species {
                name: "Na".into(),
                mass: 22.99,
                charge: 1.0,
            },
            Species {
                name: "Cl".into(),
                mass: 35.45,
                charge: -1.0,
            },
        ],
        types: vec![0, 1],
        positions: vec![
            Vec3::new(0.0, w(1), 5.5),
            Vec3::new(-0.0, w((1 << 53) - 1), w(1 << 53)),
        ],
        velocities: vec![
            Vec3::new(1e-3, -2e-3, 3e-3),
            Vec3::new(w(0x7ff8_0000_0000_0abc), 0.5, -0.5),
        ],
        forces: vec![Vec3::new(0.25, -1.0, 7.0), Vec3::new(-0.25, 1.0, -7.0)],
        potential: -41.5,
        coulomb: -45.0,
        short_range: 3.5,
        virial: 0.125,
        observables: BTreeMap::from([("t".to_string(), 900.0)]),
        extras: BTreeMap::from([("carry.x".to_string(), 1.0)]),
    }
}

/// Both decoders on `line`: the same bits, or both an error.
fn agree(line: &str) -> Option<Checkpoint> {
    let streamed = Checkpoint::parse(line);
    let oracle = checkpoint_oracle::parse(line);
    match (streamed, oracle) {
        (Ok(s), Ok(o)) => {
            assert_eq!(s.to_line(), checkpoint_oracle::to_line(&o), "{line:?}");
            Some(s)
        }
        (Err(_), Err(_)) => None,
        (s, o) => panic!("decoders disagree on {line:?}: streamed {s:?}, oracle {o:?}"),
    }
}

#[test]
fn every_prefix_decodes_as_the_oracle_does() {
    let line = small_checkpoint().to_line();
    assert!(line.is_ascii());
    for end in 0..line.len() {
        assert!(
            agree(&line[..end]).is_none(),
            "prefix of {end} bytes decoded"
        );
    }
    assert!(agree(&line).is_some());
}

#[test]
fn every_single_byte_substitution_decodes_as_the_oracle_does() {
    let line = small_checkpoint().to_line();
    let mut accepted = 0;
    let mut bytes = line.clone().into_bytes();
    for i in 0..bytes.len() {
        let original = bytes[i];
        for b in (0u8..0x80).filter(|&b| b != original) {
            bytes[i] = b;
            let text = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
            accepted += agree(text).is_some() as usize;
        }
        bytes[i] = original;
    }
    // Digits of bare numbers and quoted bit patterns, whitespace in
    // place of a separator's neighbour, … : some substitutions are valid
    // lines, and they must decode too.
    assert!(accepted > 100, "only {accepted} substitutions decoded");
}

#[test]
fn unusual_spellings_decode_as_the_oracle_does() {
    let cp = small_checkpoint();
    let line = cp.to_line();
    let swap = |from: &str, to: &str| {
        assert!(line.contains(from), "{from}");
        line.replacen(from, to, 1)
    };
    let accepted = [
        checkpoint_oracle::to_value(&cp).to_pretty(),
        format!(" \t{line}\r\n "),
        // A repeated key: the last wins, whatever the first held.
        line.replacen('{', r#"{"positions":true,"version":7,"types":[9],"#, 1),
        // Unknown members are skipped, however deep.
        format!(
            "{},\"zz\":{{\"a\":[1,[2,{{\"b\":null}}],\"x\\\"y\"]}}}}",
            &line[..line.len() - 1]
        ),
        swap("\"step\":", "\"st\\u0065p\":"),
        swap("\"version\":1", "\"version\":1.0e0"),
        swap("\"version\":1", "\"version\":\"1\""),
        swap("\"version\":1", "\"version\":\"\\u0031\""),
        swap("\"types\":[0,1]", "\"types\":[0,\"01\"]"),
        swap("\"types\":[0,1]", "\"types\":[ 0 , 1e0 ]"),
        swap("\"step\":3", "\"step\":000003"),
    ];
    for text in &accepted {
        let back = agree(text).unwrap_or_else(|| panic!("rejected {text:?}"));
        assert_eq!(back.to_line(), line);
    }
    let rejected = [
        swap("\"version\":1", "\"version\":2"),
        swap("\"version\":1", "\"version\":-0"),
        swap("\"version\":1", "\"version\":1.5"),
        swap("\"types\":[0,1]", "\"types\":[0,2]"),
        swap("\"types\":[0,1]", "\"types\":[0]"),
        swap("\"types\":[0,1]", "\"types\":[0,null]"),
        swap("\"step\":3", "\"step\":\"18446744073709551616\""),
        swap("\"job\":", "\"jobs\":"),
        swap("\"l\":", "\"l\":-"),
        format!("[{line}]"),
        format!("{line}{line}"),
        String::new(),
    ];
    for text in &rejected {
        assert!(agree(text).is_none(), "accepted {text:?}");
    }
}
