//! Trajectory output — the "file I/O" the host computer performs each
//! step (§3.1): [`write_xyz_frame`] appends one frame in the ubiquitous
//! XYZ format (readable by VMD/OVITO/ASE). Restart checkpoints live in
//! [`crate::checkpoint`].

use crate::system::System;

/// Append one XYZ frame for the current configuration.
pub fn write_xyz_frame<W: std::io::Write>(
    out: &mut W,
    system: &System,
    comment: &str,
) -> std::io::Result<()> {
    writeln!(out, "{}", system.len())?;
    writeln!(out, "{}", comment.replace('\n', " "))?;
    for (i, r) in system.positions().iter().enumerate() {
        let name = &system.species()[system.types()[i] as usize].name;
        // Strip charge decorations for the element column ("Na+" → "Na").
        let element: String = name.chars().filter(|c| c.is_ascii_alphabetic()).collect();
        writeln!(out, "{element} {:.8} {:.8} {:.8}", r.x, r.y, r.z)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};

    #[test]
    fn xyz_frame_format() {
        let s = rocksalt_nacl(1, NACL_LATTICE_A);
        let mut buf = Vec::new();
        write_xyz_frame(&mut buf, &s, "frame 0").unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "8");
        assert_eq!(lines[1], "frame 0");
        assert!(lines[2].starts_with("Na "));
        assert!(lines[3].starts_with("Cl "));
        assert_eq!(lines.len(), 10);
    }
}
