//! What replacing a checkpoint costs on the file system at hand: the
//! median wall of `Checkpoint::write` over an existing checkpoint (what
//! a serve slice pays) at N = 64 and N = 512, and beside it the raw
//! operations a write can be built from, each on a 1-byte file that is
//! created and written first:
//!
//! * renamed over an existing file — ext4's `auto_da_alloc` flushes a
//!   file that replaces another, tens of milliseconds on some hosts;
//! * renamed onto a free name (the name is freed again, untimed);
//! * remove the existing file, then rename onto its name — the order
//!   `Checkpoint::write` uses.
//!
//! The file uses only public API, so it runs unchanged in an older
//! checkout, whose `write` renamed over the previous checkpoint.
//!
//! Run with: `cargo run --release -p mdm-core --example checkpoint_write
//! [-- DIR]`, where `DIR` (default: the system's temporary directory)
//! should be on the file system under test, e.g. a serve spool's.

use mdm_core::checkpoint::Checkpoint;
use mdm_core::forcefield::EwaldTosiFumi;
use mdm_core::integrate::Simulation;
use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm_core::velocities::maxwell_boltzmann;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

/// Checkpoint writes timed per size.
const WRITES: usize = 200;
/// Raw operations timed per row.
const RAW: usize = 60;

/// The median of `reps` timed calls of `f`, each after an untimed `prep`.
fn median(reps: usize, mut prep: impl FnMut(), mut f: impl FnMut()) -> Duration {
    let mut walls: Vec<Duration> = (0..reps)
        .map(|_| {
            prep();
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    walls.sort();
    walls[reps / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A checkpoint of a short N = 8·cells³ run.
fn checkpoint(cells: usize) -> Checkpoint {
    let mut system = rocksalt_nacl(cells, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 1200.0, 7);
    let ff = EwaldTosiFumi::nacl_default(system.simbox().l());
    let mut sim = Simulation::new(system, ff, 2.0);
    sim.run(2);
    Checkpoint::capture(&sim, "checkpoint-write", 7)
}

fn main() {
    let base = std::env::args()
        .nth(1)
        .map(Into::into)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("checkpoint-write-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("the directory is writable");
    println!("directory: {}", dir.display());

    println!("\nCheckpoint::write over an existing checkpoint, median of {WRITES}:");
    for cells in [2, 4] {
        let cp = checkpoint(cells);
        let path = dir.join(format!("n{cells}.ckpt"));
        cp.write(&path).expect("first write");
        let bytes = fs::metadata(&path).expect("written").len();
        let wall = median(WRITES, || {}, || cp.write(&path).expect("write"));
        println!(
            "  N = {:>3} ({bytes:>6} B)  {:8.3} ms",
            8 * cells * cells * cells,
            ms(wall)
        );
    }

    println!("\n1-byte file written, then ..., median of {RAW}:");
    let (tmp, target) = (dir.join("raw.tmp"), dir.join("raw"));
    let write_tmp = || fs::write(&tmp, b"x").expect("write");
    // The existing file is the last call's, as a checkpoint's is the
    // last slice's: a file just created and replaced at once is not
    // flushed (its blocks were never allocated).
    fs::write(&target, b"y").expect("target");
    let over = median(
        RAW,
        || {},
        || {
            write_tmp();
            fs::rename(&tmp, &target).expect("rename");
        },
    );
    let free = median(
        RAW,
        || remove_if_present(&target),
        || {
            write_tmp();
            fs::rename(&tmp, &target).expect("rename");
        },
    );
    let remove_rename = median(
        RAW,
        || {},
        || {
            write_tmp();
            remove_if_present(&target);
            fs::rename(&tmp, &target).expect("rename");
        },
    );
    println!("  renamed over an existing file  {:8.3} ms", ms(over));
    println!("  renamed onto a free name       {:8.3} ms", ms(free));
    println!("  remove + rename                {:8.3} ms", ms(remove_rename));
    fs::remove_dir_all(&dir).ok();
}

fn remove_if_present(path: &Path) {
    if let Err(e) = fs::remove_file(path) {
        assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{e}");
    }
}
