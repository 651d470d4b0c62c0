//! How fast the host is running right now, against a fixed yardstick.
//!
//! The baseline host is a 2-vCPU virtual machine whose speed is not
//! constant: for tens of seconds at a time two busy threads take up to
//! twice as long as usual (the vCPUs share a core) while one busy
//! thread barely slows, and the clock itself moves by a sixth. Ten raw
//! runs of `faithful_8k` on the same code had a quartile spread of
//! 23 % in `steps_per_s` and 37 % in `step_p50_s` — far more than any
//! change worth gating on, and more than any bound may be.
//!
//! So the harness times a small reference kernel of its own — fixed
//! arithmetic, none of the code under test, std threads rather than the
//! vendored rayon — next to what it measures, and reports times *at
//! nominal host speed*. The trajectory workloads run it before and
//! after every timed step and every set-up, once on one thread and once
//! on `threads` threads at a time: a time at nominal host speed is what
//! the interval would have taken on a host that runs the kernel in
//! exactly [`NOMINAL_S`]. Within one set of ten runs that halves the
//! spread (`steps_per_s` 6.6 % raw, 4.0 % nominal; `step_p50_s` 7.8 %
//! and 1.5 % in another). The times as measured are printed in a note.
//!
//! An interval of wall `W` and process CPU time `C` on `n` threads is
//! modelled as a serial part and an `n`-wide part: `W = T₁/s₁ + Tₙ/sₙ`,
//! `C = T₁/s₁ + n·Tₙ/sₙ`, with `s₁`, `sₙ` the host's speed (nominal
//! over measured kernel time) at either width. Solving for the nominal
//! parts gives `W₀ = T₁ + Tₙ` and `C₀ = T₁ + n·Tₙ`.
//!
//! A serve batch cannot be interrupted for readings, so a [`Sampler`]
//! thread runs the kernel every fifth of a second all through it and
//! times it on its own CPU clock: the busy host's speed. Only the wall
//! the pool spent stepping under the board lease (the server's ledger
//! has it) is rescaled by it; materialising, checkpoint IO and
//! scheduling are bound by allocation and IO, not arithmetic, and stay
//! as measured. Ten `serve_long` runs then spread by 3 % instead of
//! 9 %. (Readings at the idle ends of a batch were tried first and do
//! not track it: an idle host clocks differently from a busy one.)

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel time on the nominal host, at either width (seconds). The
/// baseline host at its usual speed is close to nominal.
pub const NOMINAL_S: f64 = 0.004;

/// Back-to-back kernel runs per reading; the fastest counts (a run can
/// only be delayed, never hurried).
const RUNS: usize = 3;

/// j-particles per sweep and sweeps per kernel run: [`NOMINAL_S`] of
/// work on the nominal host.
const COLUMN: usize = 8192;
const SWEEPS: usize = 88;

/// What the kernel reads: three f32 position columns and a 1024-row
/// function table, 116 KiB in all — like one MDGRAPE-2 pass over a
/// j-store, it lives in L2 and shares it with whatever else runs on
/// the core.
struct Workset {
    xs: Vec<f32>,
    ys: Vec<f32>,
    zs: Vec<f32>,
    table: Vec<[f32; 5]>,
}

impl Workset {
    /// Built once per process.
    fn get() -> &'static Workset {
        static WORKSET: OnceLock<Workset> = OnceLock::new();
        WORKSET.get_or_init(Workset::new)
    }

    fn new() -> Workset {
        let column = |phase: f32| -> Vec<f32> {
            (0..COLUMN)
                .map(|k| ((k as f32 * 0.37 + phase).sin() + 1.5) * 0.4)
                .collect()
        };
        Workset {
            xs: column(0.0),
            ys: column(1.0),
            zs: column(2.0),
            table: (0..1024)
                .map(|i| [0, 1, 2, 3, 4].map(|j| ((i * 7 + j * 3) % 97) as f32 * 0.01))
                .collect(),
        }
    }
}

/// Arithmetic shaped like the emulators' inner loops: f32 geometry over
/// SoA columns, a table row gathered by bit pattern, a quartic, f64
/// accumulation.
fn kernel(w: &Workset) -> f64 {
    let mut acc = [0.0f64; 3];
    for sweep in 0..SWEEPS {
        let xi = 0.3 + sweep as f32 * 0.01;
        for k in 0..COLUMN {
            let (dx, dy, dz) = (xi - w.xs[k], xi - w.ys[k], xi - w.zs[k]);
            let bits = (dx * dx + dy * dy + dz * dz).to_bits();
            let c = &w.table[((bits >> 13) & 1023) as usize];
            let t = (bits & 0x1fff) as f32 * (1.0 / 8192.0);
            let g = (((c[4] * t + c[3]) * t + c[2]) * t + c[1]) * t + c[0];
            acc[0] += (g * dx) as f64;
            acc[1] += (g * dy) as f64;
            acc[2] += (g * dz) as f64;
        }
    }
    acc[0] + acc[1] + acc[2]
}

/// Fastest of [`RUNS`] walls of the kernel on `width` threads at once.
fn kernel_wall(width: usize, workset: &Workset) -> f64 {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            if width == 1 {
                black_box(kernel(black_box(workset)));
            } else {
                std::thread::scope(|s| {
                    for _ in 0..width {
                        s.spawn(|| black_box(kernel(black_box(workset))));
                    }
                });
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// CPU time the calling thread has used, in seconds, at nanosecond
/// resolution. Unlike the wall clock it does not count time spent
/// waiting for a CPU, so it can time the kernel while the program under
/// test keeps every CPU busy. (`/proc/thread-self/schedstat` only moves
/// at scheduler ticks, and the standard library has no thread clock.)
fn thread_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const THREAD_CPU_CLOCK: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which the standard
    // library already links; `ts` is a live, writable `struct timespec`
    // (two 64-bit fields on every 64-bit Linux ABI, the only targets
    // this `/proc`-reading harness builds for) and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(THREAD_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Reads the host's speed *while the program under test runs*, for an
/// interval the harness cannot interrupt (a serve batch): a thread that
/// wakes every `period`, runs the kernel once, and times it on its own
/// CPU clock. The program under test keeps the other CPUs busy
/// meanwhile, so this is the speed of a busy host — [`Speed::wide`]. It
/// costs the program under test [`NOMINAL_S`] of one CPU per period.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl Sampler {
    pub fn start(period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let workset = Workset::get();
                let mut speeds = Vec::new();
                // Relaxed: the flag publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    let start = thread_cpu_seconds();
                    black_box(kernel(black_box(workset)));
                    speeds.push(NOMINAL_S / (thread_cpu_seconds() - start));
                }
                speeds
            })
        };
        Sampler { stop, thread }
    }

    /// Stop; the median speed sampled, if any sample was taken.
    pub fn finish(self) -> Option<f64> {
        self.stop.store(true, Ordering::Relaxed);
        let speeds = self.thread.join().expect("the sampler does not panic");
        crate::stats::median(&speeds)
    }
}

/// Host speed relative to nominal (1 = nominal, 0.5 = half speed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Speed {
    /// With one thread busy.
    pub one: f64,
    /// With `threads` threads busy at once (equals `one` when
    /// `threads` is 1).
    pub wide: f64,
}

impl Speed {
    /// Take a reading now (≈ 25 ms).
    pub fn read(threads: usize) -> Speed {
        let workset = Workset::get();
        let one = NOMINAL_S / kernel_wall(1, workset);
        let wide = if threads > 1 {
            NOMINAL_S / kernel_wall(threads, workset)
        } else {
            one
        };
        Speed { one, wide }
    }

    /// The mean of two readings: the speed over the interval they
    /// bracket.
    pub fn between(a: Speed, b: Speed) -> Speed {
        Speed {
            one: 0.5 * (a.one + b.one),
            wide: 0.5 * (a.wide + b.wide),
        }
    }

    /// `(wall, cpu)` at nominal speed of an interval measured as
    /// `wall` seconds of wall clock and `cpu` seconds of process CPU
    /// time on `threads` threads at this speed.
    pub fn nominal(&self, wall: f64, cpu: f64, threads: usize) -> (f64, f64) {
        if threads <= 1 {
            return (wall * self.one, cpu * self.one);
        }
        let n = threads as f64;
        // Measured seconds in the n-wide and the serial part; a CPU
        // reading outside [wall, n·wall] (tick rounding, a third
        // thread) is clamped to the model's range.
        let wide = ((cpu - wall) / (n - 1.0)).clamp(0.0, wall);
        let serial = wall - wide;
        let (t1, tn) = (serial * self.one, wide * self.wide);
        (t1 + tn, t1 + n * tn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_host_leaves_times_alone() {
        let s = Speed {
            one: 1.0,
            wide: 1.0,
        };
        let (w, c) = s.nominal(10.0, 16.0, 2);
        assert!((w - 10.0).abs() < 1e-12 && (c - 16.0).abs() < 1e-12);
    }

    #[test]
    fn a_shared_core_is_undone_at_the_right_width() {
        // Nominal: 4 s serial + 6 s two-wide → W₀ = 10, C₀ = 16. On a
        // host whose two vCPUs share a core (wide speed 0.5, serial
        // speed 1) that measures as W = 4 + 12 = 16, C = 4 + 24 = 28.
        let s = Speed {
            one: 1.0,
            wide: 0.5,
        };
        let (w, c) = s.nominal(16.0, 28.0, 2);
        assert!((w - 10.0).abs() < 1e-12, "{w}");
        assert!((c - 16.0).abs() < 1e-12, "{c}");
        // A fully serial interval is untouched by the wide slowdown.
        let (w, c) = s.nominal(5.0, 5.0, 2);
        assert!((w - 5.0).abs() < 1e-12 && (c - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_outside_the_model_is_clamped() {
        let s = Speed {
            one: 1.0,
            wide: 0.5,
        };
        assert_eq!(s.nominal(2.0, 1.0, 2).0, 2.0); // cpu < wall: all serial
        assert_eq!(s.nominal(2.0, 9.0, 2).0, 1.0); // cpu > 2·wall: all wide
        assert_eq!(
            Speed {
                one: 2.0,
                wide: 9.0
            }
            .nominal(3.0, 3.0, 1),
            (6.0, 6.0)
        );
    }

    #[test]
    fn the_sampler_reads_a_plausible_speed() {
        let start = thread_cpu_seconds();
        let sampler = Sampler::start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(80));
        let speed = sampler.finish().expect("sampled at least once in 80 ms");
        assert!(speed > 0.01 && speed < 100.0, "{speed}");
        assert!(thread_cpu_seconds() >= start);
    }

    #[test]
    fn readings_are_positive_and_bracket() {
        let a = Speed::read(2);
        assert!(a.one > 0.0 && a.wide > 0.0);
        let m = Speed::between(
            Speed {
                one: 1.0,
                wide: 0.4,
            },
            Speed {
                one: 0.8,
                wide: 0.6,
            },
        );
        assert_eq!(
            m,
            Speed {
                one: 0.9,
                wide: 0.5
            }
        );
    }
}
