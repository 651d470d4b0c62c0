//! # mdm-serve — the MDM run server
//!
//! The paper's machine was a shared facility: one MDM, many users'
//! NaCl runs queued against it. This crate reproduces that operating
//! model in software. A long-running daemon accepts simulation job
//! submissions over line-delimited JSON, multiplexes them over a pool
//! of emulated board sets (time-sliced, metered by the j-store upload
//! counters), streams each job's flight-recorder JSONL live to
//! watching clients from the job's trace file, and checkpoints every run so a crash or drain
//! loses at most one scheduling slice.
//!
//! Three layers:
//!
//! * [`protocol`] — the wire format: job specs, requests, responses,
//!   all single-line JSON over TCP (the same zero-dependency
//!   [`mdm_profile::json`] layer the flight recorder uses);
//! * [`server`] — the daemon: bounded priority queue with
//!   reject-with-retry back-pressure, board-pool arbitration,
//!   checkpoint spool, restart-from-spool recovery, and `watch`
//!   streams that follow each job's `<job>.trace.jsonl`;
//! * [`client`] — a small blocking client used by `mdm_submit`, the
//!   soak driver, and the integration tests.
//!
//! Scheduling is slice-granular: a job runs `slice_steps` steps, a
//! checkpoint (positions, velocities, cached forces, RNG seed, step
//! counter, stale-potential carry) is written so that a kill at any
//! instant leaves one complete checkpoint, and the job goes back in the
//! queue. Because [`mdm_core::checkpoint`] restores
//! are bit-exact and the driver's potential cadence is carried across
//! the boundary, a job resumed after a kill produces the same
//! per-step observable stream, bit for bit, as an uninterrupted run.

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::Client;
pub use protocol::{JobSpec, JobState};
pub use server::{Server, ServerConfig};
