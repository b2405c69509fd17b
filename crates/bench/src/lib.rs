//! # plugvolt-bench
//!
//! Benchmark and reproduction harness for the *Plug Your Volt*
//! (DAC 2024) reproduction.
//!
//! - [`scenario`] — the session layer: seed derivation, machine
//!   construction, memoized characterization maps, telemetry wiring;
//! - [`experiments`] — one runner per table/figure/ablation of the
//!   paper, shared by the `repro` binary and the integration tests;
//! - [`attr`] — the span-tracer attribution run behind
//!   `plugvolt-cli bench` (per-subsystem hot-path table, Chrome trace
//!   and flamegraph exports);
//! - [`soak`] — the `plugvolt-fuzz` differential soak fuzzer behind
//!   `plugvolt-cli soak` (randomized campaigns, oracle invariants,
//!   auto-shrunk reproducer corpus);
//! - [`trace`] — the MSR-transcript record/replay gate (pinned-schema
//!   JSONL fixtures, tape-clean + oracle + sim-differential checks);
//! - [`cli`] — argument handling shared by the `repro` and
//!   `plugvolt-cli` binaries;
//! - [`text`] — plain-text table rendering.
//!
//! Run `cargo run --release -p plugvolt-bench --bin repro -- all` to
//! regenerate every table and figure; see `EXPERIMENTS.md` for the
//! paper-vs-measured record.

#![warn(missing_docs)]

pub mod attr;
pub mod cli;
pub mod experiments;
pub mod scenario;
pub mod soak;
pub mod text;
pub mod trace;
