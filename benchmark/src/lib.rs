#![warn(missing_docs)]

//! # vapro-benchmark — the streaming pipeline, measured from outside
//!
//! Encoded wire-v3 frames in, `WindowReport`s out. One seeded generator
//! thread ([`gen`]) drives the real `WindowedIngestor` / `FleetIngestor`
//! through [`layers::Program`]; [`drive`] runs closed-loop and open-loop
//! passes, clocks window-close latency from outside and verifies every
//! output against the plan; [`bench`] turns passes into the end-to-end
//! and per-layer metric tables; [`report`] prints them, writes
//! `result.json` and implements `compare`; [`selftest`] proves the
//! estimators can fail. See `README.md` beside this crate.

pub mod bench;
pub mod drive;
pub mod gen;
pub mod layers;
pub mod report;
pub mod selftest;
pub mod trace;
