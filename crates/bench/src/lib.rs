//! # sm-bench — experiment harness
//!
//! One experiment table ([`experiments::EXPERIMENTS`]) behind one binary:
//! `repro <name>…` runs entries — every figure and table of the paper's
//! evaluation, the baselined contract benches and the two open ablations
//! — and `repro --list` prints them.
//! An experiment returns a [`output::Report`] of typed cells, printed as
//! an aligned table and written as exactly one artifact,
//! `results/BENCH_<name>.json`. `smdoctor` audits and compares those
//! artifacts ([`compare`] is its regression gate, [`doctor`] its other
//! bench views); `smserved` is the streaming daemon. [`pade`] is the
//! traced run of Figs. 12–13: the engine's Padé iteration per device mode.
//!
//! Scale conventions: the laptop-scale defaults finish in seconds to a few
//! minutes; experiments that *solve* systems use a shortened basis range
//! ([`workloads::water_system`]) so per-column submatrices stay small,
//! while pattern/model experiments use the standard ranges. `--paper`
//! enlarges the workloads toward the paper's sizes.

pub mod compare;
pub mod doctor;
pub mod experiments;
pub mod output;
pub mod pade;
pub mod workloads;
