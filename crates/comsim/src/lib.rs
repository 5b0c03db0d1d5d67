//! # sm-comsim — simulated message-passing substrate
//!
//! The paper runs on MPI across 2–32 Omni-Path-connected nodes. This crate
//! replaces MPI with two complementary pieces:
//!
//! * a **rank-per-thread communicator** ([`thread::ThreadComm`]) implementing
//!   the [`comm::Comm`] trait (point-to-point send/recv with tags, barrier,
//!   reductions, gathers, all-to-all). Every transfer is counted
//!   ([`stats::CommStats`]) so the transfer-deduplication claims of paper
//!   Sec. IV-B can be measured. [`comm::Comm::split`] carves any
//!   communicator into per-job subgroups ([`subcomm::SubComm`], the
//!   `MPI_Comm_split` analogue) whose traffic rides a reserved tag
//!   namespace and is accounted per group. [`thread::run_ranks`] starts
//!   the rank threads per call; a [`thread::RankWorld`] keeps them for
//!   the next run;
//! * an **analytic cluster model** ([`model::ClusterModel`]) that converts
//!   per-rank FLOP and byte counts into a simulated wall-clock time for
//!   bulk-synchronous supersteps. The scaling experiments (paper
//!   Figs. 8–10) use this model to emulate 40–1280 cores on a laptop-class
//!   machine; DESIGN.md documents the substitution.
//!
//! A [`comm::SerialComm`] single-rank implementation backs unit tests and
//! the dense reference paths.
//!
//! A third piece makes the substrate *break on purpose*: the
//! [`fault`] module scripts deterministic rank deaths, poisoned job
//! attempts and stragglers ([`fault::FaultPlan`], installed by
//! [`thread::run_ranks_with_faults`]), with typed [`fault::CommError`]s
//! from [`comm::Comm::recv_deadline`] so a dead peer can never hang a group —
//! the substrate the scheduler's epoch-level recovery is built on.

pub mod cart;
mod collectives;
pub mod comm;
pub mod fault;
pub mod model;
pub mod stats;
pub mod subcomm;
pub mod thread;

pub use cart::Cart2d;
pub use comm::{Comm, Payload, ReduceOp, SerialComm};
pub use fault::{CommError, FaultPlan, FaultState, InjectionStats};
pub use model::ClusterModel;
pub use stats::CommStats;
pub use subcomm::{split_known, SubComm, SUBGROUP_BIT};
pub use thread::{run_ranks, run_ranks_with_faults, RankWorld, ThreadComm, COLLECTIVE_BIT};
