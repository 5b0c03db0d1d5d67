//! # sm-comsim — simulated message-passing substrate
//!
//! The paper runs on MPI across 2–32 Omni-Path-connected nodes. This crate
//! replaces MPI with two complementary pieces:
//!
//! * **one communicator contract**, the [`comm::Comm`] trait: an
//!   implementation supplies a raw tagged send/recv pair and a
//!   collective-tag sequence, and the barrier, the reduction, the gathers,
//!   the all-to-all and [`comm::Comm::split`] are provided methods written
//!   once over them, as MPI builds its collectives on point-to-point
//!   messages. Three implementations: the rank-per-thread
//!   [`thread::ThreadComm`], whose every inter-rank transfer is counted
//!   ([`stats::CommStats`]) so the transfer-deduplication claims of paper
//!   Sec. IV-B can be measured; the per-job subgroup
//!   [`subcomm::SubComm`] (the `MPI_Comm_split` analogue, from
//!   [`comm::Comm::split`] or [`subcomm::split_known`]), whose traffic
//!   rides a reserved tag namespace of its parent's raw pair and is
//!   accounted per group; and the single-rank [`comm::SerialComm`] behind
//!   unit tests and the dense reference paths. [`thread::run_ranks`]
//!   starts the rank threads per call; a [`thread::RankWorld`] keeps them
//!   for the next run;
//! * an **analytic cluster model** ([`model::ClusterModel`]) that converts
//!   per-rank FLOP and byte counts into a simulated wall-clock time for
//!   bulk-synchronous supersteps. The scaling experiments (paper
//!   Figs. 8–10) use this model to emulate 40–1280 cores on a laptop-class
//!   machine; DESIGN.md documents the substitution.
//!
//! A third piece makes the substrate *break on purpose*: the
//! [`fault`] module scripts deterministic rank deaths, poisoned job
//! attempts and stragglers ([`fault::FaultPlan`], installed by
//! [`thread::run_ranks_with_faults`]). Every run's world keeps one failure
//! registry ([`fault::FaultState`]), so a dead peer fails a blocking
//! receive, and with it any collective, the barrier included, instead of
//! hanging it, and [`comm::Comm::recv_deadline`] returns a typed
//! [`fault::CommError`] — the substrate the scheduler's epoch-level
//! recovery is built on.

pub mod cart;
pub mod comm;
pub mod fault;
pub mod model;
pub mod stats;
pub mod subcomm;
pub mod thread;

pub use cart::Cart2d;
pub use comm::{Comm, Payload, ReduceOp, SerialComm, COLLECTIVE_BIT};
pub use fault::{CommError, FaultPlan, FaultState, InjectionStats};
pub use model::ClusterModel;
pub use stats::CommStats;
pub use subcomm::{split_known, SubComm, SUBGROUP_BIT};
pub use thread::{run_ranks, run_ranks_with_faults, RankWorld, ThreadComm};
