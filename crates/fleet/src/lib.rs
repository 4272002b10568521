//! selfheal-fleet: a sharded rejuvenation-scheduling service.
//!
//! The paper's deliverable is a *schedule* — when a circuit should
//! sleep, under which accelerated-recovery condition, for how long.
//! This crate turns the batch planner/policy machinery into a
//! long-running daemon serving those decisions for a simulated fleet:
//!
//! * [`FleetState`] shards the fleet's chips into SoA
//!   [`TrapBank`](selfheal_bti::td::TrapBank) blocks, seeded per shard
//!   from a split [`SeedSequence`](selfheal_runtime::SeedSequence) and
//!   advanced in epochs on the deterministic pool — state is
//!   bit-identical at any worker count.
//! * [`FleetDaemon`] answers `PLAN` / `PREDICT` / `REPORT` / `STATS`
//!   requests against the live banks through the planner's bank-view
//!   entry points, and streams the banks' columns to a binary checkpoint
//!   under the cache directory so a killed daemon resumes bit-exactly
//!   ([`checkpoint`]).
//! * [`FleetServer`] is the zero-dependency socket front end:
//!   length-prefixed JSON frames over `std::net::TcpListener`, a
//!   blocking worker-accept loop, per-request latency histograms in the
//!   metrics registry (`selfheal-top` can watch a fleet through a
//!   `--status` file), and graceful shutdown with a final checkpoint.
//!
//! The `fleetd` binary wires the three together; `fleet_smoke` (in
//! `selfheal-bench`) checks a running daemon with one request of each
//! type, and `fleetbench/` measures it under open-loop load.

pub mod checkpoint;
pub mod client;
pub mod config;
pub mod daemon;
pub mod proto;
pub mod server;
pub mod slo;
pub mod state;

pub use client::FleetClient;
pub use config::FleetConfig;
pub use daemon::FleetDaemon;
pub use proto::{Request, Response, TraceContext};
pub use server::{FleetServer, ServeSummary, ServerConfig};
pub use slo::{SloObjective, SloStatus};
pub use state::FleetState;
