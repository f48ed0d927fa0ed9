//! # das-serve — a multi-client simulation service over the DAS-DRAM
//! harness
//!
//! A std-only TCP server (threads + `TcpListener`, no async runtime)
//! that loads the experiment catalog once and serves simulation jobs to
//! many concurrent clients: versioned length-prefixed JSON frames
//! ([`proto`]), bounded admission with explicit `busy` backpressure,
//! per-job streaming progress/result events, an fsync'd service journal
//! proving no admitted job was orphaned, and a graceful drain that
//! finishes in-flight work before exit ([`server`]). The `dasctl` binary
//! ([`client`]) submits experiments and fetches results into the exact
//! artifact bytes a direct `harness` run writes — one shared rendering
//! code path, locked by the loopback tests and the CI smoke job.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod metrics_text;
pub mod proto;
pub mod retry;
pub mod server;
pub mod state;
