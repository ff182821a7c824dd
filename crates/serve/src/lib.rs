//! **mc-serve** — the persistent synthesis/exploration service behind
//! `mcpm serve`.
//!
//! A hand-rolled, dependency-free HTTP/1.1 server over
//! `std::net::TcpListener` exposing the one-shot CLI's JSON commands as
//! endpoints (`POST /eval`, `/sweep`, `/explore`, `/retrofit`, plus `GET
//! /healthz` and `/stats`, and `POST /shutdown` for a graceful drain),
//! backed by three layers that make repeated queries cheap without ever
//! changing a byte of output:
//!
//! * [`api`] — typed requests whose [`run_json`](api::ApiRequest::run_json)
//!   is the *same code* the CLI `--json` paths call, so server responses
//!   are byte-identical to one-shot CLI output by construction;
//! * [`mc_core::cache`] — a sharded, content-addressed, on-disk result
//!   cache (atomic rename publication, versioned entries, corruption
//!   evicted and recomputed, never a panic) that survives server
//!   restarts, shared with the explorer;
//! * [`coalesce`] — request coalescing, so N identical in-flight requests
//!   share exactly one flow run.
//!
//! Compute runs on the deterministic
//! [`WorkerPool`](mc_explore::pool::WorkerPool), and every request is
//! traced (`serve.request.*` spans; `serve.cache.hit` / `serve.cache.miss`
//! / `serve.coalesced` counters) through the existing mc-trace machinery.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod coalesce;
pub mod http;
pub mod server;

pub use server::{ServeConfig, ServeError, Server, ServerStats};
