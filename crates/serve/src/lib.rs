//! # layerbem-serve
//!
//! Grounding-as-a-service: a resident study server over the staged
//! prepare/solve API. The library crates made one study fast — `prepare`
//! once at O(N³), answer every scenario at O(N) — but a one-shot process
//! still pays the prepare per invocation. This crate keeps the prepared
//! factors **resident**: a long-lived TCP server speaks newline-delimited
//! JSON, encodes each request's (geometry + soil + solver configuration)
//! canonically as a [`key::StudyKey`], and answers
//! scenario sweeps from a shared [`cache::StudyCache`] of
//! `Arc<Study>` — single-flight prepares, concurrent readers, LRU
//! eviction under a resident-bytes budget, and p50/p99 latency metrics
//! via a `stats` request.
//!
//! Module map:
//!
//! * [`json`] — a dependency-free JSON parser/writer whose float
//!   formatting round-trips bit-identically;
//! * [`protocol`] — the request/response documents;
//! * [`key`] — canonical study keys: the identity is the bytes, a 64-bit
//!   digest only indexes them (what "the same study" means);
//! * [`cache`] — the single-flight, LRU-by-resident-bytes study cache,
//!   whose entries also remember the deck text they were resolved from;
//! * [`metrics`] — counters and log₂ latency histograms;
//! * [`errors`] — typed request errors (`protocol`/`parse`/`model`/
//!   `prepare`/`solve`/`internal`) — the resident process never panics on
//!   input;
//! * [`server`] — the accept loop, connection workers and the
//!   [`server::Service`] request core: each op is validate → execute →
//!   render around `layerbem_core::workload::execute`, with the cache as
//!   the executor's study source;
//! * [`client`] — the blocking client the tests, CI smoke job and
//!   example use.

pub mod cache;
pub mod client;
pub mod errors;
pub mod json;
pub mod key;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use cache::{CacheOutcome, StudyCache};
pub use client::{ClientError, ScenarioAnswer, ServeClient, SolveReply};
pub use errors::{ErrorKind, RequestError};
pub use json::Json;
pub use key::StudyKey;
pub use metrics::Metrics;
pub use server::{spawn, EditSessionState, ServerConfig, ServerHandle, Service};
