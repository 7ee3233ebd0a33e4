//! `gana-serve`: a concurrent annotation service over the `gana-core`
//! pipeline.
//!
//! The one-shot CLI loads the model and primitive library, annotates a
//! single netlist, and exits. This crate keeps those artifacts resident and
//! shares them across a worker pool, so many netlists can be annotated
//! concurrently with bounded memory and explicit backpressure:
//!
//! * [`Engine`] — in-process service: shared `Arc`'d artifacts, a bounded
//!   MPMC submission queue, N worker threads, a result cache, and
//!   per-stage metrics.
//! * [`server`] — a TCP front end (`gana serve`) with graceful shutdown
//!   that drains in-flight jobs; each connection auto-detects text or
//!   binary framing from its first byte.
//! * [`client`] — a small blocking client used by `gana submit` and tests.
//! * [`protocol`] — the newline-delimited text format shared by both sides.
//! * [`frame`] — the length-prefixed, CRC-checked binary framing carrying
//!   the same request/response surface.
//!
//! The submission queue is the backpressure boundary: [`Engine::submit`]
//! returns [`SubmitError::QueueFull`] immediately when the queue is at
//! capacity, while [`Engine::submit_blocking`] waits for space. Jobs carry
//! optional deadlines and can be cancelled while queued.

pub mod client;
pub mod engine;
pub mod frame;
pub mod job;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod transport;

pub(crate) use crossbeam::channel;

pub use client::{Client, ClientError, RetryPolicy};
pub use engine::{Engine, EngineBuilder, EngineConfig};
pub use job::{Annotation, JobError, JobHandle, JobRequest, JobResult, SubmitError};
pub use metrics::{
    HistogramSnapshot, LatencyHistogram, Metrics, SizeHistogram, StatsSnapshot, WorkspaceStats,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use transport::{accept_transport, ReadRequest, Transport};
