//! Network serving front-end for the frozen ST-WA forecaster.
//!
//! The inference engine (`stwa-infer`) is deliberately single-threaded:
//! tensors are `Rc` copy-on-write, so a model and its frozen
//! [`stwa_infer::InferSession`] live on one thread. This crate puts a network in front of a **pool** of such
//! threads — each replica freezes its own `FrozenStwa` on-thread from
//! the same registry version, so nothing `!Send` ever crosses a thread
//! boundary — without adding any dependency:
//!
//! - [`reactor`] — a minimal epoll readiness loop (the three epoll
//!   syscalls glibc already links, wrapped safely) plus a socket-pair
//!   [`reactor::Waker`] for cross-thread wakeups.
//! - [`http`] — an incremental, allocation-free HTTP/1.1 keep-alive
//!   parser with pipelining (requests borrow from the read buffer) and
//!   a response writer. No chunked encoding, no TLS.
//! - [`cache`] — a sharded per-sensor forecast cache keyed on (model
//!   version, sensor, horizon, window fingerprint) with TTL tied to
//!   the forecast step; an entry holds the encoded hit body, so a hit
//!   is a probe and a frame.
//! - [`proto`] — JSON bodies: one direct writer for responses,
//!   `stwa_observe::parse_json` for requests; f32 forecasts survive
//!   the wire bitwise, non-finite observations are refused.
//! - [`server`] — N IO worker threads (epoll + HTTP + cache) in front
//!   of a replica pool of model threads (per-replica `InferSession`
//!   evaluated directly, one-slot memo of the current window's
//!   forward, mirrored rolling window, coordinated registry hot
//!   swap); every cache miss goes to the current window's replica,
//!   and plain `Vec<f32>` jobs cross threads over `mpsc`.
//! - [`client`] — a blocking pipelining client for tests and the load
//!   generator.
//!
//! Endpoints: `GET /forecast?sensor=I&horizon=U`, `POST /observe`
//! (`{"frame": [N*F floats]}` appended to the rolling window),
//! `GET /healthz`, `GET /stats`, `POST /admin/swap` (swap the pool to
//! the registry's latest version now). Every forecast response names the snapshot version and the
//! exact window fingerprint it answers for, so clients can verify any
//! response — cache hit or miss — bitwise against a direct
//! [`stwa_infer::InferSession`] evaluation of that window.

pub mod cache;
pub mod client;
pub mod http;
pub mod proto;
#[cfg(target_os = "linux")]
pub mod reactor;
#[cfg(target_os = "linux")]
pub mod server;

pub use cache::{CacheKey, ForecastCache};
pub use client::{Client, Response};
#[cfg(target_os = "linux")]
pub use server::{Dims, ServeConfig, Server};
