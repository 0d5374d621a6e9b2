//! The serving front-end: IO worker threads over an epoll reactor, a
//! pool of model replica threads each owning its own frozen snapshot,
//! and the channels between them.
//!
//! Tensors are single-threaded (`Rc` copy-on-write storage), so a
//! model and its frozen session live on exactly one thread. PR 9 put
//! *one* such thread behind N IO workers; on a many-core host that
//! single evaluator is the bottleneck. The replica pool fixes it the
//! same way `ShardEngine` parallelizes training: the builder closure
//! runs once *per replica thread* (a `!Send` model can be built
//! anywhere but moved nowhere), every replica freezes the same pinned
//! registry version, and each owns a private `InferSession` (with its
//! plan arena) and a one-slot memo of the current window's forward.
//! The forward is city-wide — sensor attention couples all N sensors —
//! so a replica holds exactly one rolling window and every forecast is
//! a slice of the same evaluation: the first forecast on a window runs
//! it on the spot, later ones slice the memo, and there is never a
//! second row to batch. IO workers still own the sockets, parse HTTP,
//! and serve cache hits inline — a cache entry holds the encoded
//! answer (the replica wrote it when it primed the cache), so a hit is
//! parse → probe → frame onto the write buffer; misses are sharded
//! across replicas by sensor-affinity hashing (`sensor % n` keeps a
//! sensor's memo hot on one replica) with least-queue-depth spill when
//! the affinity target backs up.
//!
//! Correctness invariants:
//! - **In-order responses per connection.** HTTP/1.1 pipelining means
//!   responses must leave in request order even when a cache hit (an
//!   inline reply) overtakes a replica round trip. Every parsed
//!   request takes a per-connection sequence number; an inline answer
//!   whose number is next goes straight onto the write buffer, and
//!   anything completed out of turn waits in a `BTreeMap` until the
//!   earlier replica replies have landed.
//! - **Bounded residency.** The replica that applies an observe drops
//!   the superseded window's cache entries (after publishing the new
//!   fingerprint), as the last flip of a swap drops the retired
//!   version's: a live (version, window) keeps at most N·U entries.
//!   A connection that owes its peer more than `WBUF_CAP` unsent bytes
//!   is neither parsed nor read until the peer drains it.
//! - **Identical windows on every replica.** Observations broadcast to
//!   all replicas under one lock, so every replica channel sees them
//!   in the same order; each replica applies the same frames to the
//!   same zero-initialized window and their fingerprints never
//!   diverge. A forecast dispatched to any replica therefore answers
//!   for the same window the others would.
//! - **Read-your-writes per connection.** A forecast pipelined behind
//!   an observation on the same connection skips the cache and lands
//!   on some replica's channel *behind* that replica's copy of the
//!   observe (one mpsc producer per worker ⇒ FIFO), so it is
//!   evaluated against the new window.
//! - **Version stamps are registry versions.** Responses name the
//!   registry version they were computed under (0 = the builder's
//!   weights, which can never be swapped). Unlike per-thread store
//!   counters, registry versions are identical across replicas by
//!   construction, so a (version, window_fp) stamp is
//!   bitwise-verifiable against direct eval no matter which replica
//!   answered.
//! - **Coordinated swaps, zero drops.** A swap broadcasts like an
//!   observe, pinned to one target version resolved once by whoever
//!   triggers it; each replica flips between jobs (an evaluation is
//!   synchronous, so nothing is ever in flight on the old snapshot).
//!   The shared version is published and old-version cache entries
//!   are purged only after the *last* replica flips; until then hits
//!   serve the old version and misses truthfully stamp whichever
//!   version their replica is on. Shutdown stops accepting, drains
//!   every in-flight job, flushes every write buffer, and only then
//!   lets threads exit.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stwa_core::StwaModel;
use stwa_infer::{FrozenStwa, InferSession};
use stwa_observe::Json;
use stwa_tensor::quant::Precision;
use stwa_tensor::Tensor;

use crate::cache::{fingerprint_f32, CacheKey, ForecastCache};
use crate::http::{self, Parse, Request};
use crate::proto;
use crate::reactor::{Epoll, Event, WakeReader, Waker, EPOLLIN, EPOLLOUT};

/// Everything tunable about a server.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// IO worker threads (model replicas always get their own threads).
    pub io_threads: usize,
    /// Model replica threads. Each runs the builder closure itself,
    /// freezes the same pinned registry version, and owns a private
    /// `InferSession` + memo. 1 reproduces the PR 9 single-evaluator
    /// path bit for bit.
    pub model_threads: usize,
    /// Unused: replicas evaluate directly, there is no queue to wait
    /// on. The field survives only because `benchmark/src/serve.rs`
    /// sets it in a struct literal and `benchmark/` is frozen for this
    /// PR; the next `[benchmark]` PR drops both.
    pub max_wait: Duration,
    /// Forecast cache TTL — tie this to the forecast step length so an
    /// entry never outlives the step it predicts.
    pub ttl: Duration,
    pub cache_shards: usize,
    /// How often replica 0 checks the registry for a newer published
    /// version (hot swap). Ignored without a registry.
    pub registry_poll: Duration,
    /// How often IO worker 0 sweeps expired cache entries. Expiry is
    /// checked on every read; the sweep only reclaims memory.
    pub sweep_interval: Duration,
    /// Panel precision for the frozen serving snapshot.
    pub precision: Precision,
    /// Registry root + model name. With a registry the server freezes
    /// from the latest published version and hot-swaps when a newer
    /// one appears; without one it serves the builder's weights as-is.
    pub registry: Option<(PathBuf, String)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            io_threads: stwa_pool::configured_threads().max(1),
            model_threads: 1,
            max_wait: Duration::ZERO,
            ttl: Duration::from_secs(300),
            cache_shards: 16,
            registry_poll: Duration::from_millis(200),
            sweep_interval: Duration::from_secs(5),
            precision: Precision::F32,
            registry: None,
        }
    }
}

/// Model dimensions published once by the replica pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dims {
    pub sensors: usize,
    pub history: usize,
    pub horizon: usize,
    pub features: usize,
}

/// Coordinated-swap barrier: the pool's published version is the
/// lowest version any replica serves, so the replica whose flip raises
/// that floor publishes it and purges the retired versions' cache
/// entries. Monotone by construction — back-to-back swaps (v2 then v3
/// while a peer is still on v1) cannot strand it.
struct SwapState {
    /// Registry version each replica serves.
    serving: Vec<u64>,
    /// When the first replica moved ahead of the published version.
    started: Option<Instant>,
}

/// Counters and snapshot state shared by every thread.
struct Shared {
    shutdown: AtomicBool,
    /// Registry handle + model name, when serving from a registry.
    registry: Option<(stwa_ckpt::Registry, String)>,
    /// Registry version of the pool-wide published snapshot (0 =
    /// builder weights; cache key part).
    version: AtomicU64,
    /// Fingerprint of the current input window (cache key part).
    window_fp: AtomicU64,
    cache: ForecastCache,
    requests: AtomicU64,
    responses: AtomicU64,
    inline_hits: AtomicU64,
    model_jobs: AtomicU64,
    swaps: AtomicU64,
    swap_errors: AtomicU64,
    client_aborts: AtomicU64,
    conns: AtomicU64,
    /// Duration of the last coordinated swap, first flip to last flip.
    swap_us: AtomicU64,
    /// In-flight jobs per replica channel (dispatch heuristic input).
    replica_depth: Vec<AtomicUsize>,
    /// Full window evaluations per replica.
    replica_evals: Vec<AtomicU64>,
    /// Serializes observe/swap broadcasts so every replica channel
    /// receives them in the same order — the invariant that keeps
    /// replica windows (and their fingerprints) identical.
    broadcast: Mutex<()>,
    swap_state: Mutex<SwapState>,
}

impl Shared {
    fn new(
        config: &ServeConfig,
        registry: Option<(stwa_ckpt::Registry, String)>,
        pinned_version: u32,
        n_replicas: usize,
    ) -> Shared {
        Shared {
            shutdown: AtomicBool::new(false),
            registry,
            version: AtomicU64::new(pinned_version as u64),
            window_fp: AtomicU64::new(0),
            cache: ForecastCache::new(config.cache_shards, config.ttl),
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            inline_hits: AtomicU64::new(0),
            model_jobs: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            swap_errors: AtomicU64::new(0),
            client_aborts: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            swap_us: AtomicU64::new(0),
            replica_depth: (0..n_replicas).map(|_| AtomicUsize::new(0)).collect(),
            replica_evals: (0..n_replicas).map(|_| AtomicU64::new(0)).collect(),
            broadcast: Mutex::new(()),
            swap_state: Mutex::new(SwapState {
                serving: vec![pinned_version as u64; n_replicas],
                started: None,
            }),
        }
    }

    /// Newest published registry version; `None` without a registry or
    /// before the first publish. Swap triggers resolve their target
    /// through this exactly once — replicas resolving on their own
    /// could straddle a publish and split the pool.
    fn latest_version(&self) -> Option<u32> {
        let (registry, name) = self.registry.as_ref()?;
        registry.latest(name).ok()
    }
}

#[derive(Clone)]
enum JobKind {
    Forecast { sensor: u32, horizon: u32 },
    Observe { frame: Vec<f32> },
    /// Pin to a specific registry version: whoever triggers the swap
    /// (poller or admin call) resolves the target once, so every
    /// replica loads the same version exactly once.
    Swap { target: u32 },
}

/// Where a reply must go. Broadcast jobs carry a route only on
/// replica 0's copy — it is the sole responder.
#[derive(Clone, Copy)]
struct Route {
    worker: usize,
    conn: u64,
    seq: u64,
    keep_alive: bool,
}

struct Job {
    route: Option<Route>,
    kind: JobKind,
}

/// What a replica reports once its snapshot is frozen: `(dims, public
/// version, window fingerprint)` on success — cross-checked for
/// equality across the pool before the server accepts traffic.
type ReadyInfo = (Dims, u64, u64);
type ReplicaReady = (usize, Result<ReadyInfo, String>);

struct Reply {
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
    close_after: bool,
    /// Reply to an observe — pairs the worker's `inflight_observes`
    /// decrement exactly (replica replies are not in per-connection
    /// submission order once misses shard across replicas).
    observe: bool,
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// threads; call shutdown for a clean drain.
pub struct Server {
    addr: std::net::SocketAddr,
    dims: Dims,
    shared: Arc<Shared>,
    wakers: Vec<Waker>,
    workers: Vec<std::thread::JoinHandle<()>>,
    replicas: Vec<std::thread::JoinHandle<()>>,
    /// Held until [`Server::shutdown`] has joined every worker, so no
    /// replica can exit before the last worker has.
    job_txs: Vec<Sender<Job>>,
}

impl Server {
    /// Bind, spawn the replica pool (each replica runs `build` and
    /// freezes its own serving snapshot on-thread, because tensors are
    /// not `Send`), wait until every replica is ready and agrees on
    /// dims/version/window, then spawn the IO workers.
    pub fn start<F>(config: ServeConfig, build: F) -> std::io::Result<Server>
    where
        F: Fn() -> stwa_tensor::Result<StwaModel> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let n_replicas = config.model_threads.max(1);

        // Resolve the initial registry version once, so every replica
        // loads the same pinned version even if a publish races
        // startup. An empty registry pins 0: the builder's weights.
        let registry = match &config.registry {
            None => None,
            Some((root, name)) => {
                let reg = stwa_ckpt::Registry::open(root)
                    .map_err(|e| std::io::Error::other(format!("open registry: {e}")))?;
                Some((reg, name.clone()))
            }
        };
        let pinned_version: u32 = match &registry {
            None => 0,
            Some((reg, name)) => {
                let versions = reg
                    .versions(name)
                    .map_err(|e| std::io::Error::other(format!("registry versions: {e}")))?;
                if versions.is_empty() {
                    0
                } else {
                    reg.latest(name)
                        .map_err(|e| std::io::Error::other(format!("registry latest: {e}")))?
                }
            }
        };

        let shared = Arc::new(Shared::new(&config, registry, pinned_version, n_replicas));

        let io_threads = config.io_threads.max(1);
        let mut reply_txs = Vec::with_capacity(io_threads);
        let mut worker_parts = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
            let (waker, wake_reader) = Waker::pair()?;
            reply_txs.push((reply_tx, waker.clone()));
            worker_parts.push((reply_rx, wake_reader, waker));
        }

        // Replica pool first: workers must not accept until dims and
        // the initial version are published. Replica 0 additionally
        // holds senders to its peers for registry-poll swap broadcasts;
        // teardown cascades through it (the server drops its senders
        // once the workers are joined → replica 0 exits and drops the
        // peer senders → peers exit).
        let build = Arc::new(build);
        let mut job_txs: Vec<Sender<Job>> = Vec::with_capacity(n_replicas);
        let mut job_rxs: Vec<Receiver<Job>> = Vec::with_capacity(n_replicas);
        for _ in 0..n_replicas {
            let (tx, rx) = std::sync::mpsc::channel::<Job>();
            job_txs.push(tx);
            job_rxs.push(rx);
        }
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<ReplicaReady>();
        let mut replicas = Vec::with_capacity(n_replicas);
        for (idx, job_rx) in job_rxs.into_iter().enumerate() {
            let peer_txs: Vec<Sender<Job>> = if idx == 0 {
                job_txs[1..].to_vec()
            } else {
                Vec::new()
            };
            let cfg = config.clone();
            let build = Arc::clone(&build);
            let shared = Arc::clone(&shared);
            let reply_txs = reply_txs.clone();
            let ready_tx = ready_tx.clone();
            replicas.push(
                std::thread::Builder::new()
                    .name(format!("stwa-serve-model{idx}"))
                    .spawn(move || {
                        replica_main(
                            idx,
                            n_replicas,
                            cfg,
                            build,
                            shared,
                            job_rx,
                            peer_txs,
                            reply_txs,
                            ready_tx,
                            pinned_version,
                        )
                    })?,
            );
        }
        drop(ready_tx);

        let abort = |job_txs: Vec<Sender<Job>>, replicas: Vec<std::thread::JoinHandle<()>>| {
            drop(job_txs);
            for replica in replicas {
                let _ = replica.join();
            }
        };
        let mut infos: Vec<Option<ReadyInfo>> = vec![None; n_replicas];
        for _ in 0..n_replicas {
            match ready_rx.recv() {
                Ok((idx, Ok(info))) => infos[idx] = Some(info),
                Ok((idx, Err(e))) => {
                    abort(job_txs, replicas);
                    return Err(std::io::Error::other(format!("replica {idx} failed: {e}")));
                }
                Err(_) => {
                    abort(job_txs, replicas);
                    return Err(std::io::Error::other("replica died before ready"));
                }
            }
        }
        let (dims, version, window_fp) = infos[0].expect("replica 0 reported ready");
        for (idx, info) in infos.iter().enumerate() {
            let (d, v, fp) = info.expect("replica reported ready");
            if d != dims || v != version || fp != window_fp {
                abort(job_txs, replicas);
                return Err(std::io::Error::other(format!(
                    "replica {idx} diverged at startup: \
                     ({d:?}, v{v}, fp {fp:#x}) vs ({dims:?}, v{version}, fp {window_fp:#x})"
                )));
            }
        }
        shared.window_fp.store(window_fp, Ordering::Release);

        let mut wakers = Vec::with_capacity(io_threads);
        let mut workers = Vec::with_capacity(io_threads);
        for (idx, (reply_rx, wake_reader, waker)) in worker_parts.into_iter().enumerate() {
            wakers.push(waker);
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let job_txs = job_txs.clone();
            let sweep_interval = config.sweep_interval;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("stwa-serve-io{idx}"))
                    .spawn(move || {
                        worker_main(
                            idx,
                            listener,
                            shared,
                            dims,
                            job_txs,
                            reply_rx,
                            wake_reader,
                            sweep_interval,
                        )
                    })?,
            );
        }

        Ok(Server {
            addr,
            dims,
            shared,
            wakers,
            workers,
            replicas,
            job_txs,
        })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Pool-wide published snapshot version: the registry version every
    /// replica currently serves (0 = builder weights, never swapped).
    pub fn version(&self) -> u64 {
        self.shared.version.load(Ordering::Acquire)
    }

    /// Completed (pool-wide) hot swaps so far.
    pub fn swaps(&self) -> u64 {
        self.shared.swaps.load(Ordering::Relaxed)
    }

    /// Model replica threads serving this instance.
    pub fn replicas(&self) -> usize {
        self.shared.replica_depth.len()
    }

    /// (requests parsed, responses sent) so far.
    pub fn traffic(&self) -> (u64, u64) {
        (
            self.shared.requests.load(Ordering::Relaxed),
            self.shared.responses.load(Ordering::Relaxed),
        )
    }

    /// Graceful drain: stop accepting, serve everything in flight,
    /// flush every socket, join every thread.
    ///
    /// Workers exit before any replica. glibc hands a new thread the
    /// malloc arena of the thread that exited last, so a server started
    /// after this one gives its replica the old replica's heap. Left to
    /// the scheduler, a replica could inherit a worker's small heap and
    /// grow a new one beside the old model's freed pages, and the
    /// process's peak RSS would differ by about 5 MiB from run to run.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.job_txs.clear();
        for replica in self.replicas.drain(..) {
            let _ = replica.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Replica dispatch
// ---------------------------------------------------------------------------

/// Queue depth at which the affinity replica is considered backed up.
const SPILL_DEPTH: usize = 32;

/// Pick a replica for a cache-miss forecast: sensor-affinity hashing
/// (`sensor % n` keeps one sensor's memo hot on one replica) with
/// least-depth spill only when the affinity target is backed up *and*
/// meaningfully deeper than the least-loaded replica — the hysteresis
/// keeps affinity sticky under jitter.
fn pick_replica(sensor: u32, depths: &[usize]) -> usize {
    let n = depths.len();
    let affinity = sensor as usize % n;
    if n == 1 || depths[affinity] < SPILL_DEPTH {
        return affinity;
    }
    let (mut min_idx, mut min_depth) = (affinity, depths[affinity]);
    for (idx, &depth) in depths.iter().enumerate() {
        if depth < min_depth {
            min_idx = idx;
            min_depth = depth;
        }
    }
    if depths[affinity] - min_depth >= SPILL_DEPTH / 2 {
        min_idx
    } else {
        affinity
    }
}

/// Send a forecast miss to its replica. Returns false when the pool is
/// gone (shutdown).
fn dispatch_forecast(
    job_txs: &[Sender<Job>],
    shared: &Shared,
    route: Route,
    sensor: u32,
    horizon: u32,
) -> bool {
    let idx = if job_txs.len() == 1 {
        0
    } else {
        let depths: Vec<usize> = shared
            .replica_depth
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect();
        pick_replica(sensor, &depths)
    };
    shared.replica_depth[idx].fetch_add(1, Ordering::Relaxed);
    let job = Job {
        route: Some(route),
        kind: JobKind::Forecast { sensor, horizon },
    };
    if job_txs[idx].send(job).is_ok() {
        true
    } else {
        shared.replica_depth[idx].fetch_sub(1, Ordering::Relaxed);
        false
    }
}

/// Send an observe/swap to every replica in one atomic order (the
/// broadcast lock is what keeps replica windows identical). Replica 0
/// gets the route and answers; the rest apply silently. Returns false
/// when the responder channel is gone.
fn broadcast(job_txs: &[Sender<Job>], shared: &Shared, route: Route, kind: JobKind) -> bool {
    let _order = shared.broadcast.lock().unwrap();
    let mut routed_ok = false;
    for (idx, tx) in job_txs.iter().enumerate() {
        let job = Job {
            route: (idx == 0).then_some(route),
            kind: kind.clone(),
        };
        shared.replica_depth[idx].fetch_add(1, Ordering::Relaxed);
        if tx.send(job).is_ok() {
            if idx == 0 {
                routed_ok = true;
            }
        } else {
            shared.replica_depth[idx].fetch_sub(1, Ordering::Relaxed);
        }
    }
    routed_ok
}

// ---------------------------------------------------------------------------
// IO worker
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_CONN0: u64 = 2;

/// Response bytes a connection may owe its peer — unsent in `wbuf` plus
/// parked in `done` — before the worker stops parsing its requests and
/// stops reading its socket. A peer that pipelines requests and never
/// reads would otherwise grow the buffer for as long as it keeps
/// sending (~235 response bytes per ~60 request bytes); a peer that
/// does read never gets near this.
const WBUF_CAP: usize = 256 * 1024;

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Framed responses in request order; `wbuf[wpos..]` is unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number whose response may be written.
    next_flush: u64,
    /// Completed responses waiting for an earlier sequence number that
    /// is still at a replica.
    done: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Bytes held in `done`.
    parked: usize,
    /// Requests handed to the replica pool, not yet replied.
    inflight: usize,
    /// Observations handed to the pool, not yet replied — while
    /// nonzero, forecasts on this connection bypass the cache so their
    /// replica orders them after the observe.
    inflight_observes: usize,
    /// Stop reading (a `Connection: close` request or a fatal parse
    /// error); the connection dies once fully flushed.
    closing: bool,
    /// Registered epoll interest, to skip redundant `EPOLL_CTL_MOD`s.
    interest: u32,
}

impl Conn {
    /// A fresh connection, registered for reads.
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            next_flush: 0,
            done: BTreeMap::new(),
            parked: 0,
            inflight: 0,
            inflight_observes: 0,
            closing: false,
            interest: EPOLLIN,
        }
    }

    /// Over [`WBUF_CAP`]: answer nothing more until the peer reads.
    fn backlogged(&self) -> bool {
        self.wbuf.len() - self.wpos + self.parked > WBUF_CAP
    }

    /// May take (more) requests: not closing, not over the cap.
    fn accepts_requests(&self) -> bool {
        !self.closing && !self.backlogged()
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_main(
    worker_idx: usize,
    listener: TcpListener,
    shared: Arc<Shared>,
    dims: Dims,
    job_txs: Vec<Sender<Job>>,
    reply_rx: Receiver<Reply>,
    wake_reader: WakeReader,
    sweep_interval: Duration,
) {
    let mut epoll = match Epoll::new() {
        Ok(e) => e,
        Err(_) => return,
    };
    use std::os::unix::io::AsRawFd;
    if epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN).is_err() {
        return;
    }
    let _ = epoll.add(wake_reader.fd(), TOKEN_WAKER, EPOLLIN);

    // Per-worker accept counter; the leak is one short name per worker
    // thread for the process lifetime.
    let conns_counter =
        stwa_observe::counter(Box::leak(format!("serve.io{worker_idx}.conns").into_boxed_str()));

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_CONN0;
    let mut events: Vec<Event> = Vec::new();
    let mut accepting = true;
    let mut last_sweep = Instant::now();

    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if shutting_down {
            if accepting {
                // Drain the accept backlog once: connections whose
                // handshake finished before the shutdown signal get
                // served, not reset when the listener closes.
                accept_all(&listener, &epoll, &shared, conns_counter, &mut conns, &mut next_token);
                let _ = epoll.delete(listener.as_raw_fd());
                accepting = false;
            }
            // Final read pass before judging idleness: requests that
            // reached the kernel buffer before the shutdown signal are
            // parsed and served, not reset.
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                let conn = conns.get_mut(&token).unwrap();
                if !conn.closing
                    && read_and_dispatch(worker_idx, token, conn, &shared, &dims, &job_txs)
                {
                    let _ = epoll.delete(conn.stream.as_raw_fd());
                    conns.remove(&token);
                }
            }
            // Close connections with nothing left to serve; exit once
            // none remain. Busy connections finish their responses.
            conns.retain(|_, c| {
                !(c.inflight == 0 && c.done.is_empty() && c.wbuf.is_empty())
            });
            if conns.is_empty() {
                return;
            }
        }

        // TTL reclamation off the request path: expiry is enforced on
        // every read, the sweep only frees memory, so one worker doing
        // it at a coarse interval is plenty.
        if worker_idx == 0 && !shutting_down && last_sweep.elapsed() >= sweep_interval {
            last_sweep = Instant::now();
            let removed = shared.cache.sweep();
            if removed > 0 {
                stwa_observe::counter!("serve.cache_swept").add(removed as u64);
            }
        }

        let timeout = Some(if shutting_down {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(500).min(sweep_interval)
        });
        if epoll.wait(&mut events, timeout).is_err() {
            return;
        }

        let fired = std::mem::take(&mut events);
        for ev in &fired {
            match ev.token {
                TOKEN_LISTENER => {
                    if !accepting || shutting_down {
                        continue;
                    }
                    // Level-triggered and shared across workers: accept
                    // until WouldBlock, whoever wakes first wins.
                    accept_all(&listener, &epoll, &shared, conns_counter, &mut conns, &mut next_token);
                }
                TOKEN_WAKER => wake_reader.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut dead = ev.writable && flush_wbuf(conn);
                    // Buffered bytes without a readable event are
                    // requests left unparsed while over the cap.
                    if !dead
                        && (ev.readable || !conn.rbuf.is_empty())
                        && conn.accepts_requests()
                    {
                        dead = read_and_dispatch(
                            worker_idx, token, conn, &shared, &dims, &job_txs,
                        );
                    }
                    if ev.closed && conn.inflight == 0 && conn.wbuf.is_empty() {
                        dead = true;
                    }
                    if dead {
                        if conn.inflight > 0 {
                            // Peer vanished with requests in flight;
                            // their replies will be discarded.
                            shared
                                .client_aborts
                                .fetch_add(conn.inflight as u64, Ordering::Relaxed);
                            stwa_observe::counter!("serve.client_aborts")
                                .add(conn.inflight as u64);
                        }
                        let _ = epoll.delete(conn.stream.as_raw_fd());
                        conns.remove(&token);
                    } else {
                        update_interest(&epoll, token, conns.get_mut(&token).unwrap());
                    }
                }
            }
        }

        // Replica replies (the waker fired, or we woke anyway).
        while let Ok(reply) = reply_rx.try_recv() {
            let Some(conn) = conns.get_mut(&reply.conn) else {
                // Client hung up before its answer came back; the abort
                // was counted when the connection died.
                continue;
            };
            conn.inflight -= 1;
            if reply.observe {
                // Exact pairing: replies are tagged, because with
                // several replicas they no longer arrive in
                // per-connection submission order.
                conn.inflight_observes = conn.inflight_observes.saturating_sub(1);
            }
            complete(conn, reply.seq, reply.bytes, reply.close_after);
            shared.responses.fetch_add(1, Ordering::Relaxed);
            let mut dead = flush_wbuf(conn);
            // This reply may have un-parked enough to go back under
            // the cap with requests still waiting in the read buffer.
            if !dead && !conn.rbuf.is_empty() && conn.accepts_requests() {
                dead = read_and_dispatch(worker_idx, reply.conn, conn, &shared, &dims, &job_txs);
            }
            let done = conn.closing
                && conn.inflight == 0
                && conn.done.is_empty()
                && conn.wbuf.is_empty();
            if dead || done {
                let _ = epoll.delete(conn.stream.as_raw_fd());
                conns.remove(&reply.conn);
            } else {
                let token = reply.conn;
                update_interest(&epoll, token, conns.get_mut(&token).unwrap());
            }
        }
        events = fired;
    }
}

/// Accept every queued connection and register it for reads.
fn accept_all(
    listener: &TcpListener,
    epoll: &Epoll,
    shared: &Shared,
    conns_counter: &'static stwa_observe::Counter,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    use std::os::unix::io::AsRawFd;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if epoll.add(stream.as_raw_fd(), token, EPOLLIN).is_ok() {
                    shared.conns.fetch_add(1, Ordering::Relaxed);
                    stwa_observe::counter!("serve.conns").incr();
                    conns_counter.incr();
                    conns.insert(token, Conn::new(stream));
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Read what is available a chunk at a time, parse pipelined requests,
/// answer inline or dispatch to the replica pool — until the socket
/// runs dry, the peer closes, or the connection owes more than
/// [`WBUF_CAP`]. Returns true when the connection is dead.
fn read_and_dispatch(
    worker_idx: usize,
    token: u64,
    conn: &mut Conn,
    shared: &Shared,
    dims: &Dims,
    job_txs: &[Sender<Job>],
) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    // A short read emptied the socket: polling is level-triggered, so
    // whatever arrives later raises a new event and the read that
    // would only report `WouldBlock` is skipped.
    let mut socket_dry = false;
    loop {
        // Buffered requests first: some may have been left unparsed
        // when the connection last went over the cap.
        let held_back = dispatch_buffered(worker_idx, token, conn, shared, dims, job_txs);
        if flush_wbuf(conn) {
            return true;
        }
        if !conn.accepts_requests() {
            break;
        }
        if held_back {
            // The flush made room again: no event will announce the
            // requests still buffered, so go on parsing them now.
            continue;
        }
        if socket_dry {
            break;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // Orderly close; serve what was already parsed.
                conn.closing = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                socket_dry = n < chunk.len();
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    conn.closing && conn.inflight == 0 && conn.done.is_empty() && conn.wbuf.is_empty()
}

/// Parse and route the complete requests `conn.rbuf` holds, stopping
/// at a partial one, a close, or the write-side cap. Returns true when
/// it was the cap that stopped it, so complete requests may remain.
fn dispatch_buffered(
    worker_idx: usize,
    token: u64,
    conn: &mut Conn,
    shared: &Shared,
    dims: &Dims,
    job_txs: &[Sender<Job>],
) -> bool {
    // Requests borrow from the read buffer while `route` needs the
    // connection: lend the buffer out for the pass.
    let rbuf = std::mem::take(&mut conn.rbuf);
    let mut consumed = 0;
    while conn.accepts_requests() {
        match http::parse_request(&rbuf[consumed..]) {
            Parse::Partial => break,
            Parse::Bad(status, reason) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let seq = conn.next_seq;
                conn.next_seq += 1;
                respond(conn, shared, seq, status, reason, &proto::error_body(reason), false);
                conn.closing = true;
            }
            Parse::Complete(req, n) => {
                consumed += n;
                shared.requests.fetch_add(1, Ordering::Relaxed);
                stwa_observe::counter!("serve.requests").incr();
                let seq = conn.next_seq;
                conn.next_seq += 1;
                if !req.keep_alive {
                    conn.closing = true;
                }
                match route(worker_idx, token, seq, &req, conn, shared, dims, job_txs) {
                    Routed::Answered => {}
                    Routed::Dispatched => {
                        conn.inflight += 1;
                        shared.model_jobs.fetch_add(1, Ordering::Relaxed);
                        stwa_observe::counter!("serve.model_jobs").incr();
                    }
                }
            }
        }
    }
    conn.rbuf = rbuf;
    conn.rbuf.drain(..consumed);
    conn.backlogged()
}

enum Routed {
    /// Answered inline through [`respond`].
    Answered,
    Dispatched,
}

#[allow(clippy::too_many_arguments)]
fn route(
    worker_idx: usize,
    token: u64,
    seq: u64,
    req: &Request,
    conn: &mut Conn,
    shared: &Shared,
    dims: &Dims,
    job_txs: &[Sender<Job>],
) -> Routed {
    let inline = |conn: &mut Conn, status: u16, reason: &str, body: &[u8]| {
        respond(conn, shared, seq, status, reason, body, req.keep_alive);
        Routed::Answered
    };
    let route = Route {
        worker: worker_idx,
        conn: token,
        seq,
        keep_alive: req.keep_alive,
    };

    match (req.method, req.path) {
        ("GET", "/healthz") => inline(conn, 200, "OK", b"{\"ok\": true}"),
        ("GET", "/stats") => {
            let (hits, misses) = shared.cache.stats();
            let evals: Vec<Json> = shared
                .replica_evals
                .iter()
                .map(|e| Json::Num(e.load(Ordering::Relaxed) as f64))
                .collect();
            let depths: Vec<Json> = shared
                .replica_depth
                .iter()
                .map(|d| Json::Num(d.load(Ordering::Relaxed) as f64))
                .collect();
            let doc = Json::Obj(vec![
                ("version".into(), Json::Num(shared.version.load(Ordering::Acquire) as f64)),
                ("requests".into(), Json::Num(shared.requests.load(Ordering::Relaxed) as f64)),
                ("responses".into(), Json::Num(shared.responses.load(Ordering::Relaxed) as f64)),
                ("conns".into(), Json::Num(shared.conns.load(Ordering::Relaxed) as f64)),
                ("inline_hits".into(), Json::Num(shared.inline_hits.load(Ordering::Relaxed) as f64)),
                ("model_jobs".into(), Json::Num(shared.model_jobs.load(Ordering::Relaxed) as f64)),
                ("cache_hits".into(), Json::Num(hits as f64)),
                ("cache_misses".into(), Json::Num(misses as f64)),
                ("cache_entries".into(), Json::Num(shared.cache.len() as f64)),
                ("replicas".into(), Json::Num(shared.replica_depth.len() as f64)),
                ("replica_evals".into(), Json::Arr(evals)),
                ("replica_depth".into(), Json::Arr(depths)),
                ("swaps".into(), Json::Num(shared.swaps.load(Ordering::Relaxed) as f64)),
                ("swap_errors".into(), Json::Num(shared.swap_errors.load(Ordering::Relaxed) as f64)),
                ("swap_ms".into(), Json::Num(shared.swap_us.load(Ordering::Relaxed) as f64 / 1000.0)),
                ("client_aborts".into(), Json::Num(shared.client_aborts.load(Ordering::Relaxed) as f64)),
            ]);
            inline(conn, 200, "OK", doc.to_string().as_bytes())
        }
        ("GET", "/forecast") => {
            let sensor = req.query("sensor").and_then(|v| v.parse::<u32>().ok());
            let horizon = req
                .query("horizon")
                .map_or(Some(dims.horizon as u32), |v| v.parse::<u32>().ok());
            let (Some(sensor), Some(horizon)) = (sensor, horizon) else {
                return inline(conn, 400, "Bad Request", &proto::error_body("sensor/horizon must be integers"));
            };
            if sensor as usize >= dims.sensors {
                return inline(
                    conn,
                    400,
                    "Bad Request",
                    &proto::error_body(&format!("sensor {sensor} out of range (N={})", dims.sensors)),
                );
            }
            if horizon == 0 || horizon as usize > dims.horizon {
                return inline(
                    conn,
                    400,
                    "Bad Request",
                    &proto::error_body(&format!("horizon {horizon} out of range (U={})", dims.horizon)),
                );
            }
            // Cache lookup under a snapshot of (version, window). Both
            // can move before a replica would evaluate, which is
            // exactly why misses carry the authoritative values back.
            // Skip the cache while an observe from this connection is
            // in flight so the replica orders forecast-after-observe
            // (read-your-writes per connection).
            if conn.inflight_observes == 0 {
                let key = CacheKey {
                    version: shared.version.load(Ordering::Acquire),
                    sensor,
                    horizon,
                    window_fp: shared.window_fp.load(Ordering::Acquire),
                };
                // The entry is the encoded answer: a hit only frames it.
                if let Some(body) = shared.cache.get_body(&key) {
                    shared.inline_hits.fetch_add(1, Ordering::Relaxed);
                    stwa_observe::counter!("serve.cache_hits").incr();
                    return inline(conn, 200, "OK", &body);
                }
            }
            if dispatch_forecast(job_txs, shared, route, sensor, horizon) {
                Routed::Dispatched
            } else {
                inline(conn, 503, "Service Unavailable", &proto::error_body("replica pool is gone"))
            }
        }
        ("POST", "/observe") => {
            // A frame is validated here, before it is broadcast: a bad
            // length or a value that is not a finite f32 never reaches
            // a replica's window.
            match proto::parse_observe(req.body, dims.sensors * dims.features) {
                Err(e) => inline(conn, 400, "Bad Request", &proto::error_body(&e)),
                Ok(frame) => {
                    if broadcast(job_txs, shared, route, JobKind::Observe { frame }) {
                        conn.inflight_observes += 1;
                        Routed::Dispatched
                    } else {
                        inline(conn, 503, "Service Unavailable", &proto::error_body("replica pool is gone"))
                    }
                }
            }
        }
        ("POST", "/admin/swap") => {
            // Nothing to swap to resolves to 0, which no replica
            // flips to.
            let target = shared.latest_version().unwrap_or(0);
            if broadcast(job_txs, shared, route, JobKind::Swap { target }) {
                Routed::Dispatched
            } else {
                inline(conn, 503, "Service Unavailable", &proto::error_body("replica pool is gone"))
            }
        }
        _ => inline(conn, 404, "Not Found", &proto::error_body("unknown endpoint")),
    }
}

/// Answer request `seq` from the worker itself. When it is next in
/// order — always, unless an earlier request of this connection is
/// still at a replica — the response is framed straight onto the write
/// buffer; otherwise it is framed aside and parked until its turn, so
/// an inline answer never overtakes a dispatched one.
fn respond(
    conn: &mut Conn,
    shared: &Shared,
    seq: u64,
    status: u16,
    reason: &str,
    body: &[u8],
    keep_alive: bool,
) {
    if seq == conn.next_flush {
        // Inline answers are framed at parse time, so `seq` is the
        // newest sequence number: nothing later can be parked.
        http::write_response(&mut conn.wbuf, status, reason, "application/json", body, keep_alive);
        conn.next_flush += 1;
    } else {
        let mut out = Vec::new();
        http::write_response(&mut out, status, reason, "application/json", body, keep_alive);
        conn.parked += out.len();
        conn.done.insert(seq, (out, !keep_alive));
    }
    shared.responses.fetch_add(1, Ordering::Relaxed);
}

/// File a replica's framed response under its sequence number and move
/// every now-unblocked response into the write buffer.
fn complete(conn: &mut Conn, seq: u64, bytes: Vec<u8>, close_after: bool) {
    conn.parked += bytes.len();
    conn.done.insert(seq, (bytes, close_after));
    while let Some((bytes, close)) = conn.done.remove(&conn.next_flush) {
        conn.parked -= bytes.len();
        conn.wbuf.extend_from_slice(&bytes);
        conn.next_flush += 1;
        if close {
            conn.closing = true;
        }
    }
}

/// Push the write buffer to the socket. Returns true when the
/// connection is dead (write error).
fn flush_wbuf(conn: &mut Conn) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return true,
            Ok(n) => conn.wpos += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // A buffer that never quite empties must not keep its
                // sent prefix forever: compact once the prefix is the
                // larger half, so each byte moves at most once.
                if conn.wpos >= conn.wbuf.len() - conn.wpos {
                    conn.wbuf.drain(..conn.wpos);
                    conn.wpos = 0;
                }
                return false;
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    false
}

/// Want writability while bytes are unsent; want readability unless
/// the connection is over [`WBUF_CAP`] (it is backlogged only with
/// bytes unsent or a request at a replica, so it never waits on
/// nothing: a drain or a reply re-arms reading).
fn update_interest(epoll: &Epoll, token: u64, conn: &mut Conn) {
    let mut want = 0;
    if !conn.backlogged() {
        want |= EPOLLIN;
    }
    if !conn.wbuf.is_empty() {
        want |= EPOLLOUT;
    }
    if want != conn.interest {
        use std::os::unix::io::AsRawFd;
        if epoll.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
            conn.interest = want;
        }
    }
}

// ---------------------------------------------------------------------------
// Model replica
// ---------------------------------------------------------------------------

struct ModelState {
    model: StwaModel,
    session: InferSession,
    /// Registry version currently loaded (0 = builder weights). This
    /// *is* the public version stamp — identical across replicas by
    /// construction, unlike per-thread store counters.
    registry_version: u32,
    precision: Precision,
    dims: Dims,
    /// Rolling input window `[N, H, F]` shared by every sensor query.
    window: Vec<f32>,
    window_fp: u64,
    /// The last full forward `[1, N, U, F]` and the fingerprint of the
    /// window it ran on (version is implicit: cleared on swap). Every
    /// forecast on that window after the first slices it.
    memo: Option<(u64, Tensor)>,
    replica_idx: usize,
    /// Per-replica eval counter (leaked name, one per replica).
    evals_counter: &'static stwa_observe::Counter,
    depth_gauge: &'static stwa_observe::Gauge,
}

fn public_version(state: &ModelState) -> u64 {
    state.registry_version as u64
}

#[allow(clippy::too_many_arguments)]
fn replica_main<F>(
    replica_idx: usize,
    n_replicas: usize,
    config: ServeConfig,
    build: Arc<F>,
    shared: Arc<Shared>,
    job_rx: Receiver<Job>,
    peer_txs: Vec<Sender<Job>>,
    reply_txs: Vec<(Sender<Reply>, Waker)>,
    ready_tx: Sender<ReplicaReady>,
    pinned_version: u32,
) where
    F: Fn() -> stwa_tensor::Result<StwaModel> + Send + Sync + 'static,
{
    // With several replicas the thread is the unit of parallelism:
    // keep tensor kernels inline instead of contending for the global
    // pool (kernel chunking depends only on shapes, so inline execution
    // is bitwise identical to pooled — same contract ShardEngine uses).
    let _seq = (n_replicas > 1).then(stwa_pool::sequential_scope);
    let mut state = match init_replica(replica_idx, &config, &*build, &shared, pinned_version) {
        Ok(s) => s,
        Err(e) => {
            let _ = ready_tx.send((replica_idx, Err(e)));
            return;
        }
    };
    let _ = ready_tx.send((
        replica_idx,
        Ok((state.dims, public_version(&state), state.window_fp)),
    ));
    drop(ready_tx);

    let mut last_poll = Instant::now();
    loop {
        match job_rx.recv_timeout(config.registry_poll) {
            Ok(job) => {
                process_job(&mut state, &job, &shared, &reply_txs);
                let was = shared.replica_depth[replica_idx].fetch_sub(1, Ordering::Relaxed);
                state.depth_gauge.set((was - 1) as f64);
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            // Every sender is gone (workers drained at shutdown; for
            // peers, replica 0 exited too); nothing can be in flight.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }

        // Only replica 0 polls the registry. It resolves the target
        // version once and broadcasts a pinned swap to its peers, so
        // every replica loads the same version exactly once.
        if replica_idx == 0 && last_poll.elapsed() >= config.registry_poll {
            last_poll = Instant::now();
            let newer = shared.latest_version().filter(|&v| v > state.registry_version);
            if let Some(latest) = newer {
                {
                    let _order = shared.broadcast.lock().unwrap();
                    for (peer, tx) in peer_txs.iter().enumerate() {
                        shared.replica_depth[peer + 1].fetch_add(1, Ordering::Relaxed);
                        let job = Job {
                            route: None,
                            kind: JobKind::Swap { target: latest },
                        };
                        if tx.send(job).is_err() {
                            shared.replica_depth[peer + 1].fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
                try_swap(&mut state, &shared, latest);
            }
        }
    }
}

fn init_replica<F>(
    replica_idx: usize,
    config: &ServeConfig,
    build: &F,
    shared: &Shared,
    pinned_version: u32,
) -> Result<ModelState, String>
where
    F: Fn() -> stwa_tensor::Result<StwaModel>,
{
    let model = build().map_err(|e| format!("build model: {e}"))?;
    let frozen = match &shared.registry {
        Some((reg, name)) if pinned_version > 0 => FrozenStwa::freeze_from_registry_at(
            &model,
            reg,
            name,
            Some(pinned_version),
            config.precision,
        )
        .map_err(|e| format!("freeze from registry: {e}"))?,
        _ => FrozenStwa::freeze_at(&model, config.precision).map_err(|e| format!("freeze: {e}"))?,
    };
    let dims = Dims {
        sensors: frozen.num_sensors(),
        history: frozen.input_len(),
        horizon: frozen.horizon(),
        features: frozen.features(),
    };
    let window = vec![0.0f32; dims.sensors * dims.history * dims.features];
    let window_fp = fingerprint_f32(&window);
    let evals_counter =
        stwa_observe::counter(Box::leak(format!("serve.replica{replica_idx}.evals").into_boxed_str()));
    let depth_gauge = stwa_observe::gauge(Box::leak(
        format!("serve.replica{replica_idx}.queue_depth").into_boxed_str(),
    ));
    Ok(ModelState {
        model,
        session: InferSession::from_frozen(frozen),
        registry_version: pinned_version,
        precision: config.precision,
        dims,
        window,
        window_fp,
        memo: None,
        replica_idx,
        evals_counter,
        depth_gauge,
    })
}

/// Apply one job to the replica and answer it. Jobs run to completion
/// in channel order, so a forecast answers for exactly the window and
/// version its replica held when the job's turn came.
fn process_job(
    state: &mut ModelState,
    job: &Job,
    shared: &Shared,
    reply_txs: &[(Sender<Reply>, Waker)],
) {
    match &job.kind {
        JobKind::Forecast { sensor, horizon } => {
            let Some(route) = job.route else { return };
            let packaged = match forecast(state, shared, *sensor, *horizon) {
                Ok(body) => ok_response(body, route.keep_alive),
                Err(e) => error_response(500, &format!("eval: {e}"), route.keep_alive),
            };
            send_reply(reply_txs, route, packaged, false);
        }
        JobKind::Observe { frame } => {
            let superseded = state.window_fp;
            apply_observe(state, frame);
            if state.replica_idx == 0 {
                shared.window_fp.store(state.window_fp, Ordering::Release);
            }
            // This replica will never prime the old window again, so
            // once the last replica is here its entries are gone and a
            // live (version, window) keeps at most N·U resident — not
            // every window of the last TTL. After the store, so workers
            // are already probing the new fingerprint instead of
            // missing on purged entries; a peer still on the old window
            // may re-insert, and purges again when it gets here.
            if state.window_fp != superseded {
                let purged = shared.cache.purge_window(superseded);
                stwa_observe::counter!("serve.cache_purged").add(purged as u64);
            }
            if let Some(route) = job.route {
                let body = proto::observe_ack(public_version(state), state.window_fp);
                send_reply(reply_txs, route, ok_response(body, route.keep_alive), true);
            }
        }
        JobKind::Swap { target } => {
            let before = state.registry_version;
            try_swap(state, shared, *target);
            let swapped = state.registry_version != before;
            if let Some(route) = job.route {
                if swapped {
                    // The responder answers only after the whole
                    // pool has flipped — no mixed-version serving
                    // once the admin call returns.
                    wait_for_pool_flip(shared, public_version(state));
                }
                let doc = Json::Obj(vec![
                    ("swapped".into(), Json::Bool(swapped)),
                    ("version".into(), Json::Num(public_version(state) as f64)),
                    (
                        "registry_version".into(),
                        Json::Num(state.registry_version as f64),
                    ),
                ]);
                send_reply(
                    reply_txs,
                    route,
                    ok_response(doc.to_string().into_bytes(), route.keep_alive),
                    false,
                );
            }
        }
    }
}

/// Body of one forecast on the replica's current window. The first
/// forecast on a window runs the full forward on the spot (`"miss"`)
/// and memoises it; every later one slices the memo (`"memo"`). Either
/// way the shared cache is primed so repeats hit inline at the workers.
fn forecast(
    state: &mut ModelState,
    shared: &Shared,
    sensor: u32,
    horizon: u32,
) -> stwa_tensor::Result<Vec<u8>> {
    let fp = state.window_fp;
    let mut source = "memo";
    if state.memo.as_ref().is_none_or(|(memo_fp, _)| *memo_fp != fp) {
        let d = state.dims;
        let x = Tensor::from_vec(state.window.clone(), &[1, d.sensors, d.history, d.features])?;
        let full = state.session.run(&x)?;
        state.evals_counter.incr();
        stwa_observe::counter!("serve.replica.evals").incr();
        shared.replica_evals[state.replica_idx].fetch_add(1, Ordering::Relaxed);
        state.memo = Some((fp, full));
        source = "miss";
    }
    let full = state.memo.as_ref().expect("memo just set").1.data();
    // Sensor `s`, steps `0..horizon` of `[1, N, U, F]` is the contiguous
    // row-major slice `[s*U*F, s*U*F + h*F)`.
    let (u, f) = (state.dims.horizon, state.dims.features);
    let start = sensor as usize * u * f;
    let sliced = Arc::new(full[start..start + horizon as usize * f].to_vec());
    let version = public_version(state);
    shared.cache.put(
        CacheKey {
            version,
            sensor,
            horizon,
            window_fp: fp,
        },
        Arc::clone(&sliced),
    );
    Ok(proto::forecast_body(sensor, horizon, version, fp, source, &sliced))
}

/// Shift the rolling window one step left and append the new frame at
/// `t = H-1` for every sensor.
fn apply_observe(state: &mut ModelState, frame: &[f32]) {
    let (n, h, f) = (state.dims.sensors, state.dims.history, state.dims.features);
    for s in 0..n {
        let row = &mut state.window[s * h * f..(s + 1) * h * f];
        row.copy_within(f.., 0);
        row[(h - 1) * f..].copy_from_slice(&frame[s * f..(s + 1) * f]);
    }
    state.window_fp = fingerprint_f32(&state.window);
}

/// Swap this replica's serving snapshot to registry version `target`
/// (a no-op unless it is newer than the one loaded). The flip happens
/// between jobs and reports to the pool-wide barrier, which publishes
/// the shared version and purges the old one's cache entries only
/// once every replica has left it, so the cache never loses both
/// versions mid-swap.
fn try_swap(state: &mut ModelState, shared: &Shared, target: u32) {
    let Some((registry, name)) = &shared.registry else {
        return;
    };
    if target <= state.registry_version {
        return;
    }
    let rebuilt = FrozenStwa::freeze_from_registry_at(
        &state.model,
        registry,
        name,
        Some(target),
        state.precision,
    );
    match rebuilt {
        Ok(frozen) => {
            state.session = InferSession::from_frozen(frozen);
            state.registry_version = target;
            state.memo = None;
            report_flip(state, shared);
        }
        Err(_) => {
            // Registry load failed (partial publish, IO error): keep
            // serving the old version. Restore its exact weights by
            // re-loading it from the registry (the failed load may have
            // touched the store); builder weights (version 0) were
            // never overwritten by a *fully validated* load, so a plain
            // re-freeze suffices.
            shared.swap_errors.fetch_add(1, Ordering::Relaxed);
            stwa_observe::counter!("serve.swap_errors").incr();
            let restored = if state.registry_version > 0 {
                FrozenStwa::freeze_from_registry_at(
                    &state.model,
                    registry,
                    name,
                    Some(state.registry_version),
                    state.precision,
                )
            } else {
                FrozenStwa::freeze_at(&state.model, state.precision)
            };
            if let Ok(frozen) = restored {
                state.session = InferSession::from_frozen(frozen);
                state.memo = None;
            }
        }
    }
}

/// Pool-wide swap barrier. Each replica reports here after flipping;
/// the one whose flip raises the pool's lowest served version
/// publishes it, purges the retired versions' cache entries, and
/// records the swap duration.
fn report_flip(state: &ModelState, shared: &Shared) {
    let mut st = shared.swap_state.lock().unwrap();
    st.serving[state.replica_idx] = public_version(state);
    let started = *st.started.get_or_insert_with(Instant::now);
    let floor = *st.serving.iter().min().expect("at least one replica");
    let published = shared.version.load(Ordering::Acquire);
    if floor > published {
        shared.version.store(floor, Ordering::Release);
        for retired in published..floor {
            shared.cache.purge_version(retired);
        }
        shared.swaps.fetch_add(1, Ordering::Relaxed);
        stwa_observe::counter!("serve.swaps").incr();
        let us = started.elapsed().as_micros() as u64;
        shared.swap_us.store(us, Ordering::Relaxed);
        stwa_observe::gauge!("serve.swap_ms").set(us as f64 / 1000.0);
        st.started = None;
    }
}

/// Block until the whole pool serves at least `target` (the admin-swap
/// responder uses this so "swapped: true" means the whole pool moved).
/// Bounded: a replica whose load failed reports `swap_errors` instead
/// of flipping, and the wait gives up rather than deadlocking.
fn wait_for_pool_flip(shared: &Shared, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.version.load(Ordering::Acquire) < target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn ok_response(body: Vec<u8>, keep_alive: bool) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    http::write_response(&mut out, 200, "OK", "application/json", &body, keep_alive);
    (out, !keep_alive)
}

fn error_response(status: u16, message: &str, keep_alive: bool) -> (Vec<u8>, bool) {
    let reason = match status {
        400 => "Bad Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut out = Vec::new();
    http::write_response(
        &mut out,
        status,
        reason,
        "application/json",
        &proto::error_body(message),
        keep_alive,
    );
    (out, !keep_alive)
}

fn send_reply(
    reply_txs: &[(Sender<Reply>, Waker)],
    route: Route,
    packaged: (Vec<u8>, bool),
    observe: bool,
) {
    let (bytes, close_after) = packaged;
    if let Some((tx, waker)) = reply_txs.get(route.worker) {
        if tx
            .send(Reply {
                conn: route.conn,
                seq: route.seq,
                bytes,
                close_after,
                observe,
            })
            .is_ok()
        {
            waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";
    const DIMS: Dims = Dims { sensors: 1, history: 1, horizon: 1, features: 1 };

    fn healthz_response() -> Vec<u8> {
        let mut out = Vec::new();
        http::write_response(&mut out, 200, "OK", "application/json", b"{\"ok\": true}", true);
        out
    }

    /// A non-blocking peer socket and the worker-side `Conn` it talks
    /// to, for driving the worker's connection functions by hand.
    fn connected() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        peer.set_nonblocking(true).unwrap();
        (peer, Conn::new(stream))
    }

    /// Drives the worker's read path by hand against a peer that
    /// pipelines requests and reads nothing: once the kernel's socket
    /// buffers are full the connection's own buffers are all that can
    /// grow, and they stop at the cap. When the peer finally reads,
    /// every answer it is owed arrives.
    #[test]
    fn a_peer_that_does_not_read_stalls_at_the_write_buffer_cap() {
        let response = healthz_response();
        let (mut peer, mut conn) = connected();
        let shared = Shared::new(&ServeConfig::default(), None, 0, 1);
        let pump = |conn: &mut Conn| {
            assert!(!read_and_dispatch(0, TOKEN_CONN0, conn, &shared, &DIMS, &[]));
            let owed = conn.wbuf.len() - conn.wpos;
            assert!(owed <= WBUF_CAP + response.len(), "{owed} bytes buffered for a peer that reads nothing");
            // One read chunk, plus the request that straddled the last.
            assert!(conn.rbuf.len() <= 16 * 1024 + HEALTHZ.len(), "{} request bytes buffered", conn.rbuf.len());
        };

        let burst = HEALTHZ.repeat(1024);
        let mut sent = 0usize;
        loop {
            // Keep the byte stream request-aligned across short writes.
            match peer.write(&burst[sent % HEALTHZ.len()..]) {
                Ok(n) => sent += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    pump(&mut conn);
                    if conn.backlogged() {
                        // The worker has stopped reading and the
                        // kernel will take no more: stalled for good.
                        break;
                    }
                }
                Err(e) => panic!("peer write: {e}"),
            }
            assert!(sent < 1 << 30, "the peer was never made to wait");
            pump(&mut conn);
        }
        let parsed_while_stalled = shared.requests.load(Ordering::Relaxed);
        pump(&mut conn);
        assert_eq!(shared.requests.load(Ordering::Relaxed), parsed_while_stalled, "a backlogged connection parses nothing");

        // The peer starts reading; finish the request a short write cut.
        let tail = (HEALTHZ.len() - sent % HEALTHZ.len()) % HEALTHZ.len();
        let mut tail = &HEALTHZ[HEALTHZ.len() - tail..];
        let owed = (sent + tail.len()) / HEALTHZ.len() * response.len();
        let mut got = 0usize;
        let mut chunk = vec![0u8; 64 * 1024];
        while got < owed {
            match peer.read(&mut chunk) {
                Ok(0) => panic!("closed after {got} of {owed} bytes"),
                Ok(n) => {
                    for (i, b) in chunk[..n].iter().enumerate() {
                        assert_eq!(*b, response[(got + i) % response.len()], "byte {}", got + i);
                    }
                    got += n;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("peer read: {e}"),
            }
            if !tail.is_empty() {
                if let Ok(n) = peer.write(tail) {
                    tail = &tail[n..];
                }
            }
            assert!(!flush_wbuf(&mut conn));
            pump(&mut conn);
        }
        assert!(conn.wbuf.is_empty() && conn.rbuf.is_empty() && !conn.backlogged());
        assert_eq!(shared.requests.load(Ordering::Relaxed) as usize * response.len(), owed);
    }

    /// Inline answers parked behind a request that is still at a
    /// replica count against the cap too — a slow round trip must not
    /// let a pipelining peer park without bound — and the reply that
    /// un-parks them restarts parsing where it stopped.
    #[test]
    fn answers_parked_behind_a_replica_round_trip_count_against_the_cap() {
        let response = healthz_response();
        let (mut peer, mut conn) = connected();
        let shared = Shared::new(&ServeConfig::default(), None, 0, 1);
        // Request 0 is at a replica (as `dispatch_buffered` leaves it).
        conn.next_seq = 1;
        conn.inflight = 1;

        // Twice the cap's worth of inline answers, well within what the
        // kernel takes in one go.
        let requests = 2 * WBUF_CAP / response.len();
        peer.set_nonblocking(false).unwrap();
        peer.write_all(&HEALTHZ.repeat(requests)).unwrap();
        peer.set_nonblocking(true).unwrap();
        let mut parsed = 0;
        loop {
            assert!(!read_and_dispatch(0, TOKEN_CONN0, &mut conn, &shared, &DIMS, &[]));
            let now = shared.requests.load(Ordering::Relaxed);
            if now == parsed {
                break;
            }
            parsed = now;
        }
        assert!(conn.backlogged() && conn.wbuf.is_empty(), "nothing may leave before request 0");
        assert!(conn.parked <= WBUF_CAP + response.len(), "{} bytes parked", conn.parked);
        assert!((parsed as usize) < requests);

        // The replica's reply lands: what the worker's reply loop does.
        conn.inflight -= 1;
        complete(&mut conn, 0, b"<reply 0>".to_vec(), false);
        assert_eq!(conn.parked, 0);
        let mut got = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let owed = b"<reply 0>".len() + requests * response.len();
        while got.len() < owed {
            assert!(!flush_wbuf(&mut conn));
            // Buffered requests resume at once; the socket's, when
            // level-triggered `EPOLLIN` is armed again.
            if conn.accepts_requests() {
                assert!(!read_and_dispatch(0, TOKEN_CONN0, &mut conn, &shared, &DIMS, &[]));
            }
            match peer.read(&mut chunk) {
                Ok(0) => panic!("closed after {} of {owed} bytes", got.len()),
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("peer read: {e}"),
            }
        }
        assert!(got.starts_with(b"<reply 0>"), "the dispatched request answers first");
        assert!(got[b"<reply 0>".len()..].chunks(response.len()).all(|r| r == response));
        assert_eq!(shared.requests.load(Ordering::Relaxed) as usize, requests);
    }

    /// A pass that stops at the cap and then flushes its way back
    /// under it must go on parsing: the requests left in the read
    /// buffer are announced by no socket event.
    #[test]
    fn a_flush_that_makes_room_resumes_the_buffered_requests() {
        let response = healthz_response();
        let (_peer, mut conn) = connected();
        let shared = Shared::new(&ServeConfig::default(), None, 0, 1);
        let requests = 2 * WBUF_CAP / response.len();
        conn.rbuf = HEALTHZ.repeat(requests);
        assert!(!read_and_dispatch(0, TOKEN_CONN0, &mut conn, &shared, &DIMS, &[]));
        let parsed = shared.requests.load(Ordering::Relaxed) as usize;
        // Either every request was answered, or the kernel refused
        // more and the connection is waiting for its peer to read.
        assert!(parsed == requests || conn.backlogged(), "{parsed} of {requests} parsed, then idle");
    }

    #[test]
    fn affinity_is_sensor_mod_n_when_unloaded() {
        let depths = [0usize, 0, 0, 0];
        for sensor in 0..32u32 {
            assert_eq!(pick_replica(sensor, &depths), sensor as usize % 4);
        }
    }

    #[test]
    fn single_replica_always_wins() {
        assert_eq!(pick_replica(7, &[usize::MAX - 1]), 0);
    }

    #[test]
    fn spills_to_least_loaded_when_affinity_backed_up() {
        let mut depths = [0usize; 4];
        depths[1] = SPILL_DEPTH + 8; // sensor 5's affinity replica
        assert_eq!(pick_replica(5, &depths), 0, "spill to the least-loaded");
    }

    #[test]
    fn hysteresis_keeps_affinity_under_mild_imbalance() {
        // Affinity is over the spill threshold but the rest of the pool
        // is nearly as deep: stay put rather than flap.
        let mut depths = [SPILL_DEPTH; 4];
        depths[1] = SPILL_DEPTH + SPILL_DEPTH / 2 - 1;
        assert_eq!(pick_replica(5, &depths), 1);
        // Once the gap reaches the hysteresis margin, move.
        depths[1] = SPILL_DEPTH + SPILL_DEPTH / 2;
        depths[2] = SPILL_DEPTH - 1;
        assert_eq!(pick_replica(5, &depths), 2);
    }
}
