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
//! registry version, and each owns a private `InferSession` and a
//! one-slot memo of the current window's forward.
//! The forward is city-wide — sensor attention couples all N sensors —
//! so a replica holds exactly one rolling window and every forecast is
//! a slice of the same evaluation: the first forecast on a window runs
//! it on the spot, later ones slice the memo, and there is never a
//! second row to batch. IO workers still own the sockets, parse HTTP,
//! and serve cache hits inline — a cache entry holds the encoded
//! answer (the replica wrote it when it primed the cache), so a hit is
//! parse → probe → frame onto the write buffer; misses are routed by
//! window: every miss goes to replica `w % n`, where `w` counts the
//! observes broadcast so far, so all misses on one window meet one
//! replica's memo and run one forward, and successive windows rotate
//! across the pool.
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
//!   an observation on the same connection skips the cache and is
//!   dispatched after that observe's broadcast, so it routes to the new
//!   window's replica and lands on its channel *behind* that replica's
//!   copy of the observe (channel FIFO), so it is evaluated against the
//!   new window.
//! - **Version stamps are registry versions.** Responses name the
//!   registry version they were computed under (0 = the builder's
//!   weights, which can never be swapped). Unlike per-thread store
//!   counters, registry versions are identical across replicas by
//!   construction, so a (version, window_fp) stamp is
//!   bitwise-verifiable against direct eval no matter which replica
//!   answered.
//! - **Coordinated swaps, zero drops.** A swap broadcasts like an
//!   observe, pinned to one target version resolved once by whoever
//!   triggers it — IO worker 0's registry poll or the worker routing
//!   `POST /admin/swap`, through the same `broadcast()`; each replica
//!   flips between jobs (an evaluation is synchronous, so nothing is
//!   ever in flight on the old snapshot). The shared version is
//!   published and old-version cache entries are purged only after the
//!   *last* replica flips (`SwapBarrier`); until then hits serve the
//!   old version and misses truthfully stamp whichever version their
//!   replica is on. The copies of one swap share a `SwapTicket`, and
//!   an admin swap's reply leaves when the last copy is dropped: every
//!   replica has had its turn by then, so nothing waits on a timer.
//!   Shutdown stops accepting, drains every in-flight job, flushes
//!   every write buffer, and only then lets threads exit.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stwa_core::StwaModel;
use stwa_infer::{FrozenStwa, InferSession};
use stwa_observe::Json;
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
    /// How often IO worker 0 checks the registry for a newer published
    /// version and broadcasts a swap to it. Ignored without a registry.
    pub registry_poll: Duration,
    /// How often IO worker 0 sweeps expired cache entries. Expiry is
    /// checked on every read; the sweep only reclaims memory.
    pub sweep_interval: Duration,
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
            registry_poll: Duration::from_millis(200),
            sweep_interval: Duration::from_secs(5),
            registry: None,
        }
    }
}

/// Lock shards of the forecast cache.
const CACHE_SHARDS: usize = 16;

/// Model dimensions published once by the replica pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dims {
    pub sensors: usize,
    pub history: usize,
    pub horizon: usize,
    pub features: usize,
}

/// Coordinated-swap barrier: the pool's published version is the
/// floor, the lowest version any replica serves, so the flip that
/// raises the floor publishes it and retires every version below.
/// Monotone by construction — back-to-back swaps (v2 then v3 while a
/// peer is still on v1) cannot strand it — and a plain struct, so
/// tests drive it without threads.
struct SwapBarrier {
    /// Registry version each replica serves.
    serving: Vec<u64>,
    /// The floor as last published.
    published: u64,
    /// When the first replica moved ahead of `published`.
    started: Option<Instant>,
}

impl SwapBarrier {
    fn new(replicas: usize, pinned: u64) -> SwapBarrier {
        SwapBarrier {
            serving: vec![pinned; replicas],
            published: pinned,
            started: None,
        }
    }

    /// Record that `replica` now serves `version`. When that raises the
    /// floor, returns the retired versions, whose cache entries are to
    /// be purged, and how long the pool took since its first flip.
    fn flip(&mut self, replica: usize, version: u64) -> Option<(Range<u64>, Duration)> {
        self.serving[replica] = version;
        let started = *self.started.get_or_insert_with(Instant::now);
        let floor = *self.serving.iter().min().expect("at least one replica");
        if floor <= self.published {
            return None;
        }
        let retired = self.published..floor;
        self.published = floor;
        self.started = None;
        Some((retired, started.elapsed()))
    }
}

/// Counters and snapshot state shared by every thread. IO worker 0
/// polls the registry and sweeps the cache on its epoll timer; the
/// replicas only process jobs.
struct Shared {
    shutdown: AtomicBool,
    /// Registry handle + model name, when serving from a registry.
    registry: Option<(stwa_ckpt::Registry, String)>,
    /// Registry version of the pool-wide published snapshot (0 =
    /// builder weights; cache key part): the barrier's floor, mirrored
    /// for lock-free probes.
    version: AtomicU64,
    /// Fingerprint of the current input window (cache key part).
    window_fp: AtomicU64,
    /// Observes broadcast so far: the current window's index, which
    /// picks the replica every miss on that window goes to.
    windows: AtomicU64,
    cache: ForecastCache,
    requests: AtomicU64,
    responses: AtomicU64,
    inline_hits: AtomicU64,
    /// Forecasts dispatched to a replica (observes and swaps are
    /// broadcasts, not model jobs).
    model_jobs: AtomicU64,
    swaps: AtomicU64,
    swap_errors: AtomicU64,
    client_aborts: AtomicU64,
    conns: AtomicU64,
    /// Duration of the last coordinated swap, first flip to last flip.
    swap_us: AtomicU64,
    /// In-flight jobs per replica channel.
    replica_depth: Vec<AtomicUsize>,
    /// Full window evaluations per replica.
    replica_evals: Vec<AtomicU64>,
    /// Serializes observe/swap broadcasts so every replica channel
    /// receives them in the same order — the invariant that keeps
    /// replica windows (and their fingerprints) identical.
    broadcast: Mutex<()>,
    barrier: Mutex<SwapBarrier>,
    /// Each IO worker's reply channel and the waker of its loop.
    replies: Vec<(Sender<Reply>, Waker)>,
}

impl Shared {
    fn new(
        config: &ServeConfig,
        registry: Option<(stwa_ckpt::Registry, String)>,
        pinned_version: u32,
        n_replicas: usize,
        replies: Vec<(Sender<Reply>, Waker)>,
    ) -> Shared {
        Shared {
            shutdown: AtomicBool::new(false),
            registry,
            version: AtomicU64::new(pinned_version as u64),
            window_fp: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            cache: ForecastCache::new(CACHE_SHARDS, config.ttl),
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
            barrier: Mutex::new(SwapBarrier::new(n_replicas, pinned_version as u64)),
            replies,
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
    Swap(Arc<SwapTicket>),
}

/// One swap, shared by its copies on every replica channel. Whoever
/// triggers it — IO worker 0's poll or a `POST /admin/swap` — resolves
/// the target once, so every replica loads the same version exactly
/// once. The ticket drops with the last copy, processed or discarded
/// with a dead replica's channel; an admin swap is answered then.
struct SwapTicket {
    target: u32,
    /// The admin call's reply; `None` for the poll.
    route: Option<Route>,
    /// Set by any replica whose load of `target` flipped it.
    flipped: AtomicBool,
    shared: Arc<Shared>,
}

impl Drop for SwapTicket {
    /// Every replica has had its turn, so the published version is the
    /// swap's outcome: "swapped" means the whole pool reached `target`.
    fn drop(&mut self) {
        let Some(route) = self.route else { return };
        let published = self.shared.version.load(Ordering::Acquire);
        let swapped = self.flipped.load(Ordering::Relaxed) && published >= self.target as u64;
        let doc = Json::Obj(vec![
            ("swapped".into(), Json::Bool(swapped)),
            ("version".into(), Json::Num(published as f64)),
            ("registry_version".into(), Json::Num(published as f64)),
        ]);
        let body = doc.to_string().into_bytes();
        send_reply(&self.shared, route, ok_response(body, route.keep_alive), false);
    }
}

/// Where a reply must go. An observe carries a route only on replica
/// 0's copy — it is the sole responder; a swap's rides in its ticket.
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
    /// submission order once a miss goes to a replica other than the
    /// observe's responder, replica 0).
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

        let io_threads = config.io_threads.max(1);
        let mut reply_txs = Vec::with_capacity(io_threads);
        let mut worker_parts = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
            let (waker, wake_reader) = Waker::pair()?;
            reply_txs.push((reply_tx, waker.clone()));
            worker_parts.push((reply_rx, wake_reader, waker));
        }
        let shared = Arc::new(Shared::new(&config, registry, pinned_version, n_replicas, reply_txs));

        // Replica pool first: workers must not accept until dims and
        // the initial version are published. Only the workers and the
        // server send jobs, so once the server drops its senders after
        // joining the workers every replica's channel ends.
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
            let build = Arc::clone(&build);
            let shared = Arc::clone(&shared);
            let ready_tx = ready_tx.clone();
            replicas.push(
                std::thread::Builder::new()
                    .name(format!("stwa-serve-model{idx}"))
                    .spawn(move || replica_main(idx, n_replicas, build, shared, job_rx, ready_tx))?,
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
            let cfg = config.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("stwa-serve-io{idx}"))
                    .spawn(move || {
                        worker_main(idx, listener, shared, dims, job_txs, reply_rx, wake_reader, cfg)
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

/// Send a forecast miss to the current window's replica: every
/// forecast on a window is a slice of one city-wide forward, so all of
/// them meet one replica's memo. Returns false when the pool is gone
/// (shutdown).
fn dispatch_forecast(
    job_txs: &[Sender<Job>],
    shared: &Shared,
    route: Route,
    sensor: u32,
    horizon: u32,
) -> bool {
    let idx = (shared.windows.load(Ordering::Acquire) % job_txs.len() as u64) as usize;
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
/// gets `route` and answers; the rest apply silently. Returns false
/// when the responder channel is gone.
fn broadcast(job_txs: &[Sender<Job>], shared: &Shared, route: Option<Route>, kind: JobKind) -> bool {
    let _order = shared.broadcast.lock().unwrap();
    let mut routed_ok = false;
    for (idx, tx) in job_txs.iter().enumerate() {
        let job = Job {
            route: route.filter(|_| idx == 0),
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
    // Counted once every replica holds the observe, so a miss routed to
    // the new window's replica queues behind it.
    if matches!(kind, JobKind::Observe { .. }) {
        shared.windows.fetch_add(1, Ordering::Release);
    }
    routed_ok
}

/// Broadcast a swap to `target`. The ticket answers `route`, if any,
/// once every copy is gone — even copies no replica could take — so
/// the caller never answers a swap itself.
fn broadcast_swap(job_txs: &[Sender<Job>], shared: &Arc<Shared>, target: u32, route: Option<Route>) {
    let ticket = SwapTicket {
        target,
        route,
        flipped: AtomicBool::new(false),
        shared: Arc::clone(shared),
    };
    broadcast(job_txs, shared, None, JobKind::Swap(Arc::new(ticket)));
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
    config: ServeConfig,
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
    let mut last_poll = Instant::now();
    // Newest version the poll has broadcast a swap to. A published
    // version never changes, so one the pool failed to load is tried
    // once and the poll waits for a newer one; `/admin/swap` still
    // retries it.
    let mut polled = shared.version.load(Ordering::Acquire);

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
        if worker_idx == 0 && !shutting_down && last_sweep.elapsed() >= config.sweep_interval {
            last_sweep = Instant::now();
            let removed = shared.cache.sweep();
            if removed > 0 {
                stwa_observe::counter!("serve.cache_swept").add(removed as u64);
            }
        }
        // The registry poll rides the same timer and swaps the way
        // `POST /admin/swap` does, with no one to answer.
        if worker_idx == 0 && !shutting_down && last_poll.elapsed() >= config.registry_poll {
            last_poll = Instant::now();
            let floor = polled.max(shared.version.load(Ordering::Acquire));
            if let Some(latest) = shared.latest_version().filter(|&v| v as u64 > floor) {
                polled = latest as u64;
                broadcast_swap(&job_txs, &shared, latest, None);
            }
        }

        let timeout = Some(if shutting_down {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(500).min(config.sweep_interval).min(config.registry_poll)
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
    shared: &Arc<Shared>,
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
    shared: &Arc<Shared>,
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
                    Routed::Forecast => {
                        conn.inflight += 1;
                        shared.model_jobs.fetch_add(1, Ordering::Relaxed);
                        stwa_observe::counter!("serve.model_jobs").incr();
                    }
                    Routed::Broadcast => conn.inflight += 1,
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
    /// A forecast sent to one replica: a model job.
    Forecast,
    /// An observe or swap broadcast to every replica; one reply comes
    /// back.
    Broadcast,
}

#[allow(clippy::too_many_arguments)]
fn route(
    worker_idx: usize,
    token: u64,
    seq: u64,
    req: &Request,
    conn: &mut Conn,
    shared: &Arc<Shared>,
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
            let pool = stwa_tensor::memory::pool_stats();
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
                ("pool_held_bytes".into(), Json::Num(pool.held_bytes as f64)),
                ("pool_hits".into(), Json::Num(pool.hits as f64)),
                ("pool_misses".into(), Json::Num(pool.misses as f64)),
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
                Routed::Forecast
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
                    if broadcast(job_txs, shared, Some(route), JobKind::Observe { frame }) {
                        conn.inflight_observes += 1;
                        Routed::Broadcast
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
            broadcast_swap(job_txs, shared, target, Some(route));
            Routed::Broadcast
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

fn replica_main<F>(
    replica_idx: usize,
    n_replicas: usize,
    build: Arc<F>,
    shared: Arc<Shared>,
    job_rx: Receiver<Job>,
    ready_tx: Sender<ReplicaReady>,
) where
    F: Fn() -> stwa_tensor::Result<StwaModel> + Send + Sync + 'static,
{
    // With several replicas the thread is the unit of parallelism:
    // keep tensor kernels inline instead of contending for the global
    // pool (kernel chunking depends only on shapes, so inline execution
    // is bitwise identical to pooled — same contract ShardEngine uses).
    let _seq = (n_replicas > 1).then(stwa_pool::sequential_scope);
    let mut state = match init_replica(replica_idx, &*build, &shared) {
        Ok(s) => s,
        Err(e) => {
            let _ = ready_tx.send((replica_idx, Err(e)));
            return;
        }
    };
    let _ = ready_tx.send((
        replica_idx,
        Ok((state.dims, state.registry_version as u64, state.window_fp)),
    ));
    drop(ready_tx);

    // Ends once every sender is gone: the workers have drained at
    // shutdown, so nothing can be in flight.
    for job in job_rx {
        process_job(&mut state, &job, &shared);
        let was = shared.replica_depth[replica_idx].fetch_sub(1, Ordering::Relaxed);
        state.depth_gauge.set((was - 1) as f64);
    }
}

fn init_replica<F>(replica_idx: usize, build: &F, shared: &Shared) -> Result<ModelState, String>
where
    F: Fn() -> stwa_tensor::Result<StwaModel>,
{
    // No swap can start before every replica is ready, so the published
    // version is still the pinned one.
    let pinned_version = shared.version.load(Ordering::Acquire) as u32;
    let model = build().map_err(|e| format!("build model: {e}"))?;
    let frozen = match &shared.registry {
        Some((reg, name)) if pinned_version > 0 => {
            FrozenStwa::freeze_from_registry(&model, reg, name, Some(pinned_version))
                .map_err(|e| format!("freeze from registry: {e}"))?
        }
        _ => FrozenStwa::freeze(&model).map_err(|e| format!("freeze: {e}"))?,
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
fn process_job(state: &mut ModelState, job: &Job, shared: &Shared) {
    match &job.kind {
        JobKind::Forecast { sensor, horizon } => {
            let Some(route) = job.route else { return };
            let packaged = match forecast(state, shared, *sensor, *horizon) {
                Ok(body) => ok_response(body, route.keep_alive),
                Err(e) => eval_error_response(&format!("eval: {e}"), route.keep_alive),
            };
            send_reply(shared, route, packaged, false);
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
                let body = proto::observe_ack(state.registry_version as u64, state.window_fp);
                send_reply(shared, route, ok_response(body, route.keep_alive), true);
            }
        }
        // Dropping this copy after the job may drop the ticket, and
        // with it answer the swap.
        JobKind::Swap(ticket) => {
            if try_swap(state, shared, ticket.target) {
                ticket.flipped.store(true, Ordering::Relaxed);
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
    let version = state.registry_version as u64;
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
/// (a no-op unless it is newer than the one loaded); returns whether it
/// flipped. The flip happens between jobs and reports to the pool-wide
/// barrier; the flip that raises the floor publishes the shared version
/// and purges the retired versions' cache entries, so the cache never
/// loses both versions mid-swap.
fn try_swap(state: &mut ModelState, shared: &Shared, target: u32) -> bool {
    let Some((registry, name)) = &shared.registry else {
        return false;
    };
    if target <= state.registry_version {
        return false;
    }
    match FrozenStwa::freeze_from_registry(&state.model, registry, name, Some(target)) {
        Ok(frozen) => {
            state.session = InferSession::from_frozen(frozen);
            state.registry_version = target;
            state.memo = None;
            let mut barrier = shared.barrier.lock().unwrap();
            if let Some((retired, took)) = barrier.flip(state.replica_idx, target as u64) {
                shared.version.store(retired.end, Ordering::Release);
                for version in retired {
                    shared.cache.purge_version(version);
                }
                shared.swaps.fetch_add(1, Ordering::Relaxed);
                stwa_observe::counter!("serve.swaps").incr();
                let us = took.as_micros() as u64;
                shared.swap_us.store(us, Ordering::Relaxed);
                stwa_observe::gauge!("serve.swap_ms").set(us as f64 / 1000.0);
            }
            true
        }
        Err(_) => {
            // Registry load failed (corrupt or mismatched version, IO
            // error): keep serving the current session. A failed load
            // commits nothing — every name and shape is checked before
            // the store is written — so the store still holds the
            // weights this session was frozen from.
            shared.swap_errors.fetch_add(1, Ordering::Relaxed);
            stwa_observe::counter!("serve.swap_errors").incr();
            false
        }
    }
}

fn ok_response(body: Vec<u8>, keep_alive: bool) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    http::write_response(&mut out, 200, "OK", "application/json", &body, keep_alive);
    (out, !keep_alive)
}

/// A forecast whose evaluation failed: the only error a replica sends.
fn eval_error_response(message: &str, keep_alive: bool) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    let body = proto::error_body(message);
    http::write_response(&mut out, 500, "Internal Server Error", "application/json", &body, keep_alive);
    (out, !keep_alive)
}

fn send_reply(shared: &Shared, route: Route, packaged: (Vec<u8>, bool), observe: bool) {
    let (bytes, close_after) = packaged;
    if let Some((tx, waker)) = shared.replies.get(route.worker) {
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

    /// The state of a one-replica server without a registry or workers.
    fn test_shared() -> Arc<Shared> {
        Arc::new(Shared::new(&ServeConfig::default(), None, 0, 1, Vec::new()))
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
        let shared = test_shared();
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
        let shared = test_shared();
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
        let shared = test_shared();
        let requests = 2 * WBUF_CAP / response.len();
        conn.rbuf = HEALTHZ.repeat(requests);
        assert!(!read_and_dispatch(0, TOKEN_CONN0, &mut conn, &shared, &DIMS, &[]));
        let parsed = shared.requests.load(Ordering::Relaxed) as usize;
        // Either every request was answered, or the kernel refused
        // more and the connection is waiting for its peer to read.
        assert!(parsed == requests || conn.backlogged(), "{parsed} of {requests} parsed, then idle");
    }

    /// Every interleaving of the replicas' flip sequences, each
    /// replica's own sequence kept in order: `(replica, version)` steps.
    fn interleavings(plans: &[Vec<u64>]) -> Vec<Vec<(usize, u64)>> {
        fn walk(
            plans: &[Vec<u64>],
            next: &mut [usize],
            order: &mut Vec<(usize, u64)>,
            out: &mut Vec<Vec<(usize, u64)>>,
        ) {
            if order.len() == plans.iter().map(Vec::len).sum::<usize>() {
                out.push(order.clone());
            }
            for r in 0..plans.len() {
                if let Some(&version) = plans[r].get(next[r]) {
                    next[r] += 1;
                    order.push((r, version));
                    walk(plans, next, order, out);
                    order.pop();
                    next[r] -= 1;
                }
            }
        }
        let mut out = Vec::new();
        walk(plans, &mut vec![0; plans.len()], &mut Vec::new(), &mut out);
        out
    }

    /// Drives a barrier pinned at v1 through `order`, checking each
    /// flip against the floor recomputed from scratch; returns the
    /// retired versions in purge order and the number of rises.
    fn drive(replicas: usize, order: &[(usize, u64)]) -> (SwapBarrier, Vec<u64>, usize) {
        let mut barrier = SwapBarrier::new(replicas, 1);
        let mut serving = vec![1u64; replicas];
        let (mut purged, mut rises) = (Vec::new(), 0);
        for &(replica, version) in order {
            let before = barrier.published;
            serving[replica] = version;
            let floor = *serving.iter().min().unwrap();
            let retired = barrier.flip(replica, version);
            assert_eq!(barrier.published, floor, "published is the lowest version served: {order:?}");
            assert!(barrier.published >= before, "the published version fell: {order:?}");
            match retired {
                Some((range, _)) => {
                    assert_eq!(range, before..floor, "{order:?}");
                    assert!(floor > before, "a purge without a rise: {order:?}");
                    purged.extend(range);
                    rises += 1;
                }
                None => assert_eq!(floor, before, "a rise without a purge: {order:?}"),
            }
        }
        (barrier, purged, rises)
    }

    /// Back-to-back swaps v1 → v2 → v3 over 2 and 3 replicas, in every
    /// order the replica threads could flip. A replica either takes
    /// both swaps or (its v2 load refused) goes straight to v3.
    #[test]
    fn every_order_of_back_to_back_flips_publishes_the_floor_once_per_rise() {
        for replicas in [2usize, 3] {
            let mut orders = 0;
            for skips in 0..1u32 << replicas {
                let plans: Vec<Vec<u64>> = (0..replicas)
                    .map(|r| if skips >> r & 1 == 1 { vec![3] } else { vec![2, 3] })
                    .collect();
                for order in interleavings(&plans) {
                    let (barrier, purged, rises) = drive(replicas, &order);
                    assert_eq!(barrier.published, 3);
                    assert_eq!(purged, [1, 2], "each retired version purged once: {order:?}");
                    assert!(rises == 1 || rises == 2, "{order:?}");
                    assert!(barrier.started.is_none(), "a finished swap leaves no clock running");
                    orders += 1;
                }
            }
            // 2 replicas: 6 + 2·3 + 2 orders; 3 replicas: 90 + 3·30 + 3·12 + 6.
            assert_eq!(orders, if replicas == 2 { 14 } else { 222 });
        }
    }

    /// A replica whose loads keep failing serves v1 still, so however
    /// far its peers go the pool publishes v1 and purges nothing; once
    /// it takes a later version the floor rises in one step.
    #[test]
    fn a_replica_that_never_flips_holds_the_floor_down() {
        for order in interleavings(&[vec![2, 3], vec![], vec![2, 3]]) {
            let (mut barrier, purged, rises) = drive(3, &order);
            assert_eq!((barrier.published, purged.len(), rises), (1, 0, 0), "{order:?}");
            let (retired, _) = barrier.flip(1, 3).expect("the last replica's flip raises the floor");
            assert_eq!((retired, barrier.published), (1..3, 3));
        }
    }

    /// One request a worker answers inline: its bytes, its status, and
    /// whether the connection ends after it.
    fn inline_request(kind: usize, variant: usize) -> (Vec<u8>, u16, bool) {
        let fixed = |bytes: &[u8], status, closes| (bytes.to_vec(), status, closes);
        match kind {
            0 => fixed(b"GET /healthz HTTP/1.1\r\n\r\n", 200, false),
            1 => fixed(b"GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n", 404, false),
            // The body holds a blank line of its own.
            2 => fixed(b"POST /nowhere HTTP/1.1\r\nContent-Length: 9\r\n\r\n\r\n\r\nbody!", 404, false),
            3 => fixed(b"GET /forecast?sensor=7&horizon=1 HTTP/1.1\r\n\r\n", 400, false),
            4 => fixed(b"GET /forecast?sensor=0&horizon=0 HTTP/1.1\r\n\r\n", 400, false),
            5 => fixed(b"GET /forecast?sensor=x HTTP/1.1\r\n\r\n", 400, false),
            6 => fixed(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 200, true),
            7 => fixed(b"GET /healthz HTTP/1.0\r\n\r\n", 200, true),
            8 => {
                let malformed: [(&[u8], u16); 6] = [
                    (b"NONSENSE\r\n\r\n", 400),
                    (b"GET / HTTP/2\r\n\r\n", 505),
                    (b"GET / HTTP/1.1\r\nNoColon\r\n\r\n", 400),
                    (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
                    (b"POST / HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413),
                    (b"GET /\xff HTTP/1.1\r\n\r\n", 400),
                ];
                let (bytes, status) = malformed[variant % malformed.len()];
                fixed(bytes, status, true)
            }
            // A head within a few bytes of the limit on either side.
            _ => {
                let line = "GET /healthz HTTP/1.1\r\nX-Pad: ";
                let head = http::MAX_HEAD - 4 + variant % 8;
                let bytes = format!("{line}{}\r\n\r\n", "p".repeat(head - line.len())).into_bytes();
                if head <= http::MAX_HEAD {
                    (bytes, 200, false)
                } else {
                    (bytes, 431, true)
                }
            }
        }
    }

    /// What a peer that reads nothing is sent for `pieces` arriving one
    /// read at a time, the worker pumping after each. A replica channel
    /// the test holds takes whatever is dispatched. Checks after every
    /// pump that the connection owes at most `WBUF_CAP` plus one
    /// response (no inline response reaches 1 KiB).
    fn served<'a>(pieces: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
        let (mut peer, mut conn) = connected();
        let shared = test_shared();
        let (replica, _jobs) = std::sync::mpsc::channel::<Job>();
        let job_txs = [replica];
        for piece in pieces {
            conn.rbuf.extend_from_slice(piece);
            let dead = read_and_dispatch(0, TOKEN_CONN0, &mut conn, &shared, &DIMS, &job_txs);
            let owed = conn.wbuf.len() - conn.wpos + conn.parked;
            assert!(owed <= WBUF_CAP + 1024, "the connection owes {owed} bytes");
            if dead {
                break;
            }
        }
        drop(conn);
        peer.set_nonblocking(false).unwrap();
        let mut out = Vec::new();
        peer.read_to_end(&mut out).unwrap();
        out
    }

    /// `bytes` cut at every offset in `cuts`.
    fn split(bytes: &[u8], mut cuts: Vec<usize>) -> Vec<&[u8]> {
        cuts.push(bytes.len());
        cuts.sort_unstable();
        let mut start = 0;
        cuts.into_iter()
            .map(|end| {
                let piece = &bytes[start..end];
                start = end;
                piece
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The bytes a connection is sent do not depend on how its
        /// requests were cut into reads. Half the cuts land on or inside
        /// the blank line that ends a head, where the head is judged.
        #[test]
        fn responses_do_not_depend_on_where_reads_split_the_requests(
            requests in proptest::collection::vec((0usize..10, 0usize..64), 1..8),
            cuts in proptest::collection::vec((proptest::any::<bool>(), proptest::any::<usize>(), 0usize..4), 0..10),
        ) {
            let requests: Vec<_> = requests.into_iter().map(|(kind, variant)| inline_request(kind, variant)).collect();
            let stream: Vec<u8> = requests.iter().flat_map(|(bytes, _, _)| bytes.clone()).collect();
            let blank_lines: Vec<usize> = (4..=stream.len()).filter(|&end| &stream[end - 4..end] == b"\r\n\r\n").collect();
            let cuts: Vec<usize> = cuts
                .into_iter()
                .map(|(near_blank, at, back)| {
                    if near_blank {
                        blank_lines[at % blank_lines.len()] - back
                    } else {
                        at % (stream.len() + 1)
                    }
                })
                .collect();

            let whole = served([stream.as_slice()]);
            let mut statuses = Vec::new();
            let mut rest = whole.as_slice();
            while let Some((resp, used)) = crate::client::parse_response(rest).unwrap() {
                statuses.push(resp.status);
                rest = &rest[used..];
            }
            proptest::prop_assert!(rest.is_empty());
            let closer = requests.iter().position(|r| r.2).map_or(requests.len(), |i| i + 1);
            let want: Vec<u16> = requests[..closer].iter().map(|r| r.1).collect();
            proptest::prop_assert_eq!(statuses, want);
            let pieces = served(split(&stream, cuts.clone()));
            let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
            proptest::prop_assert!(pieces == whole, "cut at {:?}:\n{}\nread whole:\n{}", cuts, text(&pieces), text(&whole));
        }

        /// Arbitrary bytes, valid request fragments among them, never
        /// panic the read path or let a connection run past the cap.
        #[test]
        fn arbitrary_bytes_never_panic_the_read_path(
            tokens in proptest::collection::vec((0usize..14, proptest::any::<u64>()), 0..48),
            cuts in proptest::collection::vec(proptest::any::<usize>(), 0..12),
        ) {
            const FRAGMENTS: [&[u8]; 12] = [
                b"GET ", b"POST ", b"/forecast?sensor=0&horizon=1", b"/observe", b"/admin/swap",
                b"/stats", b"/healthz", b" HTTP/1.1\r\n", b"Content-Length: 13\r\n",
                b"Connection: close\r\n", b"\r\n", b"{\"frame\":[1]}",
            ];
            let mut stream = Vec::new();
            for (token, bits) in tokens {
                match FRAGMENTS.get(token) {
                    Some(fragment) => stream.extend_from_slice(fragment),
                    None => stream.extend_from_slice(&bits.to_le_bytes()[..bits as usize % 9]),
                }
            }
            let cuts = cuts.into_iter().map(|at| at % (stream.len() + 1)).collect();
            served(split(&stream, cuts));
        }
    }
}
