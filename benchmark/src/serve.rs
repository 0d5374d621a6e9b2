//! `serve_read` and `serve_write`: a real `stwa-serve` server on a
//! loopback socket, one model replica, one IO thread, driven first by a
//! closed loop (throughput) and then by an open loop at a fixed rate
//! (latency from each request's due time).
//!
//! The two differ only in the traffic mix. `Read` repeats forecast
//! queries against a window that changes once per [`OBSERVE_EVERY`]
//! requests, so nearly every answer comes from the IO worker's cache
//! and the model idles. `Write` precedes every forecast with a fresh
//! observation, so every answer pays a full forward.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use stwa_ckpt::Registry;
use stwa_infer::InferSession;
use stwa_serve::{proto, ServeConfig, Server};

use crate::loadgen::{poisson_schedule, run_open_loop, Conn, OpenLoop, Target};
use crate::other;
use crate::report::{cpu_seconds, Report};
use crate::stats::{median, percentile, sort, SLICES};
use crate::subject::{serving_dataset, weights_seed, Scratch, Subject};
use crate::wire::{get, get_forecast, post, rotation, Dims, Mirror, Oracle};

/// Open-loop rates, fixed well under what a 2-core host sustains in the
/// closed loop (about 280k requests/s and 650 miss-windows/s when these
/// were chosen): at 7 % and 15 % of capacity the latency read is the
/// service path's own, not a queue's, and a tenth of host drift is not
/// amplified into the tail.
pub const READ_RATE_PER_S: f64 = 20_000.0;
pub const WRITE_PAIRS_PER_S: f64 = 100.0;

const READ_CONNS: usize = 2;
const READ_DEPTH: usize = 32;
/// One observation per this many read requests. Each invalidates all
/// 144 sensor x horizon cache entries, so the hit ratio settles near
/// 1 - 144/50000, and the burst of misses behind each observation
/// touches about 0.4 % of requests: it stays out of the p99, which
/// would otherwise sit on the edge between the two modes.
pub const OBSERVE_EVERY: u64 = 50_000;
const WRITE_PAIRS_IN_FLIGHT: usize = 4;
/// Every this-many-th forecast answer is checked against the oracle.
const VERIFY_EVERY: u64 = 256;
/// (observe, forecast) pairs run through the server before timing.
const WARM_PAIRS: usize = 200;
/// Hot swaps under phase-B load in the traced `serve_write` run.
const SWAPS_UNDER_LOAD: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    Read,
    Write,
}

impl Mix {
    pub fn workload(self) -> &'static str {
        match self {
            Mix::Read => "serve_read",
            Mix::Write => "serve_write",
        }
    }
}

/// A started server with its registry, oracle, and window mirror.
pub struct Rig {
    pub subject: Subject,
    /// Holds the registry's directory; removed when the rig is dropped.
    _scratch: Scratch,
    pub registry: Registry,
    pub server: Server,
    pub oracle: Oracle,
    pub mirror: Mirror,
    /// Registry versions published so far.
    pub versions: u64,
}

pub fn serve_config(scratch: &Scratch, subject: &Subject) -> ServeConfig {
    ServeConfig {
        io_threads: 1,
        model_threads: 1,
        max_wait: Duration::from_millis(1),
        ttl: Duration::from_secs(600),
        // Swaps are triggered through /admin/swap, never by the poller.
        registry_poll: Duration::from_secs(60),
        registry: Some((scratch.path().to_path_buf(), subject.name.to_string())),
        ..ServeConfig::default()
    }
}

/// Publish the fixed weights of registry version `version` and give the
/// oracle a session over the same weights.
fn publish_version(
    subject: &Subject,
    registry: &Registry,
    oracle: &mut Oracle,
    version: u64,
) -> io::Result<()> {
    let (published, model) = subject.publish(registry, weights_seed(version));
    assert_eq!(
        published as u64, version,
        "scratch registry versions count from 1"
    );
    oracle.add_version(version, InferSession::new(&model).map_err(other)?);
    Ok(())
}

impl Rig {
    /// Everything before the first timed operation: publish v1, freeze
    /// the oracle's copy, start the server, fill the rolling window,
    /// run the warm-up pairs, and (for `Read`) fill the cache.
    pub fn setup(mix: Mix, seed: u64, label: &str) -> io::Result<Rig> {
        let subject = Subject::serving();
        let scratch = Scratch::new(label);
        let registry = Registry::open(scratch.path()).map_err(other)?;
        let dims = subject.dims();
        let mut oracle = Oracle::new(dims);
        publish_version(&subject, &registry, &mut oracle, 1)?;
        let builder = subject.clone();
        let server = Server::start(serve_config(&scratch, &subject), move || {
            Ok(builder.build(0))
        })?;
        let mirror = Mirror::new(dims, seed, &mut oracle);
        let mut rig = Rig {
            subject,
            _scratch: scratch,
            registry,
            server,
            oracle,
            mirror,
            versions: 1,
        };
        let mut conn = Conn::connect(rig.server.addr())?;
        for k in 0..(dims.h + WARM_PAIRS) as u64 {
            let ack = conn.call(&rig.mirror.observe(&mut rig.oracle))?;
            let (sensor, horizon) = rotation(k, dims);
            let resp = conn.call(&get_forecast(sensor, horizon))?;
            if ack.status != 200 || resp.status != 200 {
                return Err(other(format!(
                    "warm-up got {} / {}",
                    ack.status, resp.status
                )));
            }
        }
        if mix == Mix::Read {
            for k in 0..(dims.n * dims.u) as u64 {
                let (sensor, horizon) = rotation(k, dims);
                conn.call(&get_forecast(sensor, horizon))?;
            }
        }
        Ok(rig)
    }

    pub fn dims(&self) -> Dims {
        self.subject.dims()
    }

    fn publish_next(&mut self) -> io::Result<()> {
        self.versions += 1;
        publish_version(
            &self.subject,
            &self.registry,
            &mut self.oracle,
            self.versions,
        )
    }

    /// Stop the server and check its ledger balances.
    pub fn finish(self, report: &mut Report) {
        let (requests, responses) = self.server.traffic();
        self.server.shutdown();
        report.check(
            "server answered every request it parsed",
            requests == responses,
        );
        report.fail(
            self.oracle.mismatches,
            "served body differs from direct evaluation",
        );
    }
}

/// What one forecast or bookkeeping request on a connection awaits.
#[derive(Clone, Copy)]
enum Tag {
    /// Forecast for `(sensor, horizon)`, the `k`-th operation.
    Forecast(usize, u32, u32),
    Ack,
    Swap(Instant),
}

#[derive(Default)]
pub struct Tally {
    pub answered: u64,
    pub errors: u64,
    pub swap_ms: Vec<f64>,
}

impl Tally {
    /// Account one response; returns the operation index when it
    /// completes a forecast.
    fn take(&mut self, tag: Tag, status: u16, body: &[u8], oracle: &mut Oracle) -> Option<usize> {
        self.answered += 1;
        if status != 200 {
            self.errors += 1;
        }
        match tag {
            Tag::Forecast(k, sensor, horizon) => {
                if status == 200 && (k as u64).is_multiple_of(VERIFY_EVERY) {
                    oracle.verify(body, sensor, horizon);
                }
                Some(k)
            }
            Tag::Ack => None,
            Tag::Swap(sent) => {
                self.swap_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                None
            }
        }
    }
}

/// Completions per second of a closed loop: the median over the
/// phase's slices of completions per slice.
struct SliceCounts {
    t0: Instant,
    slice_s: f64,
    counts: [u64; SLICES],
}

impl SliceCounts {
    fn new(duration_s: f64) -> SliceCounts {
        SliceCounts {
            t0: Instant::now(),
            slice_s: duration_s / SLICES as f64,
            counts: [0; SLICES],
        }
    }

    fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn count(&mut self) {
        let idx = ((self.elapsed_s() / self.slice_s) as usize).min(SLICES - 1);
        self.counts[idx] += 1;
    }

    fn rate_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .counts
            .iter()
            .map(|&c| c as f64 / self.slice_s)
            .collect();
        median(&rates)
    }
}

pub struct Closed {
    pub rate_per_s: f64,
    pub completed: u64,
    pub tally: Tally,
}

/// Closed loop, `Read`: [`READ_CONNS`] connections, each kept
/// [`READ_DEPTH`] requests deep. While one connection's answers are
/// read the other's batch is at the server.
fn closed_read(rig: &mut Rig, duration_s: f64) -> io::Result<Closed> {
    let dims = rig.dims();
    let mut conns = Vec::new();
    for _ in 0..READ_CONNS {
        conns.push((Conn::connect(rig.server.addr())?, VecDeque::<Tag>::new()));
    }
    let mut tally = Tally::default();
    let mut slices = SliceCounts::new(duration_s);
    let mut k = 0u64;
    let mut wbuf = Vec::new();
    loop {
        let stop = slices.elapsed_s() >= duration_s;
        for (conn, inflight) in conns.iter_mut() {
            while let Some(tag) = inflight.pop_front() {
                let resp = conn.recv()?;
                tally.take(tag, resp.status, &resp.body, &mut rig.oracle);
                slices.count();
            }
            if stop {
                continue;
            }
            wbuf.clear();
            while inflight.len() < READ_DEPTH {
                k += 1;
                if k.is_multiple_of(OBSERVE_EVERY) {
                    wbuf.extend_from_slice(&rig.mirror.observe(&mut rig.oracle));
                    inflight.push_back(Tag::Ack);
                } else {
                    let (sensor, horizon) = rotation(k, dims);
                    wbuf.extend_from_slice(&get_forecast(sensor, horizon));
                    inflight.push_back(Tag::Forecast(k as usize, sensor, horizon));
                }
            }
            conn.send(&wbuf)?;
        }
        if stop {
            break;
        }
    }
    Ok(Closed {
        rate_per_s: slices.rate_per_s(),
        completed: tally.answered,
        tally,
    })
}

/// Closed loop, `Write`: one connection, [`WRITE_PAIRS_IN_FLIGHT`]
/// (observe, forecast) pairs in flight. Completions are forecasts.
fn closed_write(rig: &mut Rig, duration_s: f64) -> io::Result<Closed> {
    let dims = rig.dims();
    let mut conn = Conn::connect(rig.server.addr())?;
    let mut inflight = VecDeque::<Tag>::new();
    let mut tally = Tally::default();
    let mut slices = SliceCounts::new(duration_s);
    let mut k = 0usize;
    let mut completed = 0u64;
    loop {
        let stop = slices.elapsed_s() >= duration_s;
        while !stop && inflight.len() < 2 * WRITE_PAIRS_IN_FLIGHT {
            let (sensor, horizon) = rotation(k as u64, dims);
            let mut pair = rig.mirror.observe(&mut rig.oracle);
            pair.extend_from_slice(&get_forecast(sensor, horizon));
            conn.send(&pair)?;
            inflight.push_back(Tag::Ack);
            inflight.push_back(Tag::Forecast(k, sensor, horizon));
            k += 1;
        }
        let Some(tag) = inflight.pop_front() else {
            break;
        };
        let resp = conn.recv()?;
        if tally
            .take(tag, resp.status, &resp.body, &mut rig.oracle)
            .is_some()
        {
            completed += 1;
            slices.count();
        }
    }
    Ok(Closed {
        rate_per_s: slices.rate_per_s(),
        completed,
        tally,
    })
}

pub fn closed(rig: &mut Rig, mix: Mix, duration_s: f64) -> io::Result<Closed> {
    match mix {
        Mix::Read => closed_read(rig, duration_s),
        Mix::Write => closed_write(rig, duration_s),
    }
}

/// The open-loop side of a [`Rig`]: operation `k` is one forecast,
/// preceded by an observation on every operation (`Write`) or every
/// [`OBSERVE_EVERY`]-th (`Read`).
struct OpenTarget<'a> {
    rig: &'a mut Rig,
    mix: Mix,
    conns: Vec<(Conn, VecDeque<Tag>)>,
    tally: Tally,
    /// Operation indices before which a new version is published and
    /// swapped in.
    swap_at: Vec<usize>,
}

impl Target for OpenTarget<'_> {
    fn send(&mut self, k: usize) -> io::Result<()> {
        let dims = self.rig.dims();
        let (sensor, horizon) = rotation(k as u64, dims);
        let slot = k % self.conns.len();
        if self.swap_at.contains(&k) {
            self.rig.publish_next()?;
            let (conn, inflight) = &mut self.conns[slot];
            conn.send(&post("/admin/swap", b""))?;
            inflight.push_back(Tag::Swap(Instant::now()));
        }
        let (conn, inflight) = &mut self.conns[slot];
        let mut bytes = Vec::new();
        if self.mix == Mix::Write || (k as u64 + 1).is_multiple_of(OBSERVE_EVERY) {
            bytes = self.rig.mirror.observe(&mut self.rig.oracle);
            inflight.push_back(Tag::Ack);
        }
        bytes.extend_from_slice(&get_forecast(sensor, horizon));
        inflight.push_back(Tag::Forecast(k, sensor, horizon));
        conn.send(&bytes)
    }

    fn poll(&mut self, done: &mut dyn FnMut(usize)) -> io::Result<bool> {
        let mut any = false;
        for (conn, inflight) in self.conns.iter_mut() {
            while !inflight.is_empty() {
                let Some(resp) = conn.try_recv()? else { break };
                let tag = inflight.pop_front().expect("checked non-empty");
                if let Some(k) = self
                    .tally
                    .take(tag, resp.status, &resp.body, &mut self.rig.oracle)
                {
                    done(k);
                }
                any = true;
            }
        }
        Ok(any)
    }
}

pub fn open_rate(mix: Mix) -> f64 {
    match mix {
        Mix::Read => READ_RATE_PER_S,
        Mix::Write => WRITE_PAIRS_PER_S,
    }
}

/// Open loop at the mix's fixed rate; with `swaps > 0`, that many hot
/// swaps are spread evenly through the phase.
pub fn open(
    rig: &mut Rig,
    mix: Mix,
    seed: u64,
    duration_s: f64,
    swaps: usize,
) -> io::Result<(OpenLoop, Tally)> {
    let schedule = poisson_schedule(seed, open_rate(mix), duration_s);
    let n_conns = match mix {
        Mix::Read => READ_CONNS,
        Mix::Write => 1,
    };
    let mut conns = Vec::new();
    for _ in 0..n_conns {
        conns.push((Conn::connect(rig.server.addr())?, VecDeque::new()));
    }
    let swap_at = (1..=swaps)
        .map(|i| i * schedule.len() / (swaps + 1))
        .collect();
    let mut target = OpenTarget {
        rig,
        mix,
        conns,
        tally: Tally::default(),
        swap_at,
    };
    let run = run_open_loop(&schedule, duration_s, &mut target)?;
    Ok((run, target.tally))
}

fn account(report: &mut Report, what: &str, completed: u64, tally: &Tally) {
    report.attempted += completed;
    report.fail(tally.errors, &format!("{what}: non-200 responses"));
}

fn account_open(report: &mut Report, mix: Mix, run: &OpenLoop, tally: &Tally) {
    report.attempted += run.sent as u64;
    report.fail(tally.errors, "open loop: non-200 responses");
    report.fail(run.unanswered as u64, "open loop: unanswered requests");
    report.check(
        "open loop: backlog does not grow through the phase",
        !run.saturated(open_rate(mix)),
    );
}

/// Counters the server keeps, read through `GET /stats`.
#[derive(Clone, Copy)]
pub struct Stats {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub inline_hits: f64,
    pub model_jobs: f64,
    pub evals: f64,
    pub swap_errors: f64,
    pub client_aborts: f64,
}

impl Stats {
    /// What was counted after `base` was read.
    pub fn since(&self, base: &Stats) -> Stats {
        Stats {
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
            inline_hits: self.inline_hits - base.inline_hits,
            model_jobs: self.model_jobs - base.model_jobs,
            evals: self.evals - base.evals,
            swap_errors: self.swap_errors - base.swap_errors,
            client_aborts: self.client_aborts - base.client_aborts,
        }
    }

    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache_hits / (self.cache_hits + self.cache_misses).max(1.0)
    }

    /// Forecast answers (inline hits plus jobs sent to the model;
    /// observes and swaps are broadcast, not `model_jobs`) per full
    /// window evaluation.
    pub fn forecasts_per_eval(&self) -> f64 {
        (self.inline_hits + self.model_jobs) / self.evals.max(1.0)
    }
}

pub fn server_stats(server: &Server) -> io::Result<Stats> {
    let resp = Conn::connect(server.addr())?.call(&get("/stats"))?;
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    let doc = stwa_observe::parse_json(&text).map_err(other)?;
    let num = |key: &str| doc.get(key).and_then(|v| v.as_num()).unwrap_or(0.0);
    Ok(Stats {
        cache_hits: num("cache_hits"),
        cache_misses: num("cache_misses"),
        inline_hits: num("inline_hits"),
        model_jobs: num("model_jobs"),
        evals: doc
            .get("replica_evals")
            .and_then(|v| v.as_arr())
            .map_or(0.0, |a| a.iter().filter_map(|v| v.as_num()).sum()),
        swap_errors: num("swap_errors"),
        client_aborts: num("client_aborts"),
    })
}

/// Report what the server counted since `base` and hold the mix to
/// what it was chosen for: `Read` answers from the cache, `Write`
/// never does.
fn report_stats(report: &mut Report, mix: Mix, server: &Server, base: &Stats) -> io::Result<()> {
    let s = server_stats(server)?.since(base);
    report.put(
        "serve.cache_hit_ratio",
        s.cache_hit_ratio(),
        "ratio",
        (s.cache_hits + s.cache_misses) as usize,
    );
    report.put("serve.inline_hits", s.inline_hits, "count", 1);
    report.put("serve.model_jobs", s.model_jobs, "count", 1);
    report.put(
        "serve.insitu_forecasts_per_eval",
        s.forecasts_per_eval(),
        "ratio",
        s.evals as usize,
    );
    report.put("serve.swap_errors", s.swap_errors, "count", 1);
    report.put("serve.client_aborts", s.client_aborts, "count", 1);
    report.check("no swap errors", s.swap_errors == 0.0);
    match mix {
        Mix::Read => report.check(
            "read mix is served from the cache (hit ratio >= 0.99)",
            s.cache_hit_ratio() >= 0.99,
        ),
        Mix::Write => report.check(
            "write mix never hits the cache (hit ratio <= 0.01)",
            s.cache_hit_ratio() <= 0.01,
        ),
    }
    Ok(())
}

/// Forecast error against held-out traffic, through the socket: the
/// test windows of a fixed 48-sensor dataset are observed frame by
/// frame and every sensor's full-horizon forecast compared with what
/// the data did next. Every body is also checked against the oracle.
fn forecast_mae(rig: &mut Rig, report: &mut Report, windows: usize) -> io::Result<f64> {
    let dims = rig.dims();
    let dataset = serving_dataset();
    let scaler = dataset.scaler();
    let split = dataset.test(dims.h, dims.u, 12).map_err(other)?;
    let mut conn = Conn::connect(rig.server.addr())?;
    let (mut abs_sum, mut count) = (0.0f64, 0usize);
    for w in 0..windows.min(split.x.shape()[0]) {
        let x = &split.x.data()[w * dims.window_len()..(w + 1) * dims.window_len()];
        for t in 0..dims.h {
            let frame: Vec<f32> = (0..dims.n * dims.f)
                .map(|i| x[(i / dims.f) * dims.h * dims.f + t * dims.f + i % dims.f])
                .collect();
            conn.call(&rig.mirror.push(&frame, &mut rig.oracle))?;
        }
        report.check(
            "observed frames rebuild the dataset window",
            rig.mirror.window() == x,
        );
        let y = &split.y.data()[w * dims.n * dims.u * dims.f..];
        for sensor in 0..dims.n {
            let resp = conn.call(&get_forecast(sensor as u32, dims.u as u32))?;
            report.attempted += 1;
            if resp.status != 200 || !rig.oracle.verify(&resp.body, sensor as u32, dims.u as u32) {
                report.fail(1, "accuracy probe: bad forecast response");
                continue;
            }
            let values = proto::parse_forecast_values(&resp.body).map_err(other)?;
            for (j, v) in values.iter().enumerate() {
                let truth = y[sensor * dims.u * dims.f + j];
                abs_sum += (v * scaler.std + scaler.mean - truth).abs() as f64;
                count += 1;
            }
        }
    }
    Ok(abs_sum / count.max(1) as f64)
}

/// Open-loop latency percentiles and how late the generator ran.
fn report_latency(report: &mut Report, mix: Mix, run: &OpenLoop) {
    report.put_latencies(run.phase.samples.len(), |q| run.phase.latency_us(q));
    let mut late = run.late_us.clone();
    sort(&mut late);
    report.put(
        "generator_late_p99_us",
        percentile(&late, 0.99),
        "us",
        late.len(),
    );
    report.put("open_loop_rate_per_s", open_rate(mix), "1/s", run.sent);
}

/// The untraced run: `setup_s` is the median of `setups` full set-ups
/// (all but the last torn down again), then phase A and phase B share
/// `seconds`.
pub fn run(mix: Mix, seed: u64, seconds: f64, setups: usize) -> io::Result<Report> {
    let mut report = Report::new(mix.workload());
    let mut rig = crate::timed_setups(
        &mut report,
        setups,
        |i| Rig::setup(mix, seed, &format!("{}-{i}", mix.workload())),
        |old| old.server.shutdown(),
    )?;
    let base = server_stats(&rig.server)?;

    let cpu0 = cpu_seconds();
    let a = closed(&mut rig, mix, seconds / 2.0)?;
    let cpu_s = cpu_seconds() - cpu0;
    account(&mut report, "closed loop", a.completed, &a.tally);
    report.put(
        "throughput_per_s",
        a.rate_per_s,
        "1/s",
        a.completed as usize,
    );
    // Server and load generator share the process, so this is the CPU
    // both spend per completed operation.
    report.put(
        "cpu_us_per_op",
        cpu_s * 1e6 / a.completed.max(1) as f64,
        "us",
        a.completed as usize,
    );

    let (b, tally) = open(&mut rig, mix, seed, seconds / 2.0, 0)?;
    account_open(&mut report, mix, &b, &tally);
    report_latency(&mut report, mix, &b);

    report_stats(&mut report, mix, &rig.server, &base)?;
    let mae = forecast_mae(&mut rig, &mut report, 6)?;
    report.put("forecast_mae", mae, "flow", 6 * rig.dims().n * rig.dims().u);
    report.put("verified_bodies", rig.oracle.verified as f64, "count", 1);
    rig.finish(&mut report);
    report.put(
        "ok_share",
        1.0 - report.error_share(),
        "ratio",
        report.attempted as usize,
    );
    report.put("peak_rss_mib", crate::report::peak_rss_mib(), "MiB", 1);
    Ok(report)
}

/// The in-situ part of the traced run: the closed loop alternated
/// between `stwa_observe` off and on, whose throughput ratio is the
/// tracing overhead; a short open loop; for `Write`, then phase C: hot
/// swaps under open-loop load, where nothing may be dropped.
pub fn run_traced(mix: Mix, seed: u64, seconds: f64, report: &mut Report) -> io::Result<Rig> {
    let mut rig = Rig::setup(mix, seed, mix.workload())?;
    let base = server_stats(&rig.server)?;
    let rounds = 4;
    let slice_s = seconds / (2 * rounds) as f64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        for on in [false, true] {
            stwa_observe::set_enabled(on);
            let c = closed(&mut rig, mix, slice_s)?;
            account(report, "traced closed loop", c.completed, &c.tally);
            if on { &mut traced } else { &mut plain }.push(c.rate_per_s);
        }
    }
    stwa_observe::set_enabled(false);
    // What the replica's `InferQueue` did with the traced slices: how
    // many rows it coalesced per batch and how often a settle forced it.
    let counters: std::collections::BTreeMap<String, u64> =
        stwa_observe::counters_snapshot().into_iter().collect();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let batches = count("infer.batches");
    if batches > 0.0 {
        report.put(
            "infer.queue_rows_per_batch",
            count("infer.batched_rows") / batches,
            "count",
            batches as usize,
        );
        report.put(
            "infer.queue_forced_flush_share",
            count("infer.flush_forced") / batches,
            "ratio",
            batches as usize,
        );
    }
    report.put_trace_overhead(&plain, &traced);
    // The open loop once more, untraced, for the per-layer latency
    // percentiles. They are ungated: at this scale they read the host's
    // idle-state exits and stalls as much as the server (README).
    let (b, tally) = open(&mut rig, mix, seed, seconds / 4.0, 0)?;
    account_open(report, mix, &b, &tally);
    report_latency(report, mix, &b);
    if mix == Mix::Write {
        let (c, tally) = open(&mut rig, mix, seed ^ 0xC, seconds / 4.0, SWAPS_UNDER_LOAD)?;
        account_open(report, mix, &c, &tally);
        report.check(
            "every swap under load was acknowledged",
            tally.swap_ms.len() == SWAPS_UNDER_LOAD,
        );
        report.check(
            "server counted every swap",
            rig.server.swaps() == SWAPS_UNDER_LOAD as u64,
        );
        report.put(
            "serve.swap_under_load_p50_ms",
            median(&tally.swap_ms),
            "ms",
            tally.swap_ms.len(),
        );
    }
    report_stats(report, mix, &rig.server, &base)?;
    Ok(rig)
}
