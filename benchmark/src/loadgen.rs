//! Socket load generation: a pipelining HTTP connection, the seeded
//! arrival schedule, and the open-loop driver that times every
//! operation from the instant it was due.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{Phase, Sample, SLICES};

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive connection. Requests are written back to back and
/// answers read in order, blocking ([`Conn::recv`]) or not
/// ([`Conn::try_recv`]).
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Parsed prefix of `buf`; compacted lazily so reading a response
    /// does not move the whole buffer.
    pos: usize,
    nonblocking: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
            nonblocking: false,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        // Writes stay blocking-in-effect even on a nonblocking socket:
        // a full send buffer means the server is not reading, and the
        // generator has nothing better to do than wait for it.
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Block until the next response is complete.
    pub fn recv(&mut self) -> io::Result<Response> {
        self.set_nonblocking(false)?;
        loop {
            if let Some(resp) = self.parse()? {
                return Ok(resp);
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
        }
    }

    /// The next response if it has fully arrived.
    pub fn try_recv(&mut self) -> io::Result<Option<Response>> {
        if let Some(resp) = self.parse()? {
            return Ok(Some(resp));
        }
        self.set_nonblocking(true)?;
        match self.fill() {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-response",
            )),
            Ok(_) => self.parse(),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Round trip.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    fn fill(&mut self) -> io::Result<usize> {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 32 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn parse(&mut self) -> io::Result<Option<Response>> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let buf = &self.buf[self.pos..];
        let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        let body_start = head_end + 4;
        if buf.len() < body_start + len {
            return Ok(None);
        }
        let body = buf[body_start..body_start + len].to_vec();
        self.pos += body_start + len;
        Ok(Some(Response { status, body }))
    }
}

/// Seeded Poisson arrivals at `rate_per_s` over `duration_s`: the due
/// time of each operation in seconds from the phase start. Equal seeds
/// give the identical schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut due = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 1);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

/// What an open-loop phase drives. `send(k)` starts operation `k`;
/// `poll` reports every operation that completed since the last call
/// and returns whether there was any.
pub trait Target {
    fn send(&mut self, k: usize) -> io::Result<()>;
    fn poll(&mut self, done: &mut dyn FnMut(usize)) -> io::Result<bool>;
}

pub struct OpenLoop {
    pub phase: Phase,
    /// How late each operation was started, in microseconds after its
    /// due time: the generator's own lag, a diagnostic.
    pub late_us: Vec<f64>,
    pub sent: usize,
    pub unanswered: usize,
    /// Operations in flight at the end of each slice.
    pub backlog: [usize; SLICES],
}

impl OpenLoop {
    /// A backlog that keeps growing means the fixed rate is beyond what
    /// the system sustains; its latencies measure the queue, not the
    /// system, and must not be reported as such.
    pub fn saturated(&self, rate_per_s: f64) -> bool {
        let grows = self.backlog.windows(2).all(|w| w[1] > w[0]);
        // A quarter second of arrivals still queued when the phase ends.
        grows && self.backlog[SLICES - 1] as f64 > 0.25 * rate_per_s
    }
}

/// Start each operation at its scheduled time whatever the target's
/// state, and time it from when it was *due*: if the generator or the
/// target stalls, operations scheduled during the stall carry the wait.
pub fn run_open_loop(
    schedule: &[f64],
    duration_s: f64,
    target: &mut impl Target,
) -> io::Result<OpenLoop> {
    // How long past the end to wait for stragglers before counting
    // them unanswered.
    const GRACE_S: f64 = 2.0;
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let slice_s = duration_s / SLICES as f64;
    let mut samples = Vec::with_capacity(schedule.len());
    let mut late_us = Vec::with_capacity(schedule.len());
    let mut backlog = [0usize; SLICES];
    let mut next_slice = 0usize;
    let mut next = 0usize;
    let mut done = 0usize;
    while done < schedule.len() {
        let t = now();
        if t > duration_s + GRACE_S {
            break;
        }
        while next_slice < SLICES && t >= slice_s * (next_slice + 1) as f64 {
            backlog[next_slice] = next - done;
            next_slice += 1;
        }
        let mut progressed = false;
        while next < schedule.len() && schedule[next] <= now() {
            target.send(next)?;
            late_us.push((now() - schedule[next]) * 1e6);
            next += 1;
            progressed = true;
        }
        progressed |= target.poll(&mut |k| {
            let t = now();
            samples.push(Sample {
                at_s: t,
                latency_us: (t - schedule[k]) * 1e6,
            });
            done += 1;
        })?;
        if progressed {
            continue;
        }
        if next == done && next < schedule.len() {
            // Nothing in flight: sleep towards the next due time, but
            // wake a millisecond early (a sleeping thread on an idle
            // vCPU comes back hundreds of microseconds late) and yield
            // through the rest so the start is on time.
            let gap = schedule[next] - now();
            if gap > 1.5e-3 {
                std::thread::sleep(Duration::from_secs_f64(gap - 1e-3));
                continue;
            }
        }
        // Yield, not spin: on a host with as few cores as threads the
        // server's worker is often woken onto this core, and would
        // wait out this thread's whole time slice behind a spin.
        std::thread::yield_now();
    }
    for b in backlog.iter_mut().skip(next_slice) {
        *b = next - done;
    }
    Ok(OpenLoop {
        phase: Phase {
            duration_s,
            samples,
        },
        late_us,
        sent: next,
        unanswered: next - done,
        backlog,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_schedules() {
        let a = poisson_schedule(7, 2000.0, 1.0);
        assert_eq!(a, poisson_schedule(7, 2000.0, 1.0));
        assert_ne!(a, poisson_schedule(8, 2000.0, 1.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < 1.0);
        // Poisson count: mean 2000, sd ~45.
        assert!((1700..2300).contains(&a.len()), "{}", a.len());
    }

    /// Completes each operation the moment it is sent, except that
    /// sending operation `stall_at` blocks for `stall`.
    struct StalledStub {
        stall_at: usize,
        stall: Duration,
        finished: Vec<usize>,
    }

    impl Target for StalledStub {
        fn send(&mut self, k: usize) -> io::Result<()> {
            if k == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.finished.push(k);
            Ok(())
        }
        fn poll(&mut self, done: &mut dyn FnMut(usize)) -> io::Result<bool> {
            let any = !self.finished.is_empty();
            for k in self.finished.drain(..) {
                done(k);
            }
            Ok(any)
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_across_a_stall() {
        // 100 operations, one per millisecond; sending #20 blocks 50 ms.
        let schedule: Vec<f64> = (0..100).map(|k| k as f64 * 1e-3).collect();
        let mut stub = StalledStub {
            stall_at: 20,
            stall: Duration::from_millis(50),
            finished: Vec::new(),
        };
        let run = run_open_loop(&schedule, 0.1, &mut stub).unwrap();
        assert_eq!((run.sent, run.unanswered), (100, 0));
        // Sample order is completion order, which is send order here.
        let lat: Vec<f64> = run.phase.samples.iter().map(|s| s.latency_us).collect();
        assert!(lat[10] < 20_000.0, "before the stall: {}", lat[10]);
        // #20 itself waited out the stall; #30 was due 10 ms into it
        // and so waited about 40 ms although its own send was instant.
        assert!(lat[20] >= 50_000.0, "{}", lat[20]);
        assert!((35_000.0..60_000.0).contains(&lat[30]), "{}", lat[30]);
        // Operations due after the stall ended are on time again.
        assert!(lat[90] < 20_000.0, "{}", lat[90]);
        // The generator's lateness shows the same stall.
        assert!(run.late_us[30] >= 35_000.0);
        assert!(!run.saturated(1000.0));
    }

    #[test]
    fn a_growing_backlog_is_called_saturated() {
        let run = OpenLoop {
            phase: Phase {
                duration_s: 1.0,
                samples: Vec::new(),
            },
            late_us: Vec::new(),
            sent: 0,
            unanswered: 0,
            backlog: [10, 200, 400, 600, 800],
        };
        assert!(run.saturated(1000.0));
        assert!(!run.saturated(10_000.0));
    }
}
