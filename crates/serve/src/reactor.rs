//! Minimal epoll reactor: non-blocking sockets plus a readiness loop.
//!
//! The serving front-end needs exactly three kernel facilities — "tell
//! me when these fds are readable/writable", "wake a sleeping loop from
//! another thread", and nothing else — so instead of pulling in an
//! async runtime this module declares the three `epoll` entry points
//! that glibc already links into every binary and wraps them in a safe
//! [`Epoll`] handle. Cross-thread wakeups ride a non-blocking
//! [`UnixStream`] pair ([`Waker`]): the read end sits in the epoll set
//! like any socket, the write end is `Send + Sync` and writes one byte
//! to wake the loop.
//!
//! Everything is level-triggered: a readable fd keeps reporting until
//! drained, which keeps the event loop's correctness independent of
//! how much each callback consumes.

#![cfg(target_os = "linux")]

use std::io;
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readiness bits (subset of the kernel's event mask).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half — lets keep-alive connections report
/// a client-side close without a zero-byte read.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// `struct epoll_event` — packed on x86_64, exactly as the kernel ABI
/// defines it. Fields are copied out rather than referenced (taking a
/// reference into a packed struct is undefined alignment).
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut RawEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut RawEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// One readiness notification: the token the fd was registered with
/// plus the event bits that fired.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub closed: bool,
}

/// A safe wrapper over one epoll instance.
pub struct Epoll {
    fd: RawFd,
    buf: Vec<RawEvent>,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // Safety: plain syscall, no memory handed over.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            fd,
            buf: vec![RawEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = RawEvent {
            events,
            data: token,
        };
        // Safety: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token` with the given interest set
    /// (`EPOLLIN` and/or `EPOLLOUT`; `EPOLLRDHUP` is always added).
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest | EPOLLRDHUP, token)
    }

    /// Change an existing registration's interest set.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest | EPOLLRDHUP, token)
    }

    /// Drop a registration (closing the fd also does this implicitly).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses; deliver the ready set to `out` (cleared first).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        debug_assert!(
            !self.buf.is_empty() && self.buf.len() <= i32::MAX as usize,
            "epoll_wait: {} event slots",
            self.buf.len()
        );
        // Safety: `buf` is a live, properly sized RawEvent array.
        let n = unsafe {
            epoll_wait(
                self.fd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        debug_assert!(n as usize <= self.buf.len(), "epoll_wait: {n} events");
        for raw in &self.buf[..n as usize] {
            let bits = raw.events;
            out.push(Event {
                token: raw.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        debug_assert!(self.fd >= 0, "epoll: closing fd {}", self.fd);
        // Safety: fd is owned by this handle and closed exactly once.
        unsafe { close(self.fd) };
    }
}

/// Cross-thread wakeup for an [`Epoll`] loop: a non-blocking socket
/// pair whose read half lives in the epoll set. Cloneable and cheap —
/// a wake writes one byte and ignores a full pipe (the loop is already
/// scheduled to wake).
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Build the pair; register `reader` under `token` in the loop's
    /// epoll set and hand `Waker` to the threads that need to wake it.
    pub fn pair() -> io::Result<(Waker, WakeReader)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeReader { rx }))
    }

    pub fn wake(&self) {
        use std::io::Write;
        // WouldBlock means the buffer already holds unread wake bytes;
        // any other error means the loop is gone — both are fine to
        // ignore.
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker {
            tx: self.tx.try_clone().expect("clone waker socket"),
        }
    }
}

/// The epoll-side half of a [`Waker`].
pub struct WakeReader {
    rx: UnixStream,
}

impl WakeReader {
    pub fn fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Consume queued wake bytes so a level-triggered epoll stops
    /// reporting the fd.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn readiness_round_trip_over_a_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut ep = Epoll::new().unwrap();
        use std::os::unix::io::AsRawFd;
        ep.add(server.as_raw_fd(), 7, EPOLLIN).unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: a short wait times out empty.
        ep.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        client.write_all(b"ping").unwrap();
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("event");
        assert!(ev.readable);
        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Peer close surfaces as a closed event.
        drop(client);
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("event");
        assert!(ev.closed || ev.readable);
    }

    #[test]
    fn waker_rouses_a_sleeping_wait() {
        let (waker, reader) = Waker::pair().unwrap();
        let mut ep = Epoll::new().unwrap();
        ep.add(reader.fd(), 1, EPOLLIN).unwrap();

        // Keep one Waker alive for the whole test (dropping every
        // clone hangs up the pair, which reads as `closed`) — exactly
        // the lifetime the server gives its wakers.
        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
            remote.wake(); // double-wake coalesces, never errors
        });
        let mut events = Vec::new();
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        // Join first so no wake byte can land after the drain.
        t.join().unwrap();
        reader.drain();
        // Drained: the next short wait reports nothing for the waker.
        ep.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| e.token != 1));
    }
}
