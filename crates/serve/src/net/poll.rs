//! A minimal epoll readiness loop (Linux), in the spirit of `mio` but
//! dependency-free: the syscalls the front-end needs are declared in
//! [`crate::sys`] directly against the C library the binary already links,
//! so the workspace stays registry-free (see the vendored-shims note in the
//! root manifest).
//!
//! The surface is deliberately tiny — level-triggered readiness over raw
//! fds, a [`Token`] per registration, and a [`Waker`] (an `eventfd`) so
//! other threads can interrupt a blocked [`Poller::wait`]. The wire
//! reactor owns one `Poller` + `Waker` pair, and a device worker wakes it
//! per response. Everything higher-level (buffers, framing,
//! connection state) lives in [`crate::net::server`].

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, AsRawFd, OwnedFd, RawFd};

use crate::sys::{self, EpollEvent};

/// Readiness on the registered fd: readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness on the registered fd: writable.
pub const EPOLLOUT: u32 = 0x004;
/// Readiness on the registered fd: error condition.
pub const EPOLLERR: u32 = 0x008;
/// Readiness on the registered fd: hang-up.
pub const EPOLLHUP: u32 = 0x010;
/// Readiness on the registered fd: peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// Opaque per-registration identifier, echoed back on every readiness
/// event for that fd.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: Token,
    /// The raw `EPOLL*` readiness bits.
    pub readiness: u32,
}

impl Event {
    /// The fd has bytes to read (or a pending accept), or the peer hung up
    /// (which reads as EOF).
    pub fn readable(&self) -> bool {
        self.readiness & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0
    }
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates the epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        Ok(Poller { epfd: sys::epoll_create()? })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: Token) -> io::Result<()> {
        sys::epoll_ctl(self.epfd.as_fd(), op, fd, EpollEvent { events: interest, data: token.0 })
    }

    /// Starts watching `fd` for `interest` readiness under `token`.
    pub fn register(&self, fd: RawFd, interest: u32, token: Token) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest set of an already-registered fd.
    pub fn reregister(&self, fd: RawFd, interest: u32, token: Token) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Stops watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        // A non-null event pointer keeps pre-2.6.9 kernels happy; harmless
        // everywhere else.
        self.ctl(EPOLL_CTL_DEL, fd, 0, Token(0))
    }

    /// Blocks up to `timeout_ms` (`None` = forever) for readiness events,
    /// appending them to `out`. Returns how many arrived. A signal-
    /// interrupted wait retries transparently.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<usize> {
        let mut buffer = [EpollEvent::default(); 64];
        let n = loop {
            match sys::epoll_wait(self.epfd.as_fd(), &mut buffer, timeout_ms.unwrap_or(-1)) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        for event in &buffer[..n] {
            // A packed struct's fields must be copied out, not referenced.
            let (events, data) = (event.events, event.data);
            out.push(Event { token: Token(data), readiness: events });
        }
        Ok(n)
    }
}

/// Cross-thread wake-up for a blocked [`Poller::wait`]: an `eventfd`
/// registered like any other fd. `wake` is cheap and thread-safe; the
/// event loop calls `drain` when the waker's token surfaces.
#[derive(Debug)]
pub struct Waker {
    eventfd: File,
}

impl Waker {
    /// Creates the eventfd and registers it with `poller` under `token`.
    pub fn new(poller: &Poller, token: Token) -> io::Result<Self> {
        let eventfd = File::from(sys::eventfd()?);
        poller.register(eventfd.as_raw_fd(), EPOLLIN, token)?;
        Ok(Waker { eventfd })
    }

    /// Makes the poller's next (or current) `wait` return.
    pub fn wake(&self) {
        // An EAGAIN (counter saturated) still leaves the eventfd readable,
        // which is all wake() promises.
        let _ = (&self.eventfd).write(&1u64.to_ne_bytes());
    }

    /// Clears the pending wake-up counter.
    pub fn drain(&self) {
        let _ = (&self.eventfd).read(&mut [0u8; 8]);
    }
}

impl crate::batcher::Wake for Waker {
    fn wake(&self) {
        Waker::wake(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_unblocks_wait_across_threads() {
        let poller = Poller::new().expect("epoll");
        let waker = std::sync::Arc::new(Waker::new(&poller, Token(7)).expect("eventfd"));
        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            remote.wake();
        });
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(5_000)).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable());
        waker.drain();
        handle.join().unwrap();
        // Drained: a zero-timeout wait sees nothing.
        events.clear();
        let n = poller.wait(&mut events, Some(0)).expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readiness_is_reported_with_its_token() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let poller = Poller::new().expect("epoll");
        poller.register(listener.as_raw_fd(), EPOLLIN, Token(1)).expect("register listener");
        // No pending connection: nothing is ready.
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(0)).expect("wait"), 0);
        // A connection makes the listener readable.
        let _client =
            std::net::TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let n = poller.wait(&mut events, Some(5_000)).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(1));
        assert!(events[0].readable());
        // Accept, register the server end, and observe bytes arriving.
        let (server_end, _) = listener.accept().expect("accept");
        server_end.set_nonblocking(true).expect("nonblocking");
        poller.register(server_end.as_raw_fd(), EPOLLIN | EPOLLRDHUP, Token(2)).expect("register");
        let mut client = _client;
        client.write_all(b"ping").expect("write");
        events.clear();
        let n = poller.wait(&mut events, Some(5_000)).expect("wait");
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == Token(2) && e.readable()));
        poller.deregister(server_end.as_raw_fd()).expect("deregister");
    }
}
