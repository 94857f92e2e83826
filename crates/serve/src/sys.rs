//! Every foreign call the serving stack makes, declared directly against
//! the C library the binary already links (the workspace stays
//! registry-free), behind wrappers that are safe to call: descriptors come
//! back as `OwnedFd` (closed on drop, read and written through `std`),
//! buffers go in as slices. This is the only file in `crates/serve` and
//! `crates/bench` that contains `unsafe` code — the crate roots deny it and
//! allow it back on this module alone.

#[cfg(target_os = "linux")]
pub(crate) use linux::{epoll_create, epoll_ctl, epoll_wait, eventfd, EpollEvent};

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd, RawFd};

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// `struct epoll_event` as the kernel ABI defines it. Packed on x86-64
    /// (the kernel chose a 12-byte layout there); the natural layout
    /// elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy, Default)]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    mod c {
        use super::EpollEvent;
        extern "C" {
            pub fn epoll_create1(flags: i32) -> i32;
            pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, max: i32, timeout_ms: i32)
                -> i32;
            pub fn eventfd(initval: u32, flags: i32) -> i32;
        }
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Takes ownership of the descriptor a successful syscall returned.
    fn owned(ret: i32) -> io::Result<OwnedFd> {
        let fd = cvt(ret)?;
        // SAFETY: the call succeeded, so `fd` is open and nothing else owns it.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// A new close-on-exec epoll instance.
    pub(crate) fn epoll_create() -> io::Result<OwnedFd> {
        // SAFETY: plain syscall, no pointers.
        owned(unsafe { c::epoll_create1(EPOLL_CLOEXEC) })
    }

    /// A new non-blocking, close-on-exec eventfd with a zero counter.
    pub(crate) fn eventfd() -> io::Result<OwnedFd> {
        // SAFETY: plain syscall, no pointers.
        owned(unsafe { c::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
    }

    /// `epoll_ctl(op)` on `epfd` for `fd`; `event` carries the interest set
    /// and the token.
    pub(crate) fn epoll_ctl(
        epfd: BorrowedFd<'_>,
        op: i32,
        fd: RawFd,
        mut event: EpollEvent,
    ) -> io::Result<()> {
        // SAFETY: `event` outlives the call; the kernel copies it out.
        cvt(unsafe { c::epoll_ctl(epfd.as_raw_fd(), op, fd, &mut event) }).map(drop)
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for readiness on `epfd`
    /// and fills a prefix of `events`; returns that prefix's length.
    pub(crate) fn epoll_wait(
        epfd: BorrowedFd<'_>,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: `events` is a live, writable slice of at least `max`
        // entries, and the kernel writes at most that many.
        let n = unsafe { c::epoll_wait(epfd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) };
        cvt(n).map(|n| n as usize)
    }
}
