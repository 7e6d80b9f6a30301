//! Thin raw-syscall layer for the event-driven serving core.
//!
//! The build environment has no registry access, so `libc`/`mio` are out;
//! the handful of Linux primitives the readiness loop needs — `epoll`,
//! `eventfd`, `setsockopt`, `sched_setaffinity` — are declared here as
//! `extern "C"` bindings against the C library every Rust binary on this
//! target already links. Everything is wrapped in small RAII types so the
//! rest of the crate never touches a raw fd. Non-Linux builds compile this
//! module out, and there [`crate::server::serve`] returns
//! `ErrorKind::Unsupported`.

#![cfg(target_os = "linux")]

use std::io;
use std::os::unix::io::RawFd;

#[allow(non_camel_case_types)]
type c_int = i32;
#[allow(non_camel_case_types)]
type c_uint = u32;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;

/// `struct epoll_event`; packed on x86-64 (the kernel ABI), naturally
/// aligned elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_int,
        optlen: u32,
    ) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance (closed on drop).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `fd` with level-triggered interest.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set for an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event pointer is ignored for DEL on every kernel we target.
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) }).map(|_| ())
    }

    /// Waits up to `timeout_ms` (-1 = forever), filling `events`. Returns
    /// the number of ready entries; EINTR is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd used to wake an event loop from other threads
/// (new connections, generation completions, shutdown).
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    pub fn new() -> io::Result<WakeFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(WakeFd { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Posts a wakeup; safe from any thread, never blocks (a full counter
    /// just means a wakeup is already pending).
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Drains pending wakeups (nonblocking read of the counter).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// Caps a socket's kernel send buffer (the kernel doubles the value and
/// enforces a floor, so tiny requests still land at a few KiB). Used to
/// bound per-connection memory and, in tests, to force partial writes.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let v = bytes as c_int;
    cvt(unsafe { setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, 4) }).map(|_| ())
}

/// Caps a socket's kernel receive buffer.
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let v = bytes as c_int;
    cvt(unsafe { setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &v, 4) }).map(|_| ())
}

/// Pins the calling thread to one CPU (`sched_setaffinity` on tid 0).
/// Returns an error when the CPU does not exist or the mask is refused;
/// callers treat that as a warning, not a failure.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; 16]; // up to 1024 CPUs
    let word = cpu / 64;
    if word >= mask.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu index out of range",
        ));
    }
    mask[word] = 1u64 << (cpu % 64);
    cvt(unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) }).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_readable_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 7)
            .unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing to read yet.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 7);
        assert_ne!({ ev.events } & EPOLLIN, 0);
        ep.delete(server_side.as_raw_fd()).unwrap();
    }

    #[test]
    fn wakefd_wakes_and_drains() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.fd(), EPOLLIN, 1).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        wake.wake();
        wake.wake(); // coalesces
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        wake.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn pinning_to_cpu0_succeeds_and_out_of_range_fails() {
        pin_current_thread(0).expect("cpu 0 always exists");
        assert!(pin_current_thread(64 * 16).is_err());
    }
}
