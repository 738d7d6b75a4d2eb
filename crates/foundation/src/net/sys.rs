//! Raw Linux syscall bindings for the readiness-based server core.
//!
//! The workspace is hermetic — no `libc` crate — so the handful of
//! syscalls the event loop needs (`epoll_*`, `eventfd`, and `listen`
//! to raise the listener's backlog) are declared here directly,
//! following the same `extern "C"` pattern as `crate` signal handling
//! in `dwm-serve`. All `unsafe` is confined to this module, one
//! syscall per wrapper, each with its SAFETY argument. The module is
//! private: the public surface is the [`super::poller::Poller`]
//! abstraction and [`raise_nofile_limit`], not the raw calls.

use std::io;
use std::net::TcpListener;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::AsRawFd;

/// Raw fd of any `AsRawFd` type.
pub(crate) fn raw_fd<T: AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

// epoll event masks.
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLET: u32 = 1 << 31;

// epoll_ctl ops.
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

const EPOLL_CLOEXEC: c_int = 0o200_0000;
const EFD_CLOEXEC: c_int = 0o200_0000;
const EFD_NONBLOCK: c_int = 0o4000;

const LISTEN_BACKLOG: c_int = 1024;

const RLIMIT_NOFILE: c_int = 7;

/// `struct epoll_event`. Packed on x86-64 only, mirroring the
/// kernel/glibc `__EPOLL_PACKED` attribute for that ABI.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// `struct rlimit`.
#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout_ms: c_int,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// New epoll instance (close-on-exec).
pub fn epoll_create() -> io::Result<i32> {
    // SAFETY: no pointers; returns a new fd or -1.
    check(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Adds/modifies/removes `fd` in epoll set `epfd`.
pub fn epoll_control(epfd: i32, op: c_int, fd: i32, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: `ev` is a valid, initialized epoll_event for the
    // duration of the call; the kernel copies it out. DEL ignores
    // the event pointer on modern kernels but passing one is
    // always valid.
    check(unsafe { epoll_ctl(epfd, op, fd, &mut ev) })?;
    Ok(())
}

/// Waits for readiness events; `timeout_ms < 0` blocks forever.
/// `EINTR` surfaces as `Ok(0)` so callers simply re-loop.
pub fn epoll_pwait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
    // SAFETY: `buf` is valid writable memory for `buf.len()`
    // events; the kernel writes at most that many.
    let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

/// New nonblocking eventfd, the cross-thread wakeup primitive.
pub fn eventfd_new() -> io::Result<i32> {
    // SAFETY: no pointers.
    check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
}

/// Rings an eventfd (adds 1 to its counter). Saturation (EAGAIN)
/// already means "wakeup pending", so errors are ignored.
pub fn eventfd_wake(fd: i32) {
    let one: u64 = 1;
    // SAFETY: writes exactly 8 bytes from a valid u64.
    let _ = unsafe { write(fd, (&one as *const u64).cast(), 8) };
}

/// Drains an eventfd counter so it can ring again.
pub fn eventfd_drain(fd: i32) {
    let mut val: u64 = 0;
    // SAFETY: reads exactly 8 bytes into a valid u64.
    let _ = unsafe { read(fd, (&mut val as *mut u64).cast(), 8) };
}

/// Closes a raw fd owned by this module (eventfd, epoll fd).
pub fn close_fd(fd: i32) {
    // SAFETY: the caller owns `fd` and never uses it afterwards.
    let _ = unsafe { close(fd) };
}

/// Raises the backlog of a listening socket to 1024 pending
/// connections. `TcpListener::bind` listens with a backlog of 128, and
/// Linux applies the backlog of a repeated `listen` to the socket.
pub(crate) fn raise_backlog(listener: &TcpListener) -> io::Result<()> {
    // SAFETY: no pointers; `listener` owns the fd for the whole call.
    check(unsafe { listen(listener.as_raw_fd(), LISTEN_BACKLOG) })?;
    Ok(())
}

/// Best-effort bump of `RLIMIT_NOFILE` soft → hard. Returns the soft
/// limit now in effect (0 when the limit cannot be read or raised).
/// Daemons and load generators call this before holding thousands of
/// sockets; failure is never fatal.
pub fn raise_nofile_limit() -> u64 {
    try_raise_nofile_limit().unwrap_or(0)
}

fn try_raise_nofile_limit() -> io::Result<u64> {
    let mut rl = Rlimit { cur: 0, max: 0 };
    // SAFETY: `rl` is valid writable memory for one rlimit.
    check(unsafe { getrlimit(RLIMIT_NOFILE, &mut rl) })?;
    if rl.cur >= rl.max {
        return Ok(rl.cur);
    }
    let raised = Rlimit {
        cur: rl.max,
        max: rl.max,
    };
    // SAFETY: `raised` is a valid, initialized rlimit.
    check(unsafe { setrlimit(RLIMIT_NOFILE, &raised) })?;
    Ok(raised.cur)
}
