//! Raw Linux syscall bindings for the readiness-based server core.
//!
//! The workspace is hermetic — no `libc` crate — so the handful of
//! syscalls the event loop needs (`epoll_*`, `eventfd`, and a
//! `SO_REUSEPORT` socket/bind/listen path) are declared here directly,
//! following the same `extern "C"` pattern as `crate` signal handling
//! in `dwm-serve`. All `unsafe` is confined to this module, one
//! syscall per wrapper, each with its SAFETY argument. The module is
//! private: the public surface is the [`super::poller::Poller`]
//! abstraction and [`raise_nofile_limit`], not the raw calls.

use std::io;
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::{AsRawFd, FromRawFd};

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

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0o200_0000;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const SO_REUSEPORT: c_int = 15;
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

/// `struct sockaddr_in`, byte-array fields so network byte order
/// is explicit at the construction site.
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port: [u8; 2],
    addr: [u8; 4],
    zero: [u8; 8],
}

/// `struct sockaddr_in6`.
#[repr(C)]
struct SockAddrIn6 {
    family: u16,
    port: [u8; 2],
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
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
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
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

/// Binds a nonblocking listener with `SO_REUSEPORT`, so every
/// acceptor shard binds its own socket on one port and the kernel
/// spreads incoming connections across them. Shard 0 may carry port 0;
/// the caller re-resolves the real port via `local_addr` before
/// binding the rest.
pub(crate) fn bind_listener(addr: &SocketAddr) -> io::Result<TcpListener> {
    let domain = match addr.ip() {
        IpAddr::V4(_) => AF_INET,
        IpAddr::V6(_) => AF_INET6,
    };
    // SAFETY: no pointers; returns a new fd or -1.
    let fd = check(unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0) })?;
    let result = (|| {
        let one: c_int = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            // SAFETY: optval points at a live c_int of the stated
            // length.
            check(unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    (&one as *const c_int).cast(),
                    std::mem::size_of::<c_int>() as u32,
                )
            })?;
        }
        match *addr {
            SocketAddr::V4(v4) => {
                let sa = SockAddrIn {
                    family: AF_INET as u16,
                    port: v4.port().to_be_bytes(),
                    addr: v4.ip().octets(),
                    zero: [0; 8],
                };
                // SAFETY: `sa` is a properly laid-out sockaddr_in
                // and the length matches its size.
                check(unsafe {
                    bind(
                        fd,
                        (&sa as *const SockAddrIn).cast(),
                        std::mem::size_of::<SockAddrIn>() as u32,
                    )
                })?;
            }
            SocketAddr::V6(v6) => {
                let sa = SockAddrIn6 {
                    family: AF_INET6 as u16,
                    port: v6.port().to_be_bytes(),
                    flowinfo: v6.flowinfo(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                // SAFETY: `sa` is a properly laid-out sockaddr_in6
                // and the length matches its size.
                check(unsafe {
                    bind(
                        fd,
                        (&sa as *const SockAddrIn6).cast(),
                        std::mem::size_of::<SockAddrIn6>() as u32,
                    )
                })?;
            }
        }
        // SAFETY: no pointers.
        check(unsafe { listen(fd, LISTEN_BACKLOG) })?;
        Ok(())
    })();
    match result {
        // SAFETY: `fd` is a fresh, valid listening socket whose
        // ownership transfers to the TcpListener.
        Ok(()) => Ok(unsafe { TcpListener::from_raw_fd(fd) }),
        Err(e) => {
            close_fd(fd);
            Err(e)
        }
    }
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
