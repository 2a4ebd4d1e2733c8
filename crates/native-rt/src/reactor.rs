//! The single-threaded reactor: the control server's sockets.
//!
//! Tucker & Gupta's centralized server must be cheaper than the
//! resource it manages; a thread-per-connection control plane inverts
//! that at fleet scale — thousands of registered applications mean
//! thousands of mostly-idle server threads contending on one state
//! mutex, the exact saturated-centralized-resource collapse the server
//! exists to prevent. The reactor removes both costs: **one** thread
//! owns every connection *and* the server's `ControlCore` outright (no
//! `Mutex`, no handoff), and a readiness loop (epoll on Linux, `poll(2)`
//! elsewhere — hand-rolled FFI, matching the repo's zero-extra-dependency
//! style) multiplexes thousands of sockets through it. The core owns the
//! state and the order each wakeup's events touch it in; the reactor
//! owns only sockets, [`FrameBuffer`]s and flushes.
//!
//! The core reads no clock and no file, so the reactor reads both for it:
//! one clock read per wakeup, converted to the core's time (a `Duration`
//! since `trace::clock_origin`), and one `/proc` walk per sample. Per
//! wakeup, the loop:
//!
//! 1. hands the core a `/proc` sample when one is due, and expires the
//!    leases due by now (the core's deadline-ordered timer queue: the
//!    wait timeout is the earliest lease, hold or sample deadline, so none
//!    needs per-poll scans or idle spinning),
//! 2. drains every ready socket into its connection's [`FrameBuffer`]
//!    (frames split across read boundaries reassemble; pipelined frames
//!    all surface at once) and hands each complete frame to the core,
//!    appending its replies to the connection's write buffer,
//! 3. flushes each touched connection **once** (replies batched per
//!    wakeup: N pipelined polls cost one `write(2)`, not N), and
//! 4. has the core release the parked polls whose answer the wakeup
//!    changed or whose hold ran out, after step 3, so whoever caused a
//!    change hears `OK` before anyone hears its consequence.
//!
//! A client that does not read its replies is not read either: once more
//! than [`MAX_FRAME`] of a connection's replies are unflushed, step 2
//! stops serving it and the poller watches it only for writability, until
//! a writable wakeup's flush brings the backlog back under the bound. No
//! reply is dropped, and a connection's unflushed replies stay under the
//! cap plus one reply.
//!
//! Observability: `reactor_wakeups` counts readiness-loop returns and
//! `frames_batched` counts frames served beyond the first of each
//! wakeup (the pipelining/batching win); the core's `timer_fires` /
//! `recompute_coalesced` count timer pops and partition recomputations
//! saved by the dirty-flag gate. See DESIGN.md §13.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::control::ControlCore;
use crate::proc_scan;
use crate::stats::Counter;
use crate::trace;
use crate::uds::write_snapshot;

/// The longest line the reactor will buffer for one frame before
/// answering `ERR malformed` and dropping the connection. Generous —
/// a full EVENTS batch is a few KiB — but bounded, so one misbehaving
/// client cannot grow the reactor's memory without limit. Also the
/// unflushed-reply backlog beyond which a connection is not served until
/// its client reads.
pub const MAX_FRAME: usize = 256 * 1024;

/// Upper bound on one readiness wait, so the shutdown flag is honored
/// promptly even with no traffic and no pending lease deadline.
const MAX_WAIT_MS: i32 = 100;

/// Reassembles newline-delimited frames from arbitrarily-split reads.
///
/// The reactor's read path hands this buffer whatever `read(2)` returned
/// — half a frame, seventeen pipelined frames and a torn tail, one byte
/// — and pulls complete frames (without their terminator) back out.
/// Bytes are consumed front-to-back with an offset cursor, compacted
/// only when the buffer runs dry or a partial frame must slide down, so
/// draining k frames from one read costs O(bytes), not O(k·bytes).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    pos: usize,
    /// End of the newline-scanned prefix (≥ `pos`): re-extending after
    /// an incomplete frame re-scans only the new bytes.
    scanned: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends bytes from one read.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame (the bytes before the next `\n`,
    /// exclusive), or `None` when only a partial frame remains buffered.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        let range = self.next_frame_range()?;
        Some(self.buf[range].to_vec())
    }

    /// Pops the next complete frame as a range into the buffer — the
    /// zero-copy variant of [`FrameBuffer::next_frame`]: read the bytes
    /// back with [`FrameBuffer::frame_bytes`] before the next mutating
    /// call. The buffer compacts itself on the `None` that ends every
    /// drain loop, so consumed bytes never accumulate across a
    /// long-lived connection.
    pub fn next_frame_range(&mut self) -> Option<std::ops::Range<usize>> {
        let start = self.scanned.max(self.pos);
        match self.buf[start..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let nl = start + off;
                let range = self.pos..nl;
                self.pos = nl + 1;
                self.scanned = self.pos;
                Some(range)
            }
            None => {
                self.scanned = self.buf.len();
                // Slide the partial tail down so consumed bytes do not
                // accumulate across long-lived connections.
                if self.pos > 0 {
                    self.buf.drain(..self.pos);
                    self.scanned -= self.pos;
                    self.pos = 0;
                }
                None
            }
        }
    }

    /// The bytes of a frame returned by
    /// [`FrameBuffer::next_frame_range`], valid until the next mutating
    /// call.
    pub fn frame_bytes(&self, range: &std::ops::Range<usize>) -> &[u8] {
        &self.buf[range.clone()]
    }

    /// Bytes buffered for the (incomplete) current frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes whatever partial frame remains — the final unterminated
    /// line of a connection that hit EOF mid-frame.
    pub fn take_residue(&mut self) -> Vec<u8> {
        let residue = self.buf.split_off(self.pos);
        self.buf.clear();
        self.pos = 0;
        self.scanned = 0;
        residue
    }
}

/// One connection's state machine: its stream, the partial-frame read
/// buffer, and the batched-reply write buffer.
struct Conn {
    stream: UnixStream,
    frames: FrameBuffer,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    /// What the poller watches this fd for: `(readable, writable)`.
    watching: (bool, bool),
    /// The client is not reading its replies: more than [`MAX_FRAME`] of
    /// them were unflushed when the connection was last served, so its
    /// frames wait, in the socket or in `frames`, until a writable wakeup
    /// flushes the backlog back under the bound.
    throttled: bool,
    /// Close once `wbuf` drains (EOF seen or a fatal protocol error —
    /// the reply is still delivered first: no silent drops).
    closing: bool,
}

impl Conn {
    fn new(stream: UnixStream) -> Conn {
        Conn {
            stream,
            frames: FrameBuffer::new(),
            wbuf: Vec::new(),
            wpos: 0,
            watching: (true, false),
            throttled: false,
            closing: false,
        }
    }

    /// Reply bytes staged and not yet written.
    fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Points the poller at what the connection waits for: readability
    /// unless it is closing or throttled (epoll is level-triggered, so an
    /// fd left unread but watched would end every wait at once), and
    /// writability while replies are unflushed or it is throttled (the
    /// wakeup that resumes it).
    fn watch(&mut self, poller: &mut sys::Poller, token: u64) {
        let want = (
            !self.closing && !self.throttled,
            self.throttled || self.unflushed() > 0,
        );
        if want != self.watching {
            self.watching = want;
            let _ = poller.modify(self.stream.as_raw_fd(), token, want.0, want.1);
        }
    }

    /// Writes as much of the pending reply bytes as the socket accepts.
    /// `Ok(true)` means fully flushed.
    fn flush(&mut self) -> io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }
}

/// Readiness-notification backend: epoll. Registered fds carry a `u64`
/// token; `wait` reports `(token, readable, writable)` triples.
#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::os::unix::io::RawFd;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    /// The kernel's `struct epoll_event`. x86-64 is the one 64-bit ABI
    /// where the kernel packs it (no padding between `events` and
    /// `data`); every other architecture uses natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// A thin safe wrapper over one epoll instance.
    pub struct Poller {
        epfd: RawFd,
        events: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall with no pointer arguments; the
            // returned fd is owned by the Poller and closed on drop.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                events: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live stack value for the duration of the
            // call; the kernel copies it before returning. `fd` is a
            // valid open descriptor owned by the caller.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Watches `fd` for readability.
        pub fn add(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, EPOLLIN)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            let events = if read { EPOLLIN } else { 0 } | if write { EPOLLOUT } else { 0 };
            self.ctl(EPOLL_CTL_MOD, fd, token, events)
        }

        pub fn remove(&mut self, fd: RawFd) {
            // Best-effort: the fd is about to be closed anyway (closing
            // an fd removes it from every epoll set it belongs to).
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Waits up to `timeout_ms` and appends `(token, readable,
        /// writable)` for each ready fd. Error/hangup conditions report
        /// as readable so the read path observes the EOF/error; the
        /// kernel reports them with no interest registered too.
        pub fn wait(
            &mut self,
            timeout_ms: i32,
            out: &mut Vec<(u64, bool, bool)>,
        ) -> io::Result<()> {
            // SAFETY: `events` is a live, properly-sized buffer; the
            // kernel writes at most `maxevents` entries into it.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.events.as_mut_ptr(),
                    self.events.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for i in 0..n as usize {
                // Copy out of the (possibly packed) event by value —
                // references into packed fields would be unaligned.
                let ev = self.events[i];
                let bits = { ev.events };
                let token = { ev.data };
                let readable = bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0;
                let writable = bits & EPOLLOUT != 0;
                out.push((token, readable, writable));
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` is a descriptor this Poller opened and
            // uniquely owns; double-close is impossible here.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

/// Readiness-notification backend: portable `poll(2)` fallback for
/// non-Linux Unixes. Same interface as the epoll backend; the fd set is
/// rebuilt into a `pollfd` array per wait, which is O(fds) — acceptable
/// for portability, and Linux (the perf target) uses epoll.
#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use std::io;
    use std::os::unix::io::RawFd;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        // `nfds_t` is `unsigned long` on the supported Unixes, which
        // matches `usize` on both LP64 and ILP32.
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }

    /// A thin `poll(2)`-backed poller with the epoll backend's API.
    pub struct Poller {
        /// `(fd, token, read, write)`.
        interest: Vec<(RawFd, u64, bool, bool)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                interest: Vec::new(),
            })
        }

        /// Watches `fd` for readability.
        pub fn add(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            self.interest.push((fd, token, true, false));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            if let Some(e) = self.interest.iter_mut().find(|e| e.0 == fd) {
                *e = (fd, token, read, write);
            }
            Ok(())
        }

        pub fn remove(&mut self, fd: RawFd) {
            self.interest.retain(|e| e.0 != fd);
        }

        pub fn wait(
            &mut self,
            timeout_ms: i32,
            out: &mut Vec<(u64, bool, bool)>,
        ) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .interest
                .iter()
                .map(|&(fd, _, read, write)| PollFd {
                    fd,
                    events: if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            // SAFETY: `fds` is a live, contiguous array of `nfds`
            // properly-initialized pollfd records for the call duration.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (pfd, &(_, token, ..)) in fds.iter().zip(&self.interest) {
                let readable = pfd.revents & (POLLIN | POLLERR | POLLHUP) != 0;
                let writable = pfd.revents & POLLOUT != 0;
                if readable || writable {
                    out.push((token, readable, writable));
                }
            }
            Ok(())
        }
    }
}

/// The listener's poller token; connections get ids counting up from 0.
const LISTENER_TOKEN: u64 = u64::MAX;

/// The server's event loop, with the core it drives and the two
/// statistics only the loop can count.
pub(crate) struct Reactor {
    listener: UnixListener,
    core: ControlCore,
    reactor_wakeups: Counter,
    frames_batched: Counter,
}

impl Reactor {
    /// A reactor serving `core` on `listener` (not yet running).
    pub(crate) fn new(listener: UnixListener, core: ControlCore) -> Reactor {
        let registry = Arc::clone(core.registry());
        Reactor {
            listener,
            core,
            reactor_wakeups: registry.counter("reactor_wakeups"),
            frames_batched: registry.counter("frames_batched"),
        }
    }

    /// Runs the loop until `stop` is raised. On a poller setup failure
    /// the error is reported and the server goes dark.
    pub(crate) fn serve(self, stop: &AtomicBool) {
        let Reactor {
            listener,
            mut core,
            reactor_wakeups,
            frames_batched,
        } = self;
        let mut poller = match sys::Poller::new() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("procctl reactor: cannot create poller: {e}");
                return;
            }
        };
        if let Err(e) = poller.add(listener.as_raw_fd(), LISTENER_TOKEN) {
            eprintln!("procctl reactor: cannot watch listener: {e}");
            return;
        }

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token: u64 = 0;
        let mut ready: Vec<(u64, bool, bool)> = Vec::new();
        let mut released: Vec<u64> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        let origin = trace::clock_origin();
        let mut last_snapshot = origin.elapsed();

        while !stop.load(Ordering::Acquire) {
            // Sleep until traffic or the next lease, hold or sample
            // deadline, capped so the stop flag stays responsive.
            let timeout_ms = match core.next_deadline() {
                Some(at) => {
                    // Rounded up: a wait that ends a fraction of a
                    // millisecond early would find nothing due and spin.
                    let left = at.saturating_sub(origin.elapsed());
                    let ms = left.as_micros().div_ceil(1000);
                    (ms.min(MAX_WAIT_MS as u128) as i32).max(0)
                }
                None => MAX_WAIT_MS,
            };
            ready.clear();
            if let Err(e) = poller.wait(timeout_ms, &mut ready) {
                eprintln!("procctl reactor: wait failed: {e}");
                return;
            }
            reactor_wakeups.incr();
            // One clock read serves the whole wakeup: the lease math is
            // 30-second-granular, and a wakeup is microseconds long.
            let now = origin.elapsed();
            if core.sample_due(now) {
                // A walk that fails (or is unsupported here) reads as an
                // empty sample: no load, nobody dead.
                let pids: Vec<u32> = core.pids().collect();
                let load = core.cfg().account_system_load;
                core.sample(now, proc_scan::sample(&pids, load).unwrap_or_default());
            }
            // Fire due lease timers (cheap heap peek when nothing is due).
            core.expire(now);
            // Periodic crash-recovery snapshot, off the same timer
            // wakeups (the wait cap bounds staleness; the hot frame path
            // below is untouched when no interval has elapsed).
            let cfg = core.cfg();
            if cfg.snapshot_path.is_some() && now - last_snapshot >= cfg.snapshot_interval {
                write_snapshot(&core, now);
                last_snapshot = now;
            }

            // Phase 1: accept and drain every ready socket, staging
            // batched replies. Nothing is written back yet, so the
            // wakeup's frame accounting below is complete before any
            // client can observe (and race) it.
            let mut frames_this_wakeup: u64 = 0;
            for &(token, readable, writable) in &ready {
                if token == LISTENER_TOKEN {
                    accept_ready(&listener, &mut poller, &mut conns, &mut next_token);
                    continue;
                }
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                if conn.closing {
                    continue;
                }
                if conn.throttled {
                    // Only its client reading replies resumes it: a
                    // writable wakeup whose flush (of replies staged in
                    // earlier wakeups) brings the backlog under the
                    // bound. A hang-up or a failed write is phase 2's,
                    // whose flush fails and closes the connection.
                    if !writable || conn.flush().is_err() || conn.unflushed() > MAX_FRAME {
                        continue;
                    }
                    conn.throttled = false;
                } else if !readable {
                    continue;
                }
                frames_this_wakeup += drain_and_handle(token, conn, &mut scratch, &mut core, now);
            }
            if frames_this_wakeup > 1 {
                frames_batched.add(frames_this_wakeup - 1);
            }

            // Phase 2: flush each touched connection once — N pipelined
            // frames cost one write(2) — managing EPOLLOUT interest for
            // the rare short write and EPOLLIN interest for throttling.
            let mut dead: Vec<u64> = Vec::new();
            for &(token, readable, writable) in &ready {
                if token != LISTENER_TOKEN && (readable || writable) {
                    flush_conn(token, &mut conns, &mut poller, &mut dead);
                }
            }

            // Phase 3: the parked polls this wakeup released — by what
            // its frames or its expired leases did to the partition, or
            // by a hold running out — written after the wakeup's own
            // replies. Staged first and flushed after, like phases 1 and
            // 2: a client that reads its release and asks for `STATS`
            // finds the `parked` gauge already moved.
            released.clear();
            core.release(now, |token, line| {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.wbuf.extend_from_slice(line.as_bytes());
                    released.push(token);
                }
            });
            for &token in &released {
                flush_conn(token, &mut conns, &mut poller, &mut dead);
            }

            for token in dead {
                if let Some(conn) = conns.remove(&token) {
                    poller.remove(conn.stream.as_raw_fd());
                    // A write may have failed behind a frame that parked.
                    core.hang_up(token);
                }
            }
        }
        // Final write on the way out: a graceful shutdown (SIGTERM →
        // drop) persists everything served, so the next boot restores
        // the exact fleet this instance was managing.
        write_snapshot(&core, origin.elapsed());
    }
}

/// Writes out what `token`'s connection has staged, keeping the poller's
/// interest in step with what is left ([`Conn::watch`]), and queues the
/// connection on `dead` when it failed or finished closing.
fn flush_conn(
    token: u64,
    conns: &mut HashMap<u64, Conn>,
    poller: &mut sys::Poller,
    dead: &mut Vec<u64>,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return; // closed earlier this wakeup
    };
    match conn.flush() {
        Ok(true) if conn.closing => dead.push(token),
        Ok(_) => conn.watch(poller, token),
        Err(_) => dead.push(token),
    }
}

/// Accepts every pending connection (the listener is non-blocking).
fn accept_ready(
    listener: &UnixListener,
    poller: &mut sys::Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                if poller.add(stream.as_raw_fd(), token).is_ok() {
                    conns.insert(token, Conn::new(stream));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Has `core` answer the connection's complete frames, reading more from
/// the socket whenever the buffered ones run out, and stages the batched
/// replies in its write buffer. Stops when the socket is drained, when
/// the connection must close, or when the unflushed replies exceed
/// [`MAX_FRAME`]: that throttles the connection, and the frames it sent
/// since wait where they are, so a client that never reads cannot grow
/// the server. Returns the number of frames served.
fn drain_and_handle(
    token: u64,
    conn: &mut Conn,
    scratch: &mut [u8],
    core: &mut ControlCore,
    now: Duration,
) -> u64 {
    let mut frames: u64 = 0;
    loop {
        while conn.unflushed() <= MAX_FRAME {
            let Some(range) = conn.frames.next_frame_range() else {
                break;
            };
            frames += 1;
            // Field-disjoint borrows: the frame bytes stay in
            // `conn.frames` (no per-frame copy) while the reply lands in
            // `conn.wbuf`.
            let wbuf = &mut conn.wbuf;
            let stage = |reply: &str| wbuf.extend_from_slice(reply.as_bytes());
            if !core.frame(token, conn.frames.frame_bytes(&range), now, stage) {
                conn.closing = true;
                break;
            }
        }
        if conn.closing {
            break;
        }
        if conn.unflushed() > MAX_FRAME {
            conn.throttled = true;
            break;
        }
        if conn.frames.pending() > MAX_FRAME {
            // An unbounded line: answer (no silent drops) and drop the
            // connection — the stream offset is unrecoverable.
            core.hot.malformed.incr();
            conn.wbuf.extend_from_slice(b"ERR malformed\n");
            conn.closing = true;
            break;
        }
        let eof = match conn.stream.read(scratch) {
            Ok(0) => true,
            Ok(n) => {
                conn.frames.extend(&scratch[..n]);
                false
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
            Err(_) => true,
        };
        if eof {
            // Mirror `BufReader::read_line` semantics: a final
            // unterminated line still gets served before the connection
            // closes.
            let residue = conn.frames.take_residue();
            if !residue.is_empty() {
                frames += 1;
                let wbuf = &mut conn.wbuf;
                core.frame(token, &residue, now, |reply| {
                    wbuf.extend_from_slice(reply.as_bytes())
                });
            }
            conn.closing = true;
            break;
        }
    }
    if conn.closing {
        // Nobody is left to hear a parked poll's reply.
        core.hang_up(token);
    }
    frames
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut fb = FrameBuffer::new();
        fb.extend(b"POLL 1");
        assert_eq!(fb.next_frame(), None, "no newline yet");
        fb.extend(b"234\nREG");
        assert_eq!(fb.next_frame().as_deref(), Some(&b"POLL 1234"[..]));
        assert_eq!(fb.next_frame(), None);
        fb.extend(b"ISTER 1 2\n\n");
        assert_eq!(fb.next_frame().as_deref(), Some(&b"REGISTER 1 2"[..]));
        assert_eq!(fb.next_frame().as_deref(), Some(&b""[..]));
        assert_eq!(fb.next_frame(), None);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buffer_residue_is_the_unterminated_tail() {
        let mut fb = FrameBuffer::new();
        fb.extend(b"BYE 7\nPOLL 9");
        assert_eq!(fb.next_frame().as_deref(), Some(&b"BYE 7"[..]));
        assert_eq!(fb.next_frame(), None);
        assert_eq!(fb.take_residue(), b"POLL 9");
        assert_eq!(fb.pending(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Feeding a pipelined multi-frame stream in arbitrary chunks
        /// reproduces exactly the original frames, regardless of where
        /// the read boundaries fall — the reactor's read path can never
        /// stall on or misparse a torn frame.
        #[test]
        fn frames_survive_arbitrary_split_boundaries(
            frames in prop::collection::vec("[ -~]{0,40}", 0..12),
            cuts in prop::collection::vec(any::<usize>(), 0..8),
        ) {
            let stream: Vec<u8> = frames
                .iter()
                .flat_map(|f| f.bytes().chain(std::iter::once(b'\n')))
                .collect();
            // Cut the stream at arbitrary (sorted, deduplicated) byte
            // positions and feed the chunks one by one.
            let mut positions: Vec<usize> =
                cuts.iter().map(|i| i % (stream.len() + 1)).collect();
            positions.push(stream.len());
            positions.sort_unstable();
            positions.dedup();
            let mut fb = FrameBuffer::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut prev = 0;
            for &at in &positions {
                fb.extend(&stream[prev..at]);
                prev = at;
                while let Some(frame) = fb.next_frame() {
                    got.push(frame);
                }
            }
            let want: Vec<Vec<u8>> = frames.iter().map(|f| f.as_bytes().to_vec()).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(fb.pending(), 0, "fully-terminated stream leaves no residue");
        }

        /// Interleaving reads and pops (pop-as-you-go rather than after
        /// the full stream) never duplicates or reorders frames, and the
        /// residue is exactly the unterminated tail.
        #[test]
        fn partial_tail_is_preserved_as_residue(
            head in prop::collection::vec("[ -~]{0,20}", 0..6),
            tail in "[ -~]{1,20}",
            chunk in 1usize..7,
        ) {
            let mut stream: Vec<u8> = head
                .iter()
                .flat_map(|f| f.bytes().chain(std::iter::once(b'\n')))
                .collect();
            stream.extend(tail.bytes()); // no trailing newline
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                fb.extend(piece);
                while let Some(frame) = fb.next_frame() {
                    got.push(frame);
                }
            }
            let want: Vec<Vec<u8>> = head.iter().map(|f| f.as_bytes().to_vec()).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(fb.take_residue(), tail.as_bytes().to_vec());
        }

        /// Any bytes at all, not only printable ASCII, through the
        /// zero-copy path the reactor reads frames with, split as a
        /// byte-by-byte reference splits them, wherever the reads end.
        /// One byte in `sparsity` is a newline; most others are bytes a
        /// word-at-a-time scan could mistake for one (`\v`, `\t`, `0x8a`,
        /// `0x00`, `0xff`).
        #[test]
        fn arbitrary_bytes_split_like_a_byte_scan(
            sparsity in 1usize..24,
            draws in prop::collection::vec((any::<usize>(), any::<u8>()), 0..256),
            cuts in prop::collection::vec(any::<usize>(), 0..8),
        ) {
            const NEIGHBOURS: [u8; 5] = [0x0b, 0x09, 0x8a, 0x00, 0xff];
            let stream: Vec<u8> = draws
                .iter()
                .map(|&(pick, byte)| match pick % sparsity {
                    0 => b'\n',
                    _ => NEIGHBOURS.get(pick / sparsity % 8).copied().unwrap_or(byte),
                })
                .collect();
            let mut positions: Vec<usize> =
                cuts.iter().map(|i| i % (stream.len() + 1)).collect();
            positions.push(stream.len());
            positions.sort_unstable();
            let mut fb = FrameBuffer::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut prev = 0;
            for &at in &positions {
                fb.extend(&stream[prev..at]);
                prev = at;
                while let Some(range) = fb.next_frame_range() {
                    got.push(fb.frame_bytes(&range).to_vec());
                }
            }
            let mut want: Vec<Vec<u8>> = Vec::new();
            let mut frame = Vec::new();
            for &b in &stream {
                match b {
                    b'\n' => want.push(std::mem::take(&mut frame)),
                    _ => frame.push(b),
                }
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(fb.take_residue(), frame);
        }
    }

    /// The reactor's socket tests, each run as `uds::tests::<name>`: the
    /// test ids they had when they lived there.
    #[cfg(target_os = "linux")]
    mod sockets {
        use super::*;
        use crate::uds::tests::{ask, client, server};
        use crate::{UdsServer, DEFAULT_IO_TIMEOUT};
        use std::io::{BufRead, BufReader};
        use std::time::Duration;

        /// A raw connection to the server at `path`, with the client's
        /// timeouts.
        fn connect(path: &std::path::Path) -> UnixStream {
            let stream = UnixStream::connect(path).expect("connect");
            stream
                .set_read_timeout(Some(DEFAULT_IO_TIMEOUT))
                .expect("timeout");
            stream
        }

        /// A window of frames in one write gets every reply, in order, and
        /// the reactor batches them: many frames per wakeup, one flush.
        pub(crate) fn reactor_serves_pipelined_bursts_in_order_and_batches() {
            let (path, server) = server("pipelined");
            let (mut stream, me) = (connect(&path), std::process::id());
            let burst: String = (1..=32)
                .map(|n| format!("REGISTER {me} {n}\nPOLL {me}\n"))
                .collect();
            stream.write_all(burst.as_bytes()).expect("send burst");
            let e = server.epoch();
            let want: String = (1..=32)
                .map(|n: u32| format!("OK {e}\nTARGET {} {e}\n", n.min(8)))
                .collect();
            let mut got = vec![0; want.len()];
            stream.read_exact(&mut got).expect("replies");
            assert_eq!(String::from_utf8_lossy(&got), want);
            let batched = server.stats().counters["frames_batched"];
            assert!(batched >= 1, "a 64-frame burst should batch: {batched}");
        }

        /// Frames trickled one byte at a time still parse; a client that
        /// disappears mid-frame does not wedge the loop for others.
        pub(crate) fn reactor_survives_torn_writes_and_half_closed_clients() {
            let (path, server) = server("torn");
            let (mut a, me, e) = (connect(&path), std::process::id(), server.epoch());
            for byte in format!("REGISTER {me} 16\nPOLL {me}\n").bytes() {
                a.write_all(&[byte]).expect("send byte");
            }
            let mut replies = BufReader::new(a);
            let mut line = String::new();
            for want in [format!("OK {e}\n"), format!("TARGET 8 {e}\n")] {
                line.clear();
                replies.read_line(&mut line).expect("reply");
                assert_eq!(line, want);
            }
            // A second client dies mid-frame (no newline, then EOF).
            connect(&path).write_all(b"POLL 91").expect("partial");
            let reply = ask(&mut client(&path), &format!("POLL {me}"));
            assert_eq!(reply, format!("TARGET 8 {e}"));
        }

        /// Writes `frame(0)`, `frame(1)`, … to `stream` without reading,
        /// until a write times out or `limit` bytes went out. Returns the
        /// bytes written.
        fn push_unread(
            stream: &mut UnixStream,
            frame: impl Fn(u64) -> String,
            limit: usize,
        ) -> usize {
            stream
                .set_write_timeout(Some(Duration::from_millis(200)))
                .expect("write timeout");
            let (mut sent, mut k, mut off) = (0, 0, 0);
            let mut chunk: Vec<u8> = Vec::new();
            while sent < limit {
                if off == chunk.len() {
                    (chunk, off) = (Vec::new(), 0);
                    while chunk.len() < 64 * 1024 {
                        chunk.extend_from_slice(frame(k).as_bytes());
                        k += 1;
                    }
                }
                match stream.write(&chunk[off..]) {
                    Ok(n) => (off, sent) = (off + n, sent + n),
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        break
                    }
                    Err(e) => panic!("write failed: {e}"),
                }
            }
            sent
        }

        /// The number of reactor wakeups in 300 ms, once the loop settled.
        fn idle_wakeups(server: &UdsServer) -> u64 {
            std::thread::sleep(Duration::from_millis(50));
            let before = server.stats().counters["reactor_wakeups"];
            std::thread::sleep(Duration::from_millis(300));
            server.stats().counters["reactor_wakeups"] - before
        }

        pub(crate) fn a_client_that_never_reads_is_throttled_then_answered_in_order() {
            let (path, server) = server("backpressure");
            let epoch = server.epoch();
            // Frame k is `REPORT 7 seq=<k/2>` for even k and `STATS 7` for
            // odd k, whose reply echoes the report: each reply names the
            // frame it answers.
            let frame = |k: u64| match k % 2 {
                0 => format!("REPORT 7 seq={}\n", k / 2),
                _ => "STATS 7\n".to_string(),
            };
            let reply = |k: u64| match k % 2 {
                0 => format!("OK {epoch}\n"),
                _ => format!("STATS seq={}\n", k / 2),
            };
            let mut stream = UnixStream::connect(&path).expect("connect");
            let sent = push_unread(&mut stream, frame, 64 << 20);
            let taken = sent >> 20;
            assert!(
                sent < 8 << 20,
                "the server took {taken} MiB from a client that reads nothing"
            );
            // Throttled, the connection is not watched for reading: its
            // unread bytes would otherwise end every wait at once.
            let spent = idle_wakeups(&server);
            assert!(spent < 30, "{spent} wakeups in 300 ms while throttled");

            // Every frame sent whole is answered, once, in order; the torn
            // one is answered once its tail arrives.
            let (mut whole, mut at) = (0u64, 0usize);
            while at + frame(whole).len() <= sent {
                at += frame(whole).len();
                whole += 1;
            }
            stream
                .set_read_timeout(Some(DEFAULT_IO_TIMEOUT))
                .expect("read timeout");
            let mut replies = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            for k in 0..whole {
                line.clear();
                replies.read_line(&mut line).expect("reply");
                assert_eq!(line, reply(k), "reply {k} of {whole}");
            }
            let torn = frame(whole);
            stream
                .write_all(&torn.as_bytes()[sent - at..])
                .expect("the torn frame's tail");
            line.clear();
            replies.read_line(&mut line).expect("reply");
            assert_eq!(line, reply(whole));
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("shutdown");
            line.clear();
            replies
                .read_to_string(&mut line)
                .expect("read until closed");
            assert_eq!(line, "", "replies beyond one per frame");
        }

        pub(crate) fn a_throttled_client_that_hangs_up_is_closed() {
            let (path, server) = server("backpressure-hangup");
            let mut stream = UnixStream::connect(&path).expect("connect");
            let sent = push_unread(&mut stream, |_| "STATS ALL\n".to_string(), 64 << 20);
            assert!(sent < 8 << 20, "{} MiB taken", sent >> 20);
            drop(stream);
            // A hang-up left unhandled would end every wait at once.
            let spent = idle_wakeups(&server);
            assert!(spent < 30, "{spent} wakeups in 300 ms after the hang-up");
            assert!(ask(&mut client(&path), "STATS").starts_with("STATS "));
        }
    }

    #[cfg(target_os = "linux")]
    pub(crate) use sockets::*;
}
