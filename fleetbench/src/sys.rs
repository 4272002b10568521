//! The operating-system calls the standard library does not offer.
//!
//! * [`readable`]: a socket read timeout (`SO_RCVTIMEO`, what
//!   `set_read_timeout` sets) expires on the kernel's scheduler tick,
//!   which made the load generator up to 8 ms late; `ppoll` sleeps on a
//!   high-resolution timer.
//! * [`pin_to_one_cpu`]: the benchmark and the daemons it starts share
//!   one CPU. The 2-vCPU host delivers about one CPU of work in total
//!   (two spinning threads each run at half speed), and requests that
//!   hopped between vCPUs paid for waking an idle one. Over five
//!   alternating pairs of runs, the spread of `p50_ms` across runs was
//!   2.0 % pinned against 6.4 % unpinned on `aged_storm`, and that of
//!   `p99_ms` 3.6 % against 23 % on `wire_small`.
//! * [`keep_cpu_awake`]: a lowest-priority thread spins on that CPU so it
//!   never idles. Waking an idle vCPU cost about 0.1 ms, which the host
//!   charged to every paced request at random: over alternating pairs of
//!   runs, `epoch_churn`'s `p50_ms` fell from 0.17 to 0.087 ms and its
//!   spread from 12 % to 7 %. The spinner runs only when nothing else on
//!   the CPU wants to, so it takes no measurable time from the daemon
//!   (`max_rps` moved by under 1 %).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the declarations below match 64-bit Linux only");

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [c_ulong; 16];

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

const SCHED_IDLE: c_int = 5;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
}

/// Whether `stream` has bytes (or end of stream) to read within
/// `timeout`. An interrupted wait reads as "not yet".
///
/// # Errors
///
/// Any other `ppoll` failure.
pub fn readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly aligned `#[repr(C)]`
    // values matching `struct pollfd` and `struct timespec` on 64-bit
    // Linux, `nfds` is 1 for the one `pollfd`, a null sigmask leaves the
    // signal mask alone, and the descriptor stays open because `stream` is
    // borrowed for the whole call.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if ready < 0 {
        let err = std::io::Error::last_os_error();
        return if err.kind() == std::io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(err)
        };
    }
    Ok(ready > 0)
}

/// Restricts the calling thread, and every thread and process it starts
/// from now on, to the highest-numbered CPU it may run on. Returns that
/// CPU.
///
/// # Errors
///
/// When the affinity mask cannot be read or set.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable `cpu_set_t`-sized buffer and
    // the size passed is exactly its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let bits = c_ulong::BITS as usize;
    let cpu = (0..allowed.len() * bits)
        .rev()
        .find(|&cpu| allowed[cpu / bits] & (1 << (cpu % bits)) != 0)
        .ok_or_else(|| std::io::Error::other("no CPU in the affinity mask"))?;
    let mut only: CpuSet = [0; 16];
    only[cpu / bits] = 1 << (cpu % bits);
    // SAFETY: `only` is a live `cpu_set_t`-sized buffer, the size passed
    // is exactly its size, and pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Moves the calling thread to `SCHED_IDLE`, reports whether that worked
/// on `ready`, and if it did, spins until `stop` is set.
pub fn keep_cpu_awake(stop: &AtomicBool, ready: &Sender<std::io::Result<()>>) {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param` for the duration of
    // the call, and pid 0 names the calling thread.
    let idle = if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    };
    let spin = idle.is_ok();
    drop(ready.send(idle));
    // Never spin at normal priority: that would take the CPU from the
    // daemon instead of only filling its idle time.
    if spin {
        while !stop.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
    }
}
