//! Runs one program invocation and measures it from outside with `wait4`:
//! wall time around spawn-to-reap, and the kernel's resource usage of the
//! reaped process *and the descendants it waited for* (so a campaign
//! leader's figures include its peer workers).

use std::io;
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// Longest one invocation may run before it is killed and counted as a
/// failed op (it then has no exit code). Ops take well under a second; the
/// limit is there because a damaged input has made the program run away.
pub const LIMIT: Duration = Duration::from_secs(60);

/// What one finished invocation cost.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    pub wall_s: f64,
    /// User plus system time of the process tree.
    pub cpu_s: f64,
    /// `ru_maxrss` of the largest process in the tree. The kernel seeds a
    /// child's high-water mark from its parent's, so the caller must stay
    /// smaller than what it measures.
    pub peak_rss_bytes: u64,
}

/// Spawns `cmd` as the leader of a process group of its own, waits for it
/// with `wait4` and returns its cost. A process still running after
/// `limit` is killed together with its group.
pub fn run(cmd: &mut Command, limit: Duration) -> io::Result<Exit> {
    let start = Instant::now();
    let child = cmd.process_group(0).spawn()?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // The watchdog may only signal while the child is unreaped: after the
    // reap its pid can belong to someone else.
    let reaped = Mutex::new(false);
    let (done, watch) = std::sync::mpsc::channel::<()>();
    let reap = std::thread::scope(|scope| {
        let reaped = &reaped;
        scope.spawn(move || {
            // Times out when the limit passes, errs at once when `done` drops.
            if watch.recv_timeout(limit) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
                let reaped = reaped
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if !*reaped {
                    // SAFETY: a plain system call; `pid` is our own child and
                    // has not been reaped, so `-pid` names its group alone.
                    unsafe { kill(-pid, SIGKILL) };
                }
            }
        });
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (see `Rusage`); the pid is a child of this
        // process that nothing else reaps — `child` is never waited on
        // through std.
        let reap = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        *reaped
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        drop(done);
        reap
    });
    let wall_s = start.elapsed().as_secs_f64();
    if reap < 0 {
        return Err(io::Error::last_os_error());
    }
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Ok(Exit {
        // WIFEXITED / WEXITSTATUS.
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        wall_s,
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        peak_rss_bytes: usage.ru_maxrss.max(0) as u64 * 1024,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_and_nonzero_cost() {
        let exit = run(Command::new("sh").args(["-c", "exit 7"]), LIMIT).unwrap();
        assert_eq!(exit.code, Some(7));
        assert!(exit.wall_s > 0.0);
        assert!(exit.peak_rss_bytes > 0);
    }

    #[test]
    fn a_signalled_process_has_no_code() {
        let exit = run(Command::new("sh").args(["-c", "kill -9 $$"]), LIMIT).unwrap();
        assert_eq!(exit.code, None);
    }

    #[test]
    fn a_runaway_process_is_killed_at_the_limit() {
        let exit = run(Command::new("sleep").arg("30"), Duration::from_millis(100)).unwrap();
        assert_eq!(exit.code, None);
        assert!(exit.wall_s < 10.0, "wall_s = {}", exit.wall_s);
    }

    #[test]
    fn cpu_time_includes_waited_for_descendants() {
        // The shell itself does nothing; its child burns the CPU.
        let script = "sh -c 'i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done'; exit 0";
        let exit = run(Command::new("sh").args(["-c", script]), LIMIT).unwrap();
        assert_eq!(exit.code, Some(0));
        assert!(exit.cpu_s > 0.01, "cpu_s = {}", exit.cpu_s);
    }
}
