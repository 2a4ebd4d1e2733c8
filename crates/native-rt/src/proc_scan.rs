//! `/proc`-based process inspection — the native analog of UMAX's
//! "system call for determining information about the runnable processes
//! in the system" (`rpstat`).
//!
//! One function, [`sample`]: what the control server's core takes in
//! every `SAMPLE_PERIOD`. Linux-only; elsewhere it returns
//! [`std::io::ErrorKind::Unsupported`], so no caller can mistake an
//! unreadable `/proc` for every process having died.

use std::io;

use crate::Sample;

/// One `rpstat`, from one walk of `/proc`: which of the `registered` pids
/// no longer exist and — when `count_runnable` — how many runnable ('R'
/// state) threads the other processes have, the server's own excluded:
/// what the paper calls "the number of runnable processes not belonging
/// to controllable applications".
#[cfg(target_os = "linux")]
pub fn sample(registered: &[u32], count_runnable: bool) -> io::Result<Sample> {
    let mut pids = registered.to_vec();
    pids.sort_unstable();
    pids.dedup();
    let (me, mut alive) = (std::process::id(), vec![false; pids.len()]);
    let mut runnable_excluding = 0;
    for entry in std::fs::read_dir("/proc")? {
        let name = entry?.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        match pids.binary_search(&pid) {
            Ok(i) => alive[i] = true,
            // A process that exits mid-walk counts as nothing.
            Err(_) if count_runnable && pid != me => {
                runnable_excluding += runnable_threads(pid).unwrap_or(0);
            }
            Err(_) => {}
        }
    }
    let dead_pids = pids.iter().zip(&alive).filter(|(_, &a)| !a);
    Ok(Sample {
        runnable_excluding,
        dead_pids: dead_pids.map(|(&pid, _)| pid).collect(),
    })
}

/// Unsupported on this platform.
#[cfg(not(target_os = "linux"))]
pub fn sample(_registered: &[u32], _count_runnable: bool) -> io::Result<Sample> {
    Err(io::Error::from(io::ErrorKind::Unsupported))
}

/// Number of runnable ('R' state) threads of process `pid`, from
/// `/proc/<pid>/task/*/stat`.
#[cfg(target_os = "linux")]
fn runnable_threads(pid: u32) -> io::Result<u32> {
    let dir = format!("/proc/{pid}/task");
    let mut count = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let stat_path = entry.path().join("stat");
        match std::fs::read_to_string(&stat_path) {
            Ok(stat) => {
                if parse_stat_state(&stat) == Some('R') {
                    count += 1;
                }
            }
            // Threads exit between readdir and read; skip them.
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(count)
}

/// Extracts the state field (third, after the parenthesized comm which may
/// itself contain spaces and parentheses) from a `/proc/*/stat` line.
fn parse_stat_state(stat: &str) -> Option<char> {
    let after_comm = stat.rfind(')')?;
    stat[after_comm + 1..]
        .split_whitespace()
        .next()?
        .chars()
        .next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_state_simple() {
        assert_eq!(parse_stat_state("123 (bash) S 1 123"), Some('S'));
        assert_eq!(parse_stat_state("9 (kworker/0:1) R 2 0"), Some('R'));
    }

    #[test]
    fn parse_state_with_evil_comm() {
        // comm may contain spaces and parens: ") R" inside must not fool us.
        assert_eq!(parse_stat_state("7 (a) R (b) x) Z 1 7"), Some('Z'));
        assert_eq!(parse_stat_state("8 (fn (x y)) R 1 8"), Some('R'));
    }

    #[test]
    fn parse_state_malformed() {
        assert_eq!(parse_stat_state("no parens here"), None);
        assert_eq!(parse_stat_state("1 (x)"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn own_process_is_visible() {
        let me = std::process::id();
        let sampled = sample(&[me], false).expect("read /proc");
        assert_eq!(sampled.dead_pids, []);
        // A busy-spinning thread guarantees at least one R state.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let s2 = stop.clone();
        let h = std::thread::spawn(move || {
            while !s2.load(std::sync::atomic::Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        // Sample a few times; at least one sample must see a runnable
        // thread (the spinner, or this thread itself while on-CPU).
        let mut saw_runnable = false;
        for _ in 0..50 {
            if runnable_threads(me).expect("read own /proc") >= 1 {
                saw_runnable = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        h.join().expect("spinner joins");
        assert!(saw_runnable, "never observed a runnable thread in self");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn nonexistent_process_reported() {
        // Pid 0 has no /proc entry on Linux; a registered pid may be
        // named twice, and is reported dead once.
        let sampled = sample(&[0, std::process::id(), 0], true).expect("read /proc");
        assert_eq!(sampled.dead_pids, [0]);
        assert!(runnable_threads(0).is_err());
    }
}
