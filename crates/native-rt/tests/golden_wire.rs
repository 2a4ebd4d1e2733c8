//! Golden wire replies: one fixed transcript of request lines, answered
//! by the [`ControlCore`] the reactor drives, through the same calls in
//! the same order per wakeup (`frame` then `release` for a frame,
//! `expire` then `release` for a timer), under `weighted` with a
//! non-identity `cpu_order`, and compared byte for byte with the replies
//! of a known-good build
//! (`golden_wire.replies`; the first 350 lines were captured at fe9b03f,
//! before report weights were cached and CPU sets became ranges, and
//! line 350, the server's own `STATS`, has since gained keys; lines
//! 223–244 and the two `STATS` counter lines moved when a report came to
//! wait at most one lease for its `REGISTER`). The unit
//! tests pin what single replies mean; this pins that a change to how
//! the partition is *computed* moves none of them.
//!
//! The second part of the transcript drives parked polls (the wait form
//! of `POLL`) over several connections: a line of the capture is then
//! `@<conn> <reply>` for a reply written to connection `<conn>`,
//! `@<conn> PARKED` for a frame that got none yet, and `@due <n>` for a
//! timer wakeup that released `<n>` parks (their replies follow).
//!
//! The third part drains the journals with `TRACE` on connection 6: the
//! server's decision instants are stamped with the transcript's own
//! `now`, so they repeat byte for byte between the events the
//! applications pushed (appended after line 441, the lines above
//! unchanged).
//!
//! When a change moves a reply on purpose, re-capture with
//! `cargo test -p native-rt --test golden_wire -- --ignored print_golden --nocapture \
//!  | grep -E '^(OK|TARGET|ERR|STATS|@)' > crates/native-rt/tests/golden_wire.replies`
//! and say so in CHANGES.md.

use std::time::Duration;

use native_rt::{ControlCore, UdsServerConfig};

const EPOCH: u64 = 42;
const GOLDEN: &str = include_str!("golden_wire.replies");

/// One wakeup of the transcript.
enum Step {
    /// A request line arriving on a connection.
    Frame(u64, String),
    /// A timer wakeup: no frame, only what is due.
    Due,
    /// A connection closing.
    HangUp(u64),
}

/// The transcript: `(ms since the first frame, what happens)`.
fn transcript() -> Vec<(u64, Step)> {
    let mut t: Vec<(u64, Step)> = Vec::new();
    let mut at = 0u64;
    let mut say = |at: u64, line: &str| t.push((at, Step::Frame(0, line.to_string())));

    // Malformed and unregistered: every line still gets one reply.
    for line in [
        "",
        "   ",
        "NONSENSE",
        "POLL",
        "POLL x",
        "POLL 1 cpus extra",
        "POLL 1 sets",
        "REGISTER 1",
        "REGISTER 1 0",
        "REGISTER 1 9999999",
        "REGISTER 1 2 3",
        "BYE",
        "BYE 1 2",
        "REPORT",
        "REPORT x jobs_run=1",
        "STATS 1 2",
        "STATS x",
        "STATS ALL",
        "STATS ALL x",
        "POLL 7",
        "POLL 7 cpus",
        "STATS 7",
        "BYE 7",
    ] {
        say(at, line);
    }

    // A REPORT before its REGISTER still weighs once the pid registers.
    at += 10;
    for line in [
        "REPORT 100 jobs_run=900 steals=3",
        "STATS 100",
        "STATS ALL",
        "REGISTER 100 6",
        "POLL 100 cpus",
        "REGISTER 101 6",
        "POLL 100",
        "POLL 101",
        "POLL 100 cpus",
        "POLL 101 cpus",
        "STATS ALL",
    ] {
        say(at, line);
    }

    // Hostile jobs_run values against a fixed competitor (pid 100 at 900).
    for report in [
        "jobs_run=nan",
        "jobs_run=NaN",
        "jobs_run=inf",
        "jobs_run=-inf",
        "jobs_run=infinity",
        "jobs_run=-5",
        "jobs_run=-0",
        "jobs_run=1e400",
        "jobs_run=1e3",
        "jobs_run=+7",
        "jobs_run=0x10",
        "jobs_run=",
        "jobs_run",
        "",
        "steals=9 local_hits=4",
        "jobs_run=2700 jobs_run=1",
        "jobs_run=bad jobs_run=2700",
        "xjobs_run=5 jobs_run=2700",
        "JOBS_RUN=2700",
        "steals=1    jobs_run=899\tlocal_hits=2  ",
        "jobs_run=900",
    ] {
        at += 1;
        say(at, &format!("REPORT 101 {report}"));
        say(at, "POLL 100");
        say(at, "POLL 101 cpus");
        say(at, "STATS 101");
    }
    say(at, "STATS ALL");

    // Both infinite: the water-fill divides inf by inf.
    at += 1;
    say(at, "REPORT 100 jobs_run=inf");
    say(at, "REPORT 101 jobs_run=1e999");
    say(at, "POLL 100 cpus");
    say(at, "POLL 101 cpus");
    say(at, "REPORT 100 jobs_run=900 steals=3");
    say(at, "REPORT 101 jobs_run=300");

    // A re-REGISTER adopts the new worker count and keeps the weight.
    at += 5;
    for line in [
        "REGISTER 100 2",
        "POLL 100 cpus",
        "POLL 101 cpus",
        "REGISTER 100 16",
        "POLL 100 cpus",
        "POLL 101 cpus",
        "STATS ALL",
    ] {
        say(at, line);
    }

    // More applications than processors: the floor of one oversubscribes
    // and the sets wrap around the order.
    at += 5;
    for pid in 200..211 {
        say(at, &format!("REGISTER {pid} {}", 1 + pid % 3));
    }
    for pid in (200..211).chain([100, 101]) {
        say(at, &format!("POLL {pid} cpus"));
    }
    say(at, "STATS ALL");
    for pid in 203..211 {
        say(at, &format!("BYE {pid}"));
    }
    say(at, "REPORT 201 jobs_run=5000");
    say(at, "REPORT 202 jobs_run=10");
    for pid in [100, 101, 200, 201, 202] {
        say(at, &format!("POLL {pid} cpus"));
    }

    // BYE drops the report with the registration: the pid comes back at
    // weight 1.0. A BYE also drops the report of a pid never registered.
    at += 5;
    for line in [
        "BYE 201",
        "STATS 201",
        "REGISTER 201 3",
        "POLL 201 cpus",
        "POLL 100 cpus",
        "REPORT 999 jobs_run=77",
        "STATS 999",
        "BYE 999",
        "STATS 999",
        "STATS ALL",
    ] {
        say(at, line);
    }

    // Leases (30 s): 100 and 200 keep polling, 202 only reports, the rest
    // fall silent and expire; an expired pid must register again.
    for (ms, line) in [
        (20_000, "POLL 100"),
        (20_000, "POLL 200 cpus"),
        (25_000, "REPORT 202 jobs_run=20"),
        (29_000, "STATS ALL"),
        (31_000, "STATS ALL"),
        (31_000, "POLL 101"),
        (31_000, "POLL 201 cpus"),
        (31_000, "POLL 100 cpus"),
        (31_000, "STATS 101"),
        (31_500, "REGISTER 101 6"),
        (31_500, "POLL 101 cpus"),
        (49_000, "POLL 101"),
        (52_000, "STATS ALL"),
        (56_000, "POLL 202"),
        (56_000, "POLL 100"),
        (56_000, "STATS ALL"),
    ] {
        say(at + ms, line);
    }
    at += 60_000;

    // A seeded mix over six pids (fewer than processors, so most
    // recomputes water-fill by weight), arrivals up to 4 s apart so a
    // lease lapses here and there.
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = |bound: u64| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % bound
    };
    for _ in 0..150 {
        at += next(4_000);
        let pid = 300 + next(6);
        let line = match next(16) {
            0..=2 => format!("REGISTER {pid} {}", 1 + next(9)),
            3 => format!("BYE {pid}"),
            4..=6 => format!("REPORT {pid} jobs_run={} steals={}", next(5_000), next(50)),
            7..=10 => format!("POLL {pid}"),
            11..=13 => format!("POLL {pid} cpus"),
            14 => format!("STATS {pid}"),
            _ => "STATS ALL".to_string(),
        };
        say(at, &line);
    }
    say(at, "STATS ALL");
    // The server's own counters: how many recomputes were coalesced, how
    // many leases expired, how many timers fired.
    say(at, "STATS");
    let at = parked_polls(&mut t, at + 1_000);
    traces(&mut t, at + 1_000);
    t
}

/// The parked-poll part: connection 1 polls for pid 400, 3 for 401, 4
/// and 5 for 411; connection 2 is everybody else.
fn parked_polls(t: &mut Vec<(u64, Step)>, mut at: u64) -> u64 {
    fn on(t: &mut Vec<(u64, Step)>, at: u64, conn: u64, line: &str) {
        t.push((at, Step::Frame(conn, line.to_string())));
    }
    // Whoever the seeded mix left registered goes first.
    for pid in 300..306 {
        on(t, at, 2, &format!("BYE {pid}"));
    }
    on(t, at, 2, "STATS ALL");

    // Heard something else, heard it from another server, or not
    // registered: answered at once, like a plain poll.
    on(t, at, 1, "REGISTER 400 8");
    on(t, at, 1, "POLL 400");
    on(t, at, 1, "POLL 400 wait 1000 7 42");
    on(t, at, 1, "POLL 400 wait 1000 8 41");
    on(t, at, 1, "POLL 499 wait 1000 1 42");
    on(t, at, 1, "POLL 400 cpus wait 1000 8 42 cpus=0-6");

    // Heard exactly this: parked, and released by a REGISTER that halves
    // the share — after the REGISTER's own OK.
    on(t, at, 1, "POLL 400 wait 1000 8 42");
    on(t, at, 2, "REGISTER 401 8");
    on(t, at, 3, "POLL 401 cpus");

    // Two parks (one in the cpus form), released together by a third
    // application arriving, then by its BYE.
    at += 10;
    on(t, at, 1, "POLL 400 wait 1000 4 42");
    on(t, at, 3, "POLL 401 cpus wait 1000 4 42 cpus=2-3,6-7");
    on(t, at, 2, "REGISTER 402 8");
    on(t, at, 1, "POLL 400 wait 1000 3 42");
    on(t, at, 3, "POLL 401 cpus wait 1000 3 42 cpus=2,5-6");
    on(t, at, 2, "BYE 402");

    // ... and by a REPORT that moves the weights.
    at += 10;
    on(t, at, 1, "POLL 400 wait 1000 4 42");
    on(t, at, 3, "POLL 401 cpus wait 1000 4 42 cpus=2-3,6-7");
    on(t, at, 2, "REPORT 401 jobs_run=3000");
    on(t, at, 2, "REPORT 401 jobs_run=0");

    // A hold is at most half a lease (15 s of the 20 s asked for); the
    // release refreshes the lease, so pollers that stay parked never
    // expire, and the lease of one that fell silent (403) releases them.
    at += 10;
    on(t, at, 2, "REGISTER 403 8");
    on(t, at + 100, 1, "POLL 400 wait 20000 3 42");
    on(t, at + 100, 3, "POLL 401 cpus wait 20000 3 42 cpus=2,5-6");
    t.push((at + 15_000, Step::Due));
    t.push((at + 15_100, Step::Due));
    on(t, at + 15_200, 1, "POLL 400 wait 20000 3 42");
    on(
        t,
        at + 15_200,
        3,
        "POLL 401 cpus wait 20000 3 42 cpus=2,5-6",
    );
    t.push((at + 29_999, Step::Due));
    t.push((at + 30_000, Step::Due));
    at += 31_000;

    // The hold running out, to the millisecond.
    on(t, at, 1, "POLL 400 wait 500 4 42");
    t.push((at + 499, Step::Due));
    t.push((at + 500, Step::Due));

    // The parked pid itself departs (somebody's BYE) or expires (the
    // server stalled past a whole lease): it must register again.
    at += 1_000;
    on(t, at, 1, "POLL 400 wait 1000 4 42");
    on(t, at, 3, "POLL 401 cpus wait 20000 4 42 cpus=2-3,6-7");
    on(t, at, 2, "BYE 400");
    on(t, at, 3, "POLL 401 cpus wait 20000 8 42 cpus=0-7");
    t.push((at + 31_000, Step::Due));
    on(t, at + 31_000, 2, "STATS ALL");
    at += 32_000;

    // A range that shifts under an unchanged count releases the cpus
    // form and not the count form.
    on(t, at, 2, "REGISTER 410 3");
    on(t, at, 2, "REGISTER 411 2");
    on(t, at, 4, "POLL 411 cpus");
    on(t, at, 4, "POLL 411 cpus wait 1000 2 42 cpus=2,5");
    on(t, at, 5, "POLL 411 wait 1000 2 42");
    on(t, at, 2, "REGISTER 410 1");
    t.push((at + 1_000, Step::Due));

    // A later frame on a parked connection releases the park first; a
    // connection that closes while parked is owed nothing.
    at += 2_000;
    on(t, at, 4, "POLL 411 cpus wait 1000 2 42 cpus=1,4");
    on(t, at, 4, "STATS 411");
    on(t, at, 5, "POLL 411 wait 1000 2 42");
    t.push((at, Step::HangUp(5)));
    t.push((at + 1_000, Step::Due));

    // Malformed wait suffixes.
    at += 2_000;
    for line in [
        "POLL 411 wait",
        "POLL 411 wait 1000",
        "POLL 411 wait 1000 2",
        "POLL 411 wait x 2 42",
        "POLL 411 wait -5 2 42",
        "POLL 411 wait 1000 two 42",
        "POLL 411 wait 1000 2 42 extra",
        "POLL 411 wait 1000 2 42 cpus=1,4",
        "POLL 411 waits 1000 2 42",
        "POLL x wait 1000 2 42",
        "POLL 411 cpus wait",
        "POLL 411 cpus wait 1000 2 42",
        "POLL 411 cpus wait 1000 2 42 1,4",
        "POLL 411 cpus wait 1000 2 42 cpus=x",
        "POLL 411 cpus wait 1000 2 42 cpus=4-1",
        "POLL 411 cpus wait 1000 2 42 cpus=1,4 extra",
        "POLL 411 cpus hold 1000 2 42 cpus=1,4",
    ] {
        on(t, at, 4, line);
    }
    // How many parked, and how each park ended.
    on(t, at, 2, "STATS");
    at
}

/// The journal part: what the parked polls journaled for pid 411, then a
/// fresh pid whose decisions interleave with the events it pushes.
fn traces(t: &mut Vec<(u64, Step)>, at: u64) {
    for (ms, line) in [
        (0, "TRACE 411 3"),
        (0, "TRACE 411"),
        (0, "TRACE 410 0"),
        (0, "REGISTER 420 4"),
        (1, "POLL 420"),
        (2, "EVENTS 420 5:js:0:1,6:je:0:1"),
        (3, "REGISTER 421 8"),
        (4, "POLL 420 cpus"),
        (5, "EVENTS 420 7:pk:1:0"),
        (6, "POLL 420"),
        (7, "TRACE 420 2"),
        (8, "TRACE 420"),
        (8, "TRACE 420"),
        (9, "TRACE 999"),
        (9, "EVENTS 999 1:js:0:0"),
        (9, "BYE 420"),
        (9, "TRACE 420"),
    ] {
        t.push((at + ms, Step::Frame(6, line.to_string())));
    }
}

/// Every line the transcript makes the server write, each with the step
/// that caused it.
fn replies() -> Vec<(String, String)> {
    let mut cfg = UdsServerConfig::new("/nonexistent", 8);
    cfg.weighted = true;
    cfg.cpu_order = Some(vec![0, 4, 1, 5, 2, 6, 3, 7]);
    let mut core = ControlCore::new(cfg, EPOCH);
    // Connection 0 is the first part's only one, captured bare.
    let tag = |conn: u64, reply: &str| match conn {
        0 => reply.to_string(),
        _ => format!("@{conn} {reply}"),
    };
    let mut out = Vec::new();
    for (ms, step) in transcript() {
        let now = Duration::from_millis(ms);
        match step {
            Step::Frame(conn, line) => {
                let mut lines = Vec::new();
                core.frame(conn, line.as_bytes(), now, |r| lines.push(tag(conn, r)));
                core.release(now, |c, r| lines.push(tag(c, r)));
                if core.is_parked(conn) {
                    lines.push(format!("@{conn} PARKED\n"));
                }
                out.extend(lines.into_iter().map(|l| (line.clone(), l)));
            }
            Step::Due => {
                let mut released = Vec::new();
                core.expire(now);
                core.release(now, |c, r| released.push(tag(c, r)));
                let what = format!("due at {ms} ms");
                out.push((what.clone(), format!("@due {}\n", released.len())));
                out.extend(released.into_iter().map(|r| (what.clone(), r)));
            }
            Step::HangUp(conn) => core.hang_up(conn),
        }
    }
    out
}

#[test]
fn replies_match_the_captured_build_byte_for_byte() {
    let got = replies();
    let want: Vec<&str> = GOLDEN.split_inclusive('\n').collect();
    for (i, ((step, reply), want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(reply, want, "line {i}: what {step:?} wrote moved");
    }
    assert_eq!(
        got.len(),
        want.len(),
        "transcript and capture differ in length"
    );
    assert!(got.len() >= 400, "transcript shrank to {} lines", got.len());
}

#[test]
#[ignore] // prints the replies for re-capture; see the module docs
fn print_golden() {
    println!(); // end the harness's own "test print_golden ... " line
    for (_, reply) in replies() {
        print!("{reply}");
    }
}
