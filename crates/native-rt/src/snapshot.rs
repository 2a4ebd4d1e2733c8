//! Crash-recoverable server state: a versioned, checksummed snapshot
//! codec for [`UdsServer`](crate::UdsServer) registrations.
//!
//! Tucker & Gupta's centralized server keeps every registration and
//! partition decision in memory: a crash (or a deliberate restart)
//! forgets the whole fleet, and every client must notice the epoch
//! change and re-register — a re-registration storm exactly when the
//! machine is busiest. The snapshot closes that gap: the server
//! periodically serializes its registrations (pids, worker counts,
//! remaining lease time), latest `REPORT` lines, and boot epoch to a
//! small text file, atomically (`tmp` + `rename`), and a restarted
//! server restores it at boot — clients keep polling as if nothing
//! happened, and the new boot epoch is chosen *greater* than the
//! snapshotted one so epoch monotonicity survives the crash.
//!
//! The format is deliberately line-text (like the wire protocol, like
//! the stats rendering) and self-verifying:
//!
//! ```text
//! PROCCTL-SNAPSHOT v1
//! epoch <u64>
//! app <pid> <nworkers> <lease_remaining_ms>
//! report <pid> <latest report line>
//! end <fnv1a-64 hex of everything above>
//! ```
//!
//! Decoding is total and conservative: a truncated file, a checksum
//! mismatch, an unknown keyword, or a future version all reject cleanly
//! ([`SnapshotError`]) and the server cold-starts — restoring *nothing*
//! is always safe (clients re-register, as they always could), while
//! restoring corrupt state never is. Journals are deliberately not
//! snapshotted: `TRACE` drains are destructive reads of a bounded ring,
//! and replaying stale events after a restart would corrupt the merged
//! timeline — the journal truncates, the epoch tells the merge tooling
//! why.

use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;

/// The codec version this build writes (and the only one it reads).
pub const SNAPSHOT_VERSION: u32 = 1;

/// One registered application as persisted: identity, declared
/// parallelism, and how much of its lease was left at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotApp {
    /// The application's registered pid.
    pub pid: u32,
    /// The worker count it registered with.
    pub nworkers: u32,
    /// Lease time remaining at the instant the snapshot was taken; the
    /// restoring server re-arms the lease with this much left, so a
    /// crash-and-restart cannot extend a wedged client's tenure.
    pub lease_remaining: Duration,
}

/// A point-in-time serialization of the server's recoverable state.
///
/// `apps` preserves *registration order* — the partition is computed in
/// registration order, so restoring in the same order reproduces the
/// same CPU-set slices clients were already told about.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// The snapshotting server's boot epoch. A restoring server picks
    /// `max(fresh_epoch, epoch + 1)` so epochs stay monotone across
    /// crash/restart cycles.
    pub epoch: u64,
    /// Registered applications, in registration (= partition) order.
    pub apps: Vec<SnapshotApp>,
    /// Latest `REPORT` line per pid (newline-free by wire construction).
    pub reports: Vec<(u32, String)>,
}

/// Why a snapshot file was rejected (the server then cold-starts).
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read at all. `NotFound` is the ordinary
    /// first-boot case, not corruption.
    Io(io::Error),
    /// The header names a version this build does not speak.
    BadVersion(u32),
    /// The trailer checksum does not match the body: torn write or
    /// on-disk corruption.
    BadChecksum,
    /// The trailer line is missing or incomplete: the file was cut off
    /// mid-write (and the atomic rename never happened, or the disk
    /// lied about durability).
    Truncated,
    /// The body parsed as text but violates the format.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadVersion(v) => write!(f, "snapshot version v{v} is unsupported"),
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot truncated (no trailer)"),
            SnapshotError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty for
/// torn-write detection (this is an integrity check, not a MAC: the
/// snapshot file trusts its directory permissions like the socket
/// does).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl ServerSnapshot {
    /// Renders the snapshot as its on-disk text, trailer included.
    /// Report lines containing a newline (impossible via the wire, which
    /// rejects them) are skipped rather than corrupting the framing.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("PROCCTL-SNAPSHOT v1\n");
        out.push_str(&format!("epoch {}\n", self.epoch));
        for a in &self.apps {
            out.push_str(&format!(
                "app {} {} {}\n",
                a.pid,
                a.nworkers,
                a.lease_remaining.as_millis()
            ));
        }
        for (pid, line) in &self.reports {
            if line.contains('\n') {
                continue;
            }
            out.push_str(&format!("report {pid} {line}\n"));
        }
        out.push_str(&format!("end {:016x}\n", fnv1a(out.as_bytes())));
        out
    }

    /// Parses on-disk text back into a snapshot, verifying the trailer
    /// checksum *before* interpreting the body: corruption is reported
    /// as [`SnapshotError::BadChecksum`] even when it happens to parse.
    pub fn decode(text: &str) -> Result<ServerSnapshot, SnapshotError> {
        // The trailer must be the final, newline-terminated line. A file
        // cut anywhere — mid-body, mid-trailer, before the trailing
        // newline — is Truncated, never a partial restore.
        let Some(body_len) = text
            .strip_suffix('\n')
            .and_then(|t| t.rfind('\n').map(|i| i + 1))
        else {
            return Err(SnapshotError::Truncated);
        };
        let trailer = text[body_len..].trim_end_matches('\n');
        let Some(sum_hex) = trailer.strip_prefix("end ") else {
            return Err(SnapshotError::Truncated);
        };
        let Ok(sum) = u64::from_str_radix(sum_hex.trim(), 16) else {
            return Err(SnapshotError::Truncated);
        };
        if sum != fnv1a(&text.as_bytes()[..body_len]) {
            return Err(SnapshotError::BadChecksum);
        }

        let mut lines = text[..body_len].lines();
        let header = lines.next().unwrap_or_default();
        let version = header
            .strip_prefix("PROCCTL-SNAPSHOT v")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| SnapshotError::Malformed(format!("bad header {header:?}")))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }

        let mut snap = ServerSnapshot::default();
        for line in lines {
            let mut fields = line.splitn(2, ' ');
            let keyword = fields.next().unwrap_or_default();
            let rest = fields.next().unwrap_or_default();
            match keyword {
                "epoch" => {
                    snap.epoch = rest
                        .parse()
                        .map_err(|_| SnapshotError::Malformed(format!("bad epoch {rest:?}")))?;
                }
                "app" => {
                    let mut f = rest.split_whitespace();
                    let parsed = (
                        f.next().and_then(|v| v.parse::<u32>().ok()),
                        f.next().and_then(|v| v.parse::<u32>().ok()),
                        f.next().and_then(|v| v.parse::<u64>().ok()),
                    );
                    let ((Some(pid), Some(nworkers), Some(ms)), None) = (parsed, f.next()) else {
                        return Err(SnapshotError::Malformed(format!("bad app line {line:?}")));
                    };
                    snap.apps.push(SnapshotApp {
                        pid,
                        nworkers,
                        lease_remaining: Duration::from_millis(ms),
                    });
                }
                "report" => {
                    let mut f = rest.splitn(2, ' ');
                    let Some(pid) = f.next().and_then(|v| v.parse::<u32>().ok()) else {
                        return Err(SnapshotError::Malformed(format!(
                            "bad report line {line:?}"
                        )));
                    };
                    snap.reports
                        .push((pid, f.next().unwrap_or_default().to_string()));
                }
                other => {
                    return Err(SnapshotError::Malformed(format!(
                        "unknown keyword {other:?}"
                    )));
                }
            }
        }
        Ok(snap)
    }

    /// Writes the snapshot to `path` atomically: the full rendering goes
    /// to a sibling `.tmp` file, is fsynced, and renamed over `path` —
    /// a reader (or a restarting server) sees either the old complete
    /// snapshot or the new complete snapshot, never a torn mix. The
    /// directory is fsynced after the rename, so a power loss cannot
    /// undo it.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.encode().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()
    }

    /// Loads and decodes the snapshot at `path`. A missing file surfaces
    /// as `Io(NotFound)` — the ordinary first-boot case the caller
    /// should treat as "nothing to restore", distinct from the
    /// corruption variants it should count as `snapshot_rejected`.
    pub fn load(path: &Path) -> Result<ServerSnapshot, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(SnapshotError::Io)?;
        ServerSnapshot::decode(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> ServerSnapshot {
        ServerSnapshot {
            epoch: 0xDEAD_BEEF_1234_5677,
            apps: vec![
                SnapshotApp {
                    pid: 41,
                    nworkers: 8,
                    lease_remaining: Duration::from_millis(12_345),
                },
                SnapshotApp {
                    pid: 9_999_999,
                    nworkers: 1,
                    lease_remaining: Duration::ZERO,
                },
            ],
            reports: vec![
                (41, "jobs_run=100 steals=7".to_string()),
                (9_999_999, String::new()),
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let snap = sample();
        let decoded = ServerSnapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn file_round_trip_is_atomic_and_loadable() {
        let path = std::env::temp_dir().join(format!("procctl-snap-{}.test", std::process::id()));
        let snap = sample();
        snap.write_atomic(&path).expect("write");
        assert_eq!(ServerSnapshot::load(&path).expect("load"), snap);
        // Overwrite-in-place (the periodic path) keeps working.
        let mut snap2 = snap.clone();
        snap2.epoch += 1;
        snap2.write_atomic(&path).expect("rewrite");
        assert_eq!(ServerSnapshot::load(&path).expect("reload"), snap2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_not_found() {
        let err = ServerSnapshot::load(Path::new("/nonexistent/procctl.snap"))
            .expect_err("must not load");
        match err {
            SnapshotError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_rejected_cleanly() {
        // A well-formed v2 file with a *valid* checksum: the version
        // gate must fire, not the checksum or parser.
        let mut body = String::from("PROCCTL-SNAPSHOT v2\nepoch 7\n");
        let sum = super::fnv1a(body.as_bytes());
        body.push_str(&format!("end {sum:016x}\n"));
        match ServerSnapshot::decode(&body) {
            Err(SnapshotError::BadVersion(2)) => {}
            other => panic!("expected BadVersion(2), got {other:?}"),
        }
    }

    #[test]
    fn flipped_body_byte_is_a_checksum_mismatch() {
        let text = sample().encode();
        let mut bytes = text.clone().into_bytes();
        // Flip a digit inside the epoch line: still parses as text,
        // still structurally valid — only the checksum can catch it.
        let at = text.find("epoch ").expect("epoch line") + "epoch ".len();
        bytes[at] = if bytes[at] == b'9' { b'8' } else { b'9' };
        let corrupt = String::from_utf8(bytes).expect("ascii");
        match ServerSnapshot::decode(&corrupt) {
            Err(SnapshotError::BadChecksum) => {}
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary snapshots survive encode → decode bit-exactly.
        #[test]
        fn prop_round_trip(
            epoch in any::<u64>(),
            apps in prop::collection::vec((any::<u32>(), any::<u32>(), 0u64..10_000_000), 0..12),
            reports in prop::collection::vec((any::<u32>(), "[ -~]{0,40}"), 0..8),
        ) {
            let snap = ServerSnapshot {
                epoch,
                apps: apps
                    .into_iter()
                    .map(|(pid, nworkers, ms)| SnapshotApp {
                        pid,
                        nworkers,
                        lease_remaining: Duration::from_millis(ms),
                    })
                    .collect(),
                reports: reports
                    .into_iter()
                    .map(|(pid, line)| (pid, line.trim().to_string()))
                    .collect(),
            };
            let decoded = ServerSnapshot::decode(&snap.encode());
            prop_assert_eq!(decoded.expect("round trip"), snap);
        }

        /// Every proper prefix of a valid file is rejected — a torn
        /// write can never restore partial state.
        #[test]
        fn prop_truncation_always_rejects(cut in any::<usize>()) {
            let text = sample().encode();
            let at = cut % text.len(); // < len: a proper prefix
            prop_assert!(
                ServerSnapshot::decode(&text[..at]).is_err(),
                "truncation at {} decoded", at
            );
        }

        /// Any single corrupted byte is rejected (checksum, trailer, or
        /// structural failure — never a silent wrong restore).
        #[test]
        fn prop_single_byte_corruption_always_rejects(
            at in any::<usize>(),
            xor in 1u8..128,
        ) {
            let text = sample().encode();
            let mut bytes = text.into_bytes();
            let i = at % bytes.len();
            bytes[i] ^= xor;
            let corrupt = String::from_utf8_lossy(&bytes).into_owned();
            prop_assert!(
                ServerSnapshot::decode(&corrupt).is_err(),
                "corruption at {} decoded", i
            );
        }
    }
}
