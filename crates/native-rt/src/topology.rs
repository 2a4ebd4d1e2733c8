//! CPU topology discovery and the distance model behind tiered stealing.
//!
//! Tucker & Gupta's fourth collapse cause is processor-cache corruption:
//! a process migrated across caches refetches its working set at main-
//! memory latency. The native pool therefore wants to know *how far*
//! one CPU is from another, so an empty worker steals from the nearest
//! deque first (SMT sibling → same LLC → same socket → remote) and so
//! the control server can hand out topologically *contiguous* CPU sets
//! rather than bare counts.
//!
//! Topology comes from `/sys/devices/system/cpu/cpu*/topology` (plus
//! `cache/index*/shared_cpu_list` for the last-level cache) when the
//! kernel exposes it, and falls back to a deterministic synthetic
//! layout — 2-way SMT cores, 4-CPU LLC groups, 8-CPU sockets — inside
//! containers and tests where sysfs is absent or clipped. Everything
//! here is plain data: no atomics, no locks, safe under `--cfg loom`.

use std::io;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Number of steal-distance tiers ([`STEAL_TIER_NAMES`]).
pub const NUM_STEAL_TIERS: usize = 4;

/// Tier labels, nearest first, used to name the pool's per-tier steal
/// counters (`steal_tier_smt`, `steal_tier_llc`, ...).
pub const STEAL_TIER_NAMES: [&str; NUM_STEAL_TIERS] = ["smt", "llc", "socket", "remote"];

/// One logical CPU's placement: which package (socket), physical core,
/// and last-level-cache group it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuRecord {
    /// Logical CPU id (the `N` in `cpuN`).
    pub id: u32,
    /// Physical package (socket) id.
    pub package: u32,
    /// Physical core id (unique within a package; SMT siblings share it).
    pub core: u32,
    /// Last-level-cache group key (CPUs sharing the LLC share it).
    pub llc: u32,
}

/// An immutable map of the machine's CPUs and their mutual distances.
#[derive(Clone, Debug)]
pub struct CpuTopology {
    /// Records sorted by CPU id.
    records: Vec<CpuRecord>,
    /// Every CPU id, in id order (`records`' index by id, and the
    /// whole-machine pin).
    ids: Vec<u32>,
}

impl CpuTopology {
    /// Builds a topology from explicit records (duplicates by id keep
    /// the first occurrence; records end up sorted by id).
    pub fn from_records(mut records: Vec<CpuRecord>) -> CpuTopology {
        records.sort_by_key(|r| r.id);
        records.dedup_by_key(|r| r.id);
        let ids = records.iter().map(|r| r.id).collect();
        CpuTopology { records, ids }
    }

    /// The deterministic fallback layout for `n` CPUs: 2-way SMT cores,
    /// 4-CPU LLC groups, 8-CPU sockets. Used when sysfs is absent
    /// (containers, non-Linux, tests); `n == 0` is treated as 1.
    pub fn synthetic(n: usize) -> CpuTopology {
        let n = n.max(1);
        Self::from_records(
            (0..n as u32)
                .map(|i| CpuRecord {
                    id: i,
                    package: i / 8,
                    core: i / 2,
                    llc: i / 4,
                })
                .collect(),
        )
    }

    /// Parses a sysfs CPU tree rooted at `root` (normally
    /// `/sys/devices/system/cpu`). Each `cpuN` directory contributes one
    /// record from `topology/physical_package_id` + `topology/core_id`;
    /// the LLC group is the highest-level `cache/index*/shared_cpu_list`
    /// (keyed by the smallest CPU id in the shared list), defaulting to
    /// the package when no cache hierarchy is exposed. Directories that
    /// fail to parse are skipped; an empty result is an error.
    pub fn from_sysfs(root: &Path) -> io::Result<CpuTopology> {
        let mut records = Vec::new();
        for entry in std::fs::read_dir(root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("cpu"))
                .and_then(|n| n.parse::<u32>().ok())
            else {
                continue; // cpufreq, cpuidle, online, ...
            };
            let cpu_dir = entry.path();
            let Some(package) = read_u32(&cpu_dir.join("topology/physical_package_id")) else {
                continue;
            };
            let Some(core) = read_u32(&cpu_dir.join("topology/core_id")) else {
                continue;
            };
            let llc = llc_group(&cpu_dir).unwrap_or(package);
            records.push(CpuRecord {
                id,
                package,
                core,
                llc,
            });
        }
        if records.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("no parsable cpu*/topology entries under {}", root.display()),
            ));
        }
        Ok(Self::from_records(records))
    }

    /// Detects the running machine's topology: the live sysfs tree when
    /// it parses, otherwise [`CpuTopology::synthetic`] sized by
    /// `available_parallelism`.
    pub fn detect() -> CpuTopology {
        #[cfg(target_os = "linux")]
        if let Ok(t) = Self::from_sysfs(Path::new("/sys/devices/system/cpu")) {
            return t;
        }
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::synthetic(n)
    }

    /// The process-wide detected topology, computed once.
    pub fn shared() -> &'static Arc<CpuTopology> {
        static SHARED: OnceLock<Arc<CpuTopology>> = OnceLock::new();
        SHARED.get_or_init(|| Arc::new(CpuTopology::detect()))
    }

    /// Number of CPUs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no CPUs are known.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `i`-th CPU's id, in id order.
    pub fn cpu_at(&self, i: usize) -> u32 {
        self.records[i % self.records.len()].id
    }

    /// The record for CPU `id`, if known.
    pub fn record(&self, id: u32) -> Option<&CpuRecord> {
        self.ids.binary_search(&id).ok().map(|i| &self.records[i])
    }

    /// Distance between two CPUs: 0 self, 1 SMT sibling (same core),
    /// 2 same LLC, 3 same package, 4 remote. Unknown ids are remote.
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        if a == b {
            return 0;
        }
        let (Some(ra), Some(rb)) = (self.record(a), self.record(b)) else {
            return 4;
        };
        if ra.package != rb.package {
            return 4;
        }
        if ra.core == rb.core {
            1
        } else if ra.llc == rb.llc {
            2
        } else {
            3
        }
    }

    /// CPU ids sorted so that topological neighbors are adjacent
    /// (package, then LLC group, then core, then id). Contiguous slices
    /// of this order are what the control server hands out as CPU sets.
    pub fn linear_order(&self) -> Vec<u32> {
        let mut ids: Vec<&CpuRecord> = self.records.iter().collect();
        ids.sort_by_key(|r| (r.package, r.llc, r.core, r.id));
        ids.into_iter().map(|r| r.id).collect()
    }
}

/// Maps a [`CpuTopology::distance`] to its steal tier index
/// (0 = `smt`, 1 = `llc`, 2 = `socket`, 3 = `remote`). Distance 0 —
/// two workers time-sharing one CPU under oversubscription — counts as
/// the nearest tier.
pub fn tier_of_distance(d: u32) -> usize {
    match d {
        0 | 1 => 0,
        2 => 1,
        3 => 2,
        _ => 3,
    }
}

/// Groups worker `from`'s potential steal victims by distance tier,
/// given each worker's assigned CPU. Pure data → usable from both the
/// pool's hot path and the loom model of the tiered victim order.
pub fn steal_tiers(
    topo: &CpuTopology,
    cpu_of_worker: &[u32],
    from: usize,
) -> [Vec<usize>; NUM_STEAL_TIERS] {
    let mut tiers: [Vec<usize>; NUM_STEAL_TIERS] = Default::default();
    for (w, &cpu) in cpu_of_worker.iter().enumerate() {
        if w == from {
            continue;
        }
        let d = topo.distance(cpu_of_worker[from], cpu);
        tiers[tier_of_distance(d)].push(w);
    }
    tiers
}

/// Parses a kernel cpulist ("0-3,8,10-11") into sorted, deduplicated
/// CPU ids. Empty input is the empty set; `None` on malformed input.
///
/// The list is bounded by [`ctl_core::MAX_CPUS`], checked before anything
/// is allocated: `None` for any id ≥ `MAX_CPUS` and for a list that
/// expands to more than `MAX_CPUS` ids before dedup, so a client's
/// `cpus=` text cannot make the server allocate without bound. On a host
/// with larger ids, sysfs discovery skips such a `shared_cpu_list` and
/// groups those CPUs' LLC by package instead.
pub fn parse_cpulist(s: &str) -> Option<Vec<u32>> {
    let s = s.trim();
    let mut out = Vec::new();
    if s.is_empty() {
        return Some(out);
    }
    let max = ctl_core::MAX_CPUS;
    for part in s.split(',') {
        let (lo, hi): (u32, u32) = match part.split_once('-') {
            Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
            None => {
                let id = part.trim().parse().ok()?;
                (id, id)
            }
        };
        if lo > hi || hi >= max || out.len() + (hi - lo) as usize >= max as usize {
            return None;
        }
        out.extend(lo..=hi);
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

/// Renders CPU ids as a kernel-style cpulist, compressing runs
/// ("0-3,8"). The inverse of [`parse_cpulist`] for sorted inputs.
pub fn format_cpulist(cpus: &[u32]) -> String {
    let mut sorted = cpus.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut out = String::new();
    let mut i = 0;
    while i < sorted.len() {
        let start = sorted[i];
        let mut end = start;
        while i + 1 < sorted.len() && sorted[i + 1] == end + 1 {
            i += 1;
            end = sorted[i];
        }
        if !out.is_empty() {
            out.push(',');
        }
        if start == end {
            out.push_str(&start.to_string());
        } else {
            out.push_str(&format!("{start}-{end}"));
        }
        i += 1;
    }
    out
}

/// Restricts the calling thread to `cpus` via `sched_setaffinity(2)`.
/// Best-effort: returns false for an empty set, off-range ids, kernel
/// rejection (e.g. every listed CPU is offline or nonexistent — the
/// synthetic fallback on small machines), or a non-Linux target.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpus: &[u32]) -> bool {
    // cpu_set_t is 1024 bits of unsigned long; building the mask by
    // word keeps it endianness-correct without the libc crate (the
    // build environment is offline; std already links libc).
    const BITS: usize = usize::BITS as usize;
    const WORDS: usize = 1024 / BITS;
    let mut mask = [0usize; WORDS];
    for &c in cpus {
        let c = c as usize;
        if c / BITS < WORDS {
            mask[c / BITS] |= 1 << (c % BITS);
        }
    }
    if mask.iter().all(|&w| w == 0) {
        return false;
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const usize) -> i32;
    }
    // SAFETY: the mask buffer is a live stack array of the size we pass;
    // pid 0 targets the calling thread, so no other thread's state is
    // touched; the kernel copies the mask before returning.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Non-Linux stub: pinning is never applied.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpus: &[u32]) -> bool {
    false
}

/// Re-pins the calling thread after its CPU assignment changed: to
/// `cpu` while the control plane assigns a set, to every CPU of `topo`
/// in count-only / degraded mode (`None`), so a server outage widens,
/// never strands, affinity. Returns whether the narrow pin is in force.
pub(crate) fn repin_current_thread(topo: &CpuTopology, cpu: Option<u32>) -> bool {
    let Some(cpu) = cpu else {
        pin_current_thread(&topo.ids);
        return false;
    };
    pin_current_thread(&[cpu])
}

/// Reads a whitespace-trimmed `u32` from a sysfs file.
fn read_u32(path: &Path) -> Option<u32> {
    std::fs::read_to_string(path)
        .ok()?
        .trim()
        .parse::<u32>()
        .ok()
}

/// The LLC group key for one `cpuN` dir: among `cache/index*` entries,
/// take the highest cache level's `shared_cpu_list` and key the group
/// by its smallest member.
fn llc_group(cpu_dir: &Path) -> Option<u32> {
    let cache = cpu_dir.join("cache");
    let mut best: Option<(u32, u32)> = None; // (level, group key)
    for entry in std::fs::read_dir(cache).ok()? {
        let entry = entry.ok()?;
        let dir = entry.path();
        if !entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.starts_with("index"))
        {
            continue;
        }
        let Some(level) = read_u32(&dir.join("level")) else {
            continue;
        };
        let shared = std::fs::read_to_string(dir.join("shared_cpu_list")).ok()?;
        let Some(list) = parse_cpulist(&shared) else {
            continue;
        };
        let Some(&key) = list.first() else { continue };
        match best {
            Some((l, _)) if level <= l => {}
            _ => best = Some((level, key)),
        }
    }
    best.map(|(_, key)| key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_distances_follow_the_layout() {
        let t = CpuTopology::synthetic(16);
        assert_eq!(t.len(), 16);
        assert_eq!(t.distance(0, 0), 0);
        assert_eq!(t.distance(0, 1), 1, "SMT sibling");
        assert_eq!(t.distance(0, 2), 2, "same LLC");
        assert_eq!(t.distance(0, 4), 3, "same socket");
        assert_eq!(t.distance(0, 8), 4, "remote");
        assert_eq!(t.distance(0, 99), 4, "unknown id is remote");
    }

    #[test]
    fn synthetic_zero_is_one_cpu() {
        assert_eq!(CpuTopology::synthetic(0).len(), 1);
    }

    #[test]
    fn linear_order_groups_neighbors() {
        let t = CpuTopology::synthetic(16);
        let order = t.linear_order();
        assert_eq!(order.len(), 16);
        // Adjacent entries are never farther apart than non-adjacent ones
        // at the same offset from a socket boundary: the order is exactly
        // id order for the synthetic layout.
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn cpulist_round_trips() {
        for list in ["", "0", "0-3", "0-3,8", "1,3,5", "0-1,4-7,9"] {
            let parsed = parse_cpulist(list).expect("parse");
            assert_eq!(format_cpulist(&parsed), list);
        }
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("a"), None);
        assert_eq!(parse_cpulist("0-"), None);
        // Bounded by MAX_CPUS (4096): ids and the total before dedup.
        assert_eq!(parse_cpulist("0-4095").map(|l| l.len()), Some(4096));
        assert_eq!(parse_cpulist("4096"), None);
        assert_eq!(parse_cpulist("0-4096"), None);
        assert_eq!(parse_cpulist("0-4095,0-4095"), None);
    }

    #[test]
    fn steal_tiers_partition_other_workers() {
        let t = CpuTopology::synthetic(16);
        let cpus: Vec<u32> = (0..16).collect();
        let tiers = steal_tiers(&t, &cpus, 0);
        assert_eq!(tiers[0], vec![1]);
        assert_eq!(tiers[1], vec![2, 3]);
        assert_eq!(tiers[2], vec![4, 5, 6, 7]);
        assert_eq!(tiers[3], (8..16).collect::<Vec<_>>());
        let total: usize = tiers.iter().map(Vec::len).sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn oversubscribed_workers_share_cpus_in_tier_zero() {
        let t = CpuTopology::synthetic(2);
        // 4 workers on 2 CPUs: worker 2 shares cpu 0 with worker 0.
        let cpus = vec![0, 1, 0, 1];
        let tiers = steal_tiers(&t, &cpus, 0);
        assert!(tiers[0].contains(&2), "same-cpu worker is nearest");
    }

    #[test]
    fn detect_never_panics_and_is_nonempty() {
        let t = CpuTopology::detect();
        assert!(!t.is_empty());
        let s = CpuTopology::shared();
        assert!(!s.is_empty());
    }
}
