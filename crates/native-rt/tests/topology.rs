//! Golden-file tests for sysfs topology parsing, plus property tests for
//! the distance model and cpulist codec.
//!
//! Each golden test materializes a miniature
//! `/sys/devices/system/cpu`-shaped tree in a temp directory — the same
//! files the kernel exposes, with the same formats — and checks that
//! [`CpuTopology::from_sysfs`] reconstructs the intended distances and
//! linearization.

use std::path::{Path, PathBuf};

use native_rt::topology::{format_cpulist, parse_cpulist, steal_tiers, CpuTopology};

use proptest::prelude::*;

/// A scratch sysfs root, removed on drop.
struct FakeSysfs {
    root: PathBuf,
}

impl FakeSysfs {
    fn new(tag: &str) -> FakeSysfs {
        let root = std::env::temp_dir().join(format!("procctl-topo-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fake sysfs root");
        FakeSysfs { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, content).expect("write sysfs file");
    }

    /// One `cpuN` directory: package/core from `topology/`, an L1 private
    /// cache and an L3 `shared_cpu_list` (the LLC) under `cache/`.
    fn cpu(&self, id: u32, package: u32, core: u32, llc_shared: &str) {
        let base = format!("cpu{id}");
        self.write(
            &format!("{base}/topology/physical_package_id"),
            &format!("{package}\n"),
        );
        self.write(&format!("{base}/topology/core_id"), &format!("{core}\n"));
        self.write(&format!("{base}/cache/index0/level"), "1\n");
        self.write(
            &format!("{base}/cache/index0/shared_cpu_list"),
            &format!("{id}\n"),
        );
        self.write(&format!("{base}/cache/index3/level"), "3\n");
        self.write(
            &format!("{base}/cache/index3/shared_cpu_list"),
            &format!("{llc_shared}\n"),
        );
    }

    fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for FakeSysfs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn two_socket_no_smt_layout() {
    // 4 CPUs, two sockets, one thread per core, one LLC per socket —
    // the classic server shape the paper's DASH-era machines had.
    let fs = FakeSysfs::new("twosocket");
    fs.cpu(0, 0, 0, "0-1");
    fs.cpu(1, 0, 1, "0-1");
    fs.cpu(2, 1, 0, "2-3");
    fs.cpu(3, 1, 1, "2-3");
    let t = CpuTopology::from_sysfs(fs.path()).expect("parse");
    assert_eq!(t.len(), 4);
    // No SMT: nearest non-self neighbor shares the LLC, not the core.
    assert_eq!(t.distance(0, 1), 2, "same socket, same LLC");
    assert_eq!(t.distance(0, 2), 4, "cross socket is remote");
    assert_eq!(t.distance(2, 3), 2);
    // Same core_id on DIFFERENT sockets must not look like siblings.
    assert_eq!(t.distance(0, 2), 4, "core_id collides across packages");
    let order = t.linear_order();
    assert_eq!(order, vec![0, 1, 2, 3]);
}

#[test]
fn smt_single_socket_layout() {
    // 4 CPUs = 2 cores × 2 hyperthreads, one shared L3.
    let fs = FakeSysfs::new("smt");
    fs.cpu(0, 0, 0, "0-3");
    fs.cpu(1, 0, 0, "0-3");
    fs.cpu(2, 0, 1, "0-3");
    fs.cpu(3, 0, 1, "0-3");
    let t = CpuTopology::from_sysfs(fs.path()).expect("parse");
    assert_eq!(t.distance(0, 1), 1, "SMT sibling");
    assert_eq!(t.distance(0, 2), 2, "same LLC, different core");
    assert_eq!(t.distance(1, 3), 2);
    // Siblings stay adjacent in the handout order.
    let order = t.linear_order();
    let pos = |id: u32| order.iter().position(|&c| c == id).unwrap();
    assert_eq!(pos(0).abs_diff(pos(1)), 1, "siblings adjacent: {order:?}");
    assert_eq!(pos(2).abs_diff(pos(3)), 1, "siblings adjacent: {order:?}");
}

#[test]
fn heterogeneous_split_llc_layout() {
    // A big.LITTLE-ish part: one package, two cache clusters — distance
    // 3 (same socket, different LLC) exists without a second socket.
    let fs = FakeSysfs::new("hetero");
    fs.cpu(0, 0, 0, "0-1");
    fs.cpu(1, 0, 1, "0-1");
    fs.cpu(2, 0, 2, "2-3");
    fs.cpu(3, 0, 3, "2-3");
    let t = CpuTopology::from_sysfs(fs.path()).expect("parse");
    assert_eq!(t.distance(0, 1), 2, "same cluster");
    assert_eq!(t.distance(0, 2), 3, "same socket, other cluster");
    assert_eq!(t.distance(0, 3), 3);
    // The handout order keeps each cluster contiguous.
    let order = t.linear_order();
    let pos = |id: u32| order.iter().position(|&c| c == id).unwrap();
    assert!(pos(0).abs_diff(pos(1)) == 1 && pos(2).abs_diff(pos(3)) == 1);
}

#[test]
fn junk_entries_and_broken_cpus_are_skipped() {
    let fs = FakeSysfs::new("junk");
    fs.cpu(0, 0, 0, "0-1");
    fs.cpu(1, 0, 1, "0-1");
    // Kernel clutter that must be ignored, not choked on.
    fs.write("cpufreq/policy0/scaling_governor", "performance\n");
    fs.write("online", "0-1\n");
    fs.write("cpuidle/notes", "nope\n");
    // A cpu dir with garbled topology files contributes nothing.
    fs.write("cpu7/topology/physical_package_id", "not-a-number\n");
    fs.write("cpu7/topology/core_id", "0\n");
    let t = CpuTopology::from_sysfs(fs.path()).expect("parse");
    assert_eq!(t.len(), 2);
    assert!(t.record(7).is_none(), "broken cpu7 must be skipped");
}

#[test]
fn missing_cache_hierarchy_falls_back_to_package_llc() {
    // Some VMs expose topology/ but no cache/: the LLC defaults to the
    // package, so same-socket CPUs are LLC-near rather than remote.
    let fs = FakeSysfs::new("nocache");
    for (id, pkg, core) in [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)] {
        fs.write(
            &format!("cpu{id}/topology/physical_package_id"),
            &format!("{pkg}\n"),
        );
        fs.write(&format!("cpu{id}/topology/core_id"), &format!("{core}\n"));
    }
    let t = CpuTopology::from_sysfs(fs.path()).expect("parse");
    assert_eq!(t.distance(0, 1), 2, "package-wide LLC fallback");
    assert_eq!(t.distance(0, 2), 4);
}

#[test]
fn empty_or_missing_sysfs_is_an_error_and_synthetic_covers_it() {
    let fs = FakeSysfs::new("empty");
    assert!(CpuTopology::from_sysfs(fs.path()).is_err(), "empty tree");
    let gone = fs.path().join("never-created");
    assert!(CpuTopology::from_sysfs(&gone).is_err(), "missing tree");
    // The fallback the runtime actually takes on such hosts: a synthetic
    // layout of the requested width, fully populated.
    let t = CpuTopology::synthetic(6);
    assert_eq!(t.len(), 6);
    assert_eq!(t.linear_order().len(), 6);
}

#[test]
fn golden_tree_steal_tiers_partition_all_victims() {
    let fs = FakeSysfs::new("tiers");
    fs.cpu(0, 0, 0, "0-3");
    fs.cpu(1, 0, 0, "0-3");
    fs.cpu(2, 0, 1, "0-3");
    fs.cpu(3, 0, 1, "0-3");
    let t = CpuTopology::from_sysfs(fs.path()).expect("parse");
    let cpus = [0u32, 1, 2, 3];
    let tiers = steal_tiers(&t, &cpus, 0);
    assert_eq!(tiers[0], vec![1], "SMT sibling first");
    assert_eq!(tiers[1], vec![2, 3], "then LLC mates");
    assert!(tiers[2].is_empty() && tiers[3].is_empty());
}

proptest! {
    /// The distance matrix over any synthetic topology is symmetric with
    /// a zero diagonal, and bounded by the remote tier.
    #[test]
    fn distance_matrix_symmetric_zero_diagonal(n in 1usize..64) {
        let t = CpuTopology::synthetic(n);
        for a in 0..n as u32 {
            prop_assert_eq!(t.distance(a, a), 0);
            for b in 0..n as u32 {
                prop_assert_eq!(t.distance(a, b), t.distance(b, a));
                prop_assert!(t.distance(a, b) <= 4);
            }
        }
    }

    /// Same invariants for arbitrary (not grid-shaped) record sets.
    #[test]
    fn distance_symmetry_on_arbitrary_records(
        placements in prop::collection::vec((0u32..4, 0u32..8, 0u32..4), 1..24)
    ) {
        let records: Vec<_> = placements
            .iter()
            .enumerate()
            .map(|(i, &(package, core, llc))| native_rt::CpuRecord {
                id: i as u32,
                package,
                core,
                llc,
            })
            .collect();
        let n = records.len() as u32;
        let t = CpuTopology::from_records(records);
        for a in 0..n {
            prop_assert_eq!(t.distance(a, a), 0);
            for b in 0..n {
                prop_assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    /// format ∘ parse is the identity on canonical cpulists, and parse ∘
    /// format canonicalizes arbitrary id sets.
    #[test]
    fn cpulist_round_trips(raw in prop::collection::vec(0u32..2048, 0..64)) {
        let mut ids = raw;
        ids.sort_unstable();
        ids.dedup();
        let rendered = format_cpulist(&ids);
        prop_assert_eq!(parse_cpulist(&rendered).expect("own output parses"), ids);
    }

    /// The parser never panics on arbitrary short strings, and anything
    /// it accepts holds at most `MAX_CPUS` ids.
    #[test]
    fn cpulist_parser_total(s in "[0-9,\\- ]{0,24}") {
        if let Some(ids) = parse_cpulist(&s) {
            prop_assert!(ids.len() <= ctl_core::MAX_CPUS as usize);
        }
    }
}
