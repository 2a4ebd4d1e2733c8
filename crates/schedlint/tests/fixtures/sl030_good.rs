// Fixture: SL030 clean — incremented, catalogued, annotated.
fn build(registry: &Registry) -> Stats {
    Stats {
        jobs_run: registry.counter("jobs_run"),
    }
}

fn dynamic(registry: &Registry) {
    // sched-counters: steal_tier_smt steal_tier_llc
    let tiers = make(|i| registry.counter(&format!("steal_tier_{}", NAMES[i])));
    keep(tiers);
}

fn bump(s: &Stats) {
    s.jobs_run.incr();
}

struct Cells {
    local_hits: AtomicU64, // sched-atomic(relaxed): single-writer statistic.
}

fn sourced(registry: &Registry, cells: Arc<Cells>) {
    // sched-counters: local_hits
    registry.counter_source(cells);
}

fn hit(c: &Cells) {
    c.local_hits
        .store(c.local_hits.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}
