// Fixture: SL030 — conservation violations.
fn build(registry: &Registry) -> Stats {
    Stats {
        ghosts: registry.counter("ghosts"), // SL030: never incremented
        phantom: registry.counter("phantom_events"), // SL030: not in catalog
    }
}

fn dynamic(registry: &Registry) {
    let tiers = make(|i| registry.counter(&format!("tier_{}", i))); // SL030: no annotation
    keep(tiers);
}

fn bump(s: &Stats) {
    s.phantom.incr();
}

fn sourced(registry: &Registry, cells: Arc<Cells>) {
    // sched-counters: never_written
    registry.counter_source(cells); // SL030: catalogued, but no such cell is stored to
}
