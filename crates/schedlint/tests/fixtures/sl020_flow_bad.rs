// Fixture: SL020 — guard may-live across a blocking call on one path.
// A linear scan sees `drop(g)` and forgets the guard; the region tree
// knows the drop happens on one arm only.
use std::sync::Mutex;
use std::time::Duration;

struct State {
    mu: Mutex<u32>,
}

fn flush_or_wait(s: &State, flush: bool) {
    let g = s.mu.lock().unwrap();
    if flush {
        drop(g);
    }
    std::thread::sleep(Duration::from_millis(1)); // SL020: g live when !flush
}
