// Fixture: SL020 clean — the guard is dead on every path that blocks.
use std::sync::Mutex;
use std::time::Duration;

struct State {
    mu: Mutex<u32>,
}

fn drop_then_wait(s: &State, flush: bool) {
    let g = s.mu.lock().unwrap();
    if flush {
        let _ = *g;
    }
    drop(g);
    std::thread::sleep(Duration::from_millis(1));
}

fn wait_only_unlocked(s: &State, flush: bool) {
    let g = s.mu.lock().unwrap();
    if flush {
        drop(g);
        std::thread::sleep(Duration::from_millis(1));
    }
}
