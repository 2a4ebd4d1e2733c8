// Fixture: SL011 — same-lock nesting, direct and one call deep.
fn direct(s: &Shared) {
    let a = s.state.lock();
    let b = s.state.lock(); // SL011: the mutex is not reentrant
    use_both(a, b);
}

fn helper(s: &Shared) {
    let g = s.state.lock();
    touch(g);
}

fn through_call(s: &Shared) {
    let g = s.state.lock();
    helper(s); // SL011: helper re-locks state
}
