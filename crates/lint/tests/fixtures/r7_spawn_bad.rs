//! R7 bad fixture: a mutex guard stays live across the two pool entry
//! points that run *other* code before the guard drops. `rayon::spawn`
//! starts a task on a worker while the caller still holds the lock;
//! `rayon::yield_now` runs whatever job is queued — possibly one that
//! wants this very lock — on the caller's own stack.

pub fn hand_off(m: &std::sync::Mutex<Vec<u64>>) {
    let guard = m.lock();
    let n = guard.len();
    rayon::spawn(move || drop(n));
}

pub fn wait_for_items(m: &std::sync::Mutex<Vec<u64>>) {
    let guard = m.lock();
    if guard.is_empty() {
        rayon::yield_now();
    }
}
