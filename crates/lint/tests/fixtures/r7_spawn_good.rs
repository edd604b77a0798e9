//! R7 good fixture: the guard is dropped before the task is handed to
//! the pool and before the caller offers to run queued jobs.

pub fn hand_off(m: &std::sync::Mutex<Vec<u64>>) {
    let guard = m.lock();
    let n = guard.len();
    drop(guard);
    rayon::spawn(move || drop(n));
}

pub fn wait_for_items(m: &std::sync::Mutex<Vec<u64>>) {
    let guard = m.lock();
    let empty = guard.is_empty();
    drop(guard);
    if empty {
        rayon::yield_now();
    }
}
