//! R6 bad fixture: the allocation is two calls below the window-close
//! entry point, in a function that is no root itself.

pub fn close_entry(ready: &[u64]) -> Vec<u64> {
    finalize(ready)
}

fn finalize(ready: &[u64]) -> Vec<u64> {
    snapshot(ready)
}

fn snapshot(ready: &[u64]) -> Vec<u64> {
    ready.to_vec()
}
