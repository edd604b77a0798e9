//! R6 dyn-receiver bad fixture: the window-close entry only sees a
//! `dyn Provider`; the copy is in the implementor (and `collect` is a
//! name the total-by-contract list knows).

pub trait Provider {
    fn collect(&mut self, n: usize) -> Vec<u64>;
}

pub struct Scratch {
    buf: Vec<u64>,
}

impl Provider for Scratch {
    fn collect(&mut self, n: usize) -> Vec<u64> {
        self.buf[..n].to_vec()
    }
}

pub fn close_entry(provider: &mut dyn Provider, n: usize) -> usize {
    provider.collect(n).len()
}
