//! R5 dyn-receiver bad fixture: the door only sees a `dyn Provider`;
//! the indexing is in the implementor (and `collect` is a name the
//! total-by-contract list knows).

pub trait Provider {
    fn collect(&mut self, n: usize) -> &[u64];
}

pub struct Scratch {
    buf: Vec<u64>,
}

impl Provider for Scratch {
    fn collect(&mut self, n: usize) -> &[u64] {
        &self.buf[..n]
    }
}

pub fn entry(provider: &mut dyn Provider, n: usize) -> usize {
    provider.collect(n).len()
}
