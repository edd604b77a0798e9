//! R6 dyn-receiver good fixture: the implementor lends its buffer.

pub trait Provider {
    fn collect(&mut self, n: usize) -> &[u64];
}

pub struct Scratch {
    buf: Vec<u64>,
}

impl Provider for Scratch {
    fn collect(&mut self, n: usize) -> &[u64] {
        self.buf.get(..n).unwrap_or(&[])
    }
}

pub fn close_entry(provider: &mut dyn Provider, n: usize) -> usize {
    provider.collect(n).len()
}
