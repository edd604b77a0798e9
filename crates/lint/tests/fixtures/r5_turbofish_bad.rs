//! R5 turbofish bad fixture: the only call of the panicking reader is
//! written `.column::<8>(n)` — a call the walk must see through the
//! generic arguments.

pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn column<const N: usize>(&mut self, n: usize) -> &'a [u8] {
        &self.buf[..n * N]
    }
}

pub fn entry(bytes: &[u8], n: usize) -> usize {
    let mut r = Reader { buf: bytes };
    r.column::<8>(n).len()
}
