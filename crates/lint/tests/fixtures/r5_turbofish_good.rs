//! R5 turbofish good fixture: the same call shape onto a checked reader.

pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn column<const N: usize>(&mut self, n: usize) -> Option<&'a [u8]> {
        self.buf.get(..n.checked_mul(N)?)
    }
}

pub fn entry(bytes: &[u8], n: usize) -> usize {
    let mut r = Reader { buf: bytes };
    r.column::<8>(n).map_or(0, |c| c.len())
}
