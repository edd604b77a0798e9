//! R5 arity good fixture: `ids.next().index()` passes no argument, so
//! the one-parameter operator impl `Index<(usize, usize)> for Grid` —
//! the only other workspace method called `index` — is not its callee,
//! whatever the by-name fallback for an unresolvable receiver says. The
//! zero-parameter `CounterId::index` is, and it is total.

pub struct CounterId(u8);

impl CounterId {
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

pub struct Grid {
    cols: usize,
    data: Vec<f64>,
}

impl std::ops::Index<(usize, usize)> for Grid {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

pub fn entry(ids: &mut impl Iterator<Item = CounterId>) -> usize {
    ids.next().map_or(0, |id| id.index())
}
