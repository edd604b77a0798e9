//! R5 arity bad fixture: the same unresolvable receiver, but the call
//! passes one argument — exactly what the panicking `Grid::index`
//! declares — so the by-name fallback must still taint it.

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

pub fn entry(grids: &mut impl Iterator<Item = Grid>) -> f64 {
    grids.next().map_or(0.0, |g| *g.index((0, 0)))
}
