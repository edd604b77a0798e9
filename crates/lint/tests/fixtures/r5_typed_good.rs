//! R5 typed-receiver good fixture: the same call onto a total `append`.

pub struct Pool {
    rows: Vec<u64>,
}

impl Pool {
    fn append(&mut self, row: u64) -> Option<u64> {
        self.rows.push(row);
        self.rows.first().copied()
    }
}

pub fn entry(slot: Option<&mut Pool>, row: u64) -> Option<u64> {
    let pool: &mut Pool = slot?;
    pool.append(row)
}
