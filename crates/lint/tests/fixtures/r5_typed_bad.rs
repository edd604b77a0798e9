//! R5 typed-receiver bad fixture: `append` is a name the total-by-
//! contract list knows (`Vec::append`), but the receiver is declared a
//! workspace type, whose `append` indexes.

pub struct Pool {
    rows: Vec<u64>,
}

impl Pool {
    fn append(&mut self, row: u64) -> Option<u64> {
        self.rows.push(row);
        Some(self.rows[0])
    }
}

pub fn entry(slot: Option<&mut Pool>, row: u64) -> Option<u64> {
    let pool: &mut Pool = slot?;
    pool.append(row)
}
