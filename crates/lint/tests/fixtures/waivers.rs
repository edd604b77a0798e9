// Waiver fixture: one trailing waiver, one whole-line waiver, one
// unused waiver, one malformed directive.

pub struct Fragment {
    pub args: Vec<u64>,
}

pub fn cold_copy(frags: &Vec<Fragment>) -> Vec<Fragment> {
    frags.clone() // vapro-lint: allow(R6, cold path, runs once per report)
}

pub fn cold_args(f: &Fragment) -> Vec<u64> {
    // vapro-lint: allow(R6, snapshot for the report)
    f.args.to_vec()
}

pub fn clean() -> u32 {
    // vapro-lint: allow(R6, nothing on the next line allocates)
    42
}

pub fn noisy() -> u32 {
    // vapro-lint: allow(R5)
    7
}
