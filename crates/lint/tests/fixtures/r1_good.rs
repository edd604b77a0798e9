// Owned-copy fixture twin (R6): the borrow-based versions of r1_bad.rs, plus the
// allowed escape hatches — `.copied()` (only compiles for Copy element
// types) and clones inside test modules.

pub struct Fragment {
    pub args: Vec<u64>,
}

pub fn view_population<'a>(frags: &'a [Fragment]) -> Vec<&'a [u64]> {
    frags.iter().map(|f| f.args.as_slice()).collect()
}

pub fn sum_args(frags: &[Fragment]) -> u64 {
    frags.iter().flat_map(|f| f.args.iter().copied()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_clone_freely() {
        let frags = vec![Fragment { args: vec![1, 2] }];
        let copied = frags.clone();
        let owned: Vec<u64> = copied[0].args.to_vec();
        assert_eq!(owned, vec![1, 2]);
    }
}
