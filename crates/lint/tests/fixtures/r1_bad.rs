// Owned-copy fixture (R6): every method here allocates an owned copy of
// a fragment population and must fire in a hot-path module.

pub struct Fragment {
    pub args: Vec<u64>,
}

pub fn take_population(frags: &Vec<Fragment>) -> Vec<Vec<u64>> {
    let copied = frags.clone(); // finding: full-population clone
    let args: Vec<Vec<u64>> = copied.iter().map(|f| f.args.to_vec()).collect(); // finding
    let again = args.iter().cloned().collect(); // finding
    again
}

pub fn take_owned(label: &str) -> String {
    label.to_owned() // finding
}
