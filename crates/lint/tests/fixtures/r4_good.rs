//! Push-loop good twin (R6): every push loop sits in a function that sized its
//! buffer first, and pushes outside loops are always fine.

fn build_lane(src: &[f64]) -> Vec<f64> {
    let mut lane = Vec::with_capacity(src.len());
    for &v in src {
        lane.push(v * 2.0);
    }
    lane
}

fn count_down(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    out.reserve(n);
    let mut k = n;
    while k > 0 {
        out.push(k);
        k -= 1;
    }
    out
}

fn single_push(v: f64) -> Vec<f64> {
    let mut out = Vec::new();
    out.push(v);
    out
}

fn hrtb_is_not_a_loop(f: impl for<'a> Fn(&'a f64) -> f64, v: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(v.len());
    out.extend(v.iter().map(f));
    out
}
