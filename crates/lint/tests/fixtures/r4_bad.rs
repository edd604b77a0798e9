//! Push-loop bad twin (R6): per-element pushes in loops, no capacity reservation
//! anywhere in the enclosing functions.

fn build_lane(src: &[f64]) -> Vec<f64> {
    let mut lane = Vec::new();
    for &v in src {
        lane.push(v * 2.0);
    }
    lane
}

fn count_down(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    while n > 0 {
        out.push(n);
        n -= 1;
    }
    out
}

fn nested(src: &[Vec<f64>]) -> Vec<f64> {
    let mut flat = Vec::new();
    for row in src {
        if !row.is_empty() {
            flat.push(row[0]);
        }
    }
    flat
}
