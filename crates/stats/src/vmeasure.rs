//! Clustering quality: homogeneity, completeness and V-Measure
//! (Rosenberg & Hirschberg 2007), the external evaluation the paper uses
//! in Table 2 to verify the fixed-workload identification algorithm
//! against ground-truth execution paths.
//!
//! * **Homogeneity** (H): each cluster contains only members of a single
//!   class — violated when fragments with *different* workloads are merged
//!   (the PageRank 0.74 case in the paper).
//! * **Completeness** (C): all members of a class land in the same cluster
//!   — violated when one workload is split across clusters.
//! * **V-Measure**: harmonic mean of the two.

use std::collections::HashMap;

/// The three scores in [0, 1].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VMeasure {
    /// Homogeneity score.
    pub homogeneity: f64,
    /// Completeness score.
    pub completeness: f64,
    /// Harmonic mean of homogeneity and completeness.
    pub v_measure: f64,
}

/// Compute V-Measure from parallel slices of ground-truth class labels and
/// predicted cluster labels. Panics if lengths differ; returns perfect
/// scores for an empty input (nothing to get wrong).
pub fn v_measure(classes: &[usize], clusters: &[usize]) -> VMeasure {
    assert_eq!(classes.len(), clusters.len(), "label length mismatch");
    let n = classes.len();
    if n == 0 {
        return VMeasure { homogeneity: 1.0, completeness: 1.0, v_measure: 1.0 };
    }

    // Contingency table and marginals.
    let mut joint: HashMap<(usize, usize), f64> = HashMap::new();
    let mut class_count: HashMap<usize, f64> = HashMap::new();
    let mut cluster_count: HashMap<usize, f64> = HashMap::new();
    for i in 0..n {
        *joint.entry((classes[i], clusters[i])).or_insert(0.0) += 1.0;
        *class_count.entry(classes[i]).or_insert(0.0) += 1.0;
        *cluster_count.entry(clusters[i]).or_insert(0.0) += 1.0;
    }
    let nf = n as f64;

    // Entropies (natural log; units cancel in the ratios).
    let h_class = entropy(class_count.values(), nf);
    let h_cluster = entropy(cluster_count.values(), nf);

    // Conditional entropies from the contingency table.
    let mut h_class_given_cluster = 0.0;
    let mut h_cluster_given_class = 0.0;
    for (&(cls, clu), &cnt) in &joint {
        let p = cnt / nf;
        h_class_given_cluster -= p * (cnt / cluster_count[&clu]).ln();
        h_cluster_given_class -= p * (cnt / class_count[&cls]).ln();
    }

    let homogeneity = if h_class <= 0.0 { 1.0 } else { 1.0 - h_class_given_cluster / h_class };
    let completeness =
        if h_cluster <= 0.0 { 1.0 } else { 1.0 - h_cluster_given_class / h_cluster };
    let v = if homogeneity + completeness <= 0.0 {
        0.0
    } else {
        2.0 * homogeneity * completeness / (homogeneity + completeness)
    };
    VMeasure {
        homogeneity: homogeneity.clamp(0.0, 1.0),
        completeness: completeness.clamp(0.0, 1.0),
        v_measure: v.clamp(0.0, 1.0),
    }
}

fn entropy<'a>(counts: impl Iterator<Item = &'a f64>, n: f64) -> f64 {
    let mut h = 0.0;
    for &c in counts {
        if c > 0.0 {
            let p = c / n;
            h -= p * p.ln();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clustering_scores_one() {
        let classes = [0, 0, 1, 1, 2, 2];
        let clusters = [5, 5, 9, 9, 7, 7]; // same partition, different names
        let v = v_measure(&classes, &clusters);
        assert!((v.homogeneity - 1.0).abs() < 1e-12);
        assert!((v.completeness - 1.0).abs() < 1e-12);
        assert!((v.v_measure - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merging_two_classes_hurts_homogeneity_only() {
        // Two distinct classes put into one cluster: complete but not
        // homogeneous — exactly the paper's PageRank situation.
        let classes = [0, 0, 1, 1];
        let clusters = [0, 0, 0, 0];
        let v = v_measure(&classes, &clusters);
        assert!((v.completeness - 1.0).abs() < 1e-12);
        assert!(v.homogeneity < 0.5);
        assert!(v.v_measure < 1.0);
    }

    #[test]
    fn splitting_one_class_hurts_completeness_only() {
        let classes = [0, 0, 0, 0];
        let clusters = [0, 0, 1, 1];
        let v = v_measure(&classes, &clusters);
        assert!((v.homogeneity - 1.0).abs() < 1e-12);
        assert!(v.completeness < 0.5);
    }

    #[test]
    fn v_is_harmonic_mean() {
        let classes = [0, 0, 1, 1, 2, 2];
        let clusters = [0, 0, 0, 1, 1, 1];
        let v = v_measure(&classes, &clusters);
        let expect = 2.0 * v.homogeneity * v.completeness / (v.homogeneity + v.completeness);
        assert!((v.v_measure - expect).abs() < 1e-12);
        assert!(v.homogeneity > 0.0 && v.homogeneity < 1.0);
    }

    #[test]
    fn single_class_single_cluster_is_perfect() {
        let v = v_measure(&[3, 3, 3], &[1, 1, 1]);
        assert_eq!(v.v_measure, 1.0);
    }

    #[test]
    fn empty_input_is_perfect_by_convention() {
        let v = v_measure(&[], &[]);
        assert_eq!(v.v_measure, 1.0);
    }

    #[test]
    fn scores_are_label_permutation_invariant() {
        let classes = [0, 1, 1, 2, 2, 2];
        let a = v_measure(&classes, &[0, 1, 1, 2, 2, 0]);
        let b = v_measure(&classes, &[7, 3, 3, 9, 9, 7]); // renamed clusters
        assert!((a.v_measure - b.v_measure).abs() < 1e-12);
        assert!((a.homogeneity - b.homogeneity).abs() < 1e-12);
    }
}
