//! Monochromatic reverse top-k and its why-not question in 2-D.
//!
//! Without a known customer population, `MRTOPk(q)` is the set of *all*
//! weighting vectors whose top-k contains `q` — in 2-D an exact union of
//! intervals of the first weight component (the paper's Figure 2). A
//! why-not vector is any weight outside those intervals; this example
//! shows how MQP widens the qualifying region to cover one.
//!
//! Run with: `cargo run --release --example monochromatic_2d`

use std::sync::Arc;
use wqrtq::core::mqp::mqp_view;
use wqrtq::data::synthetic::independent;
use wqrtq::geom::{DeltaView, FlatPoints, Weight};
use wqrtq::query::mrtopk::{monochromatic_reverse_topk_2d, weight_in_result};
use wqrtq::rtree::RTree;

fn fmt_intervals(iv: &[wqrtq::query::mrtopk::WeightInterval]) -> String {
    if iv.is_empty() {
        return "∅".into();
    }
    iv.iter()
        .map(|i| format!("[{:.4}, {:.4}]", i.lo, i.hi))
        .collect::<Vec<_>>()
        .join(" ∪ ")
}

fn main() {
    let k = 15;
    let data = independent(5_000, 2, 31);
    let tree = RTree::bulk_load(2, &data.coords);
    let view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(2, &data.coords)));

    // A product that is strong on attribute 0, weaker on attribute 1:
    // it qualifies for price-focused weights but not balanced ones.
    let q = [0.005, 0.35];

    let before = monochromatic_reverse_topk_2d(&data.coords, &q, k);
    println!("MRTOP{k}(q) for q = {q:?}:");
    println!(
        "  qualifying weights x (w = (x, 1−x)): {}",
        fmt_intervals(&before)
    );

    // A why-not weighting vector that cares mostly about attribute 1.
    let why_not_x = 0.10;
    assert!(
        !weight_in_result(&before, why_not_x),
        "pick a why-not weight outside the region"
    );
    println!("\nwhy-not vector: w = ({why_not_x}, {})", 1.0 - why_not_x);

    // Refine by modifying q (solution 1 works identically for the
    // monochromatic variant — Figure 3(a) of the paper).
    let wm = vec![Weight::from_first_2d(why_not_x)];
    let res = mqp_view(&tree, &view, &q, k, &wm).expect("refinement succeeds");
    println!(
        "MQP: move q {:?} → ({:.4}, {:.4})   penalty {:.4}",
        q, res.q_prime[0], res.q_prime[1], res.penalty
    );

    let after = monochromatic_reverse_topk_2d(&data.coords, &res.q_prime, k);
    println!("\nMRTOP{k}(q′):");
    println!("  qualifying weights: {}", fmt_intervals(&after));
    assert!(
        weight_in_result(&after, why_not_x),
        "the why-not weight must now qualify"
    );
    println!("\nthe why-not vector x = {why_not_x} is now inside the region ✓");

    // The region can only have grown where it matters: every previously
    // qualifying weight whose intervals we re-check still qualifies.
    for i in &before {
        let mid = 0.5 * (i.lo + i.hi);
        assert!(
            weight_in_result(&after, mid),
            "refinement must not lose existing supporters at x = {mid}"
        );
    }
    println!("existing supporters retained ✓");
}
