//! Brute-force differential check: new RTA vs the naive oracle on random
//! tie-heavy workloads (kept as a developer smoke tool).
use std::sync::Arc;
use wqrtq_geom::{DeltaView, FlatPoints, Point, Weight};
use wqrtq_query::brtopk::*;
use wqrtq_rtree::RTree;

fn main() {
    let mut state = 1u64;
    let mut rnd = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for trial in 0..20000 {
        let n = 5 + (rnd() * 40.0) as usize;
        let k = 1 + (rnd() * 5.0) as usize;
        let ties = 1 + (rnd() * 3.0) as usize;
        let q = [rnd() * 10.0, rnd() * 10.0];
        let mut pts: Vec<[f64; 2]> = (0..n).map(|_| [rnd() * 10.0, rnd() * 10.0]).collect();
        for _ in 0..ties {
            pts.push(q);
        }
        let points: Vec<Point> = pts.iter().map(|p| Point::from(*p)).collect();
        let flat: Vec<f64> = pts.iter().flatten().copied().collect();
        let tree = RTree::bulk_load_with_fanout(2, &flat, 8);
        let view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(2, &flat)));
        let weights: Vec<Weight> = (0..12)
            .map(|i| Weight::from_first_2d((i as f64 + 0.5) / 12.0))
            .collect();
        let naive = bichromatic_reverse_topk_naive(&points, &weights, &q, k);
        let order = rta_sorted_order(&weights);
        let mut scratch = RtaScratch::new();
        let (mut rta, _) =
            rta_over_order_view_masked(&tree, &view, &weights, &order, &q, k, None, &mut scratch);
        rta.sort_unstable();
        assert_eq!(naive, rta, "trial {trial} n={n} k={k} ties={ties} q={q:?}");
    }
    println!("20000 tie-heavy trials: RTA == naive");
}
