//! Property-based tests of the decision-diagram engine against the dense
//! tensor backend: canonicity, algebraic laws, and contraction agreement.

use proptest::prelude::*;
use qaec_math::C64;
use qaec_tdd::{convert, ops, TddManager};
use qaec_tensornet::{IndexId, Tensor, VarOrder};

/// Strategy: a random dense tensor over indices `0..rank`.
fn tensor(rank: usize) -> impl proptest::strategy::Strategy<Value = Tensor> {
    proptest::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| C64::new(re, im)),
        1usize << rank,
    )
    .prop_map(move |data| Tensor::from_flat((0..rank as u32).map(IndexId).collect(), data))
}

fn order(rank: u32) -> VarOrder {
    VarOrder::from_sequence((0..rank).map(IndexId))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip(t in tensor(4)) {
        let order = order(4);
        let mut m = TddManager::new();
        let e = convert::from_tensor(&mut m, &t, &order);
        let back = convert::to_tensor(&m, e, t.indices(), &order);
        prop_assert!(back.approx_eq(&t, 1e-9));
    }

    /// Canonicity: the same tensor built twice maps to the same edge; a
    /// scaled copy shares the node with a different weight.
    #[test]
    fn canonicity(t in tensor(3), scale_re in 0.25f64..4.0) {
        let order = order(3);
        let mut m = TddManager::new();
        let e1 = convert::from_tensor(&mut m, &t, &order);
        let e2 = convert::from_tensor(&mut m, &t, &order);
        prop_assert_eq!(e1, e2);
        let scaled = t.scale(C64::real(scale_re));
        let e3 = convert::from_tensor(&mut m, &scaled, &order);
        prop_assert_eq!(e1.node, e3.node, "scaling must reuse the node");
    }

    #[test]
    fn add_commutes_and_matches_dense(a in tensor(4), b in tensor(4)) {
        let order = order(4);
        let mut m = TddManager::new();
        let ea = convert::from_tensor(&mut m, &a, &order);
        let eb = convert::from_tensor(&mut m, &b, &order);
        let ab = ops::add(&mut m, ea, eb);
        let ba = ops::add(&mut m, eb, ea);
        prop_assert_eq!(ab, ba);
        let dense: Vec<C64> = a.data().iter().zip(b.data()).map(|(&x, &y)| x + y).collect();
        let expected = Tensor::from_flat(a.indices().to_vec(), dense);
        let got = convert::to_tensor(&m, ab, a.indices(), &order);
        prop_assert!(got.approx_eq(&expected, 1e-8));
    }

    #[test]
    fn add_is_associative(a in tensor(3), b in tensor(3), c in tensor(3)) {
        let order = order(3);
        let mut m = TddManager::new();
        let (ea, eb, ec) = {
            let ea = convert::from_tensor(&mut m, &a, &order);
            let eb = convert::from_tensor(&mut m, &b, &order);
            let ec = convert::from_tensor(&mut m, &c, &order);
            (ea, eb, ec)
        };
        let left = {
            let ab = ops::add(&mut m, ea, eb);
            ops::add(&mut m, ab, ec)
        };
        let right = {
            let bc = ops::add(&mut m, eb, ec);
            ops::add(&mut m, ea, bc)
        };
        // Values agree (node identity may differ only by weight
        // tolerance; compare densely).
        let lt = convert::to_tensor(&m, left, a.indices(), &order);
        let rt = convert::to_tensor(&m, right, a.indices(), &order);
        prop_assert!(lt.approx_eq(&rt, 1e-7));
    }

    /// cont(A, B, Γ) matches the dense contraction for random matrices
    /// sharing one index.
    #[test]
    fn cont_matches_dense(a in tensor(2), b in tensor(2)) {
        // Relabel: A over {0,1}, B over {1,2}.
        let a = Tensor::from_flat(vec![IndexId(0), IndexId(1)], a.data().to_vec());
        let b = Tensor::from_flat(vec![IndexId(1), IndexId(2)], b.data().to_vec());
        let order = order(3);
        let mut m = TddManager::new();
        let ea = convert::from_tensor(&mut m, &a, &order);
        let eb = convert::from_tensor(&mut m, &b, &order);
        let set = m.intern_elim_set(vec![1]);
        let prod = ops::cont(&mut m, ea, eb, set);
        let expected = a.contract(&b, &[IndexId(1)]);
        let got = convert::to_tensor(&m, prod, &[IndexId(0), IndexId(2)], &order);
        prop_assert!(got.approx_eq(&expected, 1e-8));
    }

    /// Contraction distributes over addition:
    /// cont(A + B, C) = cont(A, C) + cont(B, C).
    #[test]
    fn cont_distributes_over_add(a in tensor(3), b in tensor(3), c in tensor(3)) {
        let order = order(3);
        let mut m = TddManager::new();
        let ea = convert::from_tensor(&mut m, &a, &order);
        let eb = convert::from_tensor(&mut m, &b, &order);
        let ec = convert::from_tensor(&mut m, &c, &order);
        let set = m.intern_elim_set(vec![0, 1, 2]);
        let left = {
            let sum = ops::add(&mut m, ea, eb);
            ops::cont(&mut m, sum, ec, set)
        };
        let right = {
            let ac = ops::cont(&mut m, ea, ec, set);
            let bc = ops::cont(&mut m, eb, ec, set);
            ops::add(&mut m, ac, bc)
        };
        let lv = m.edge_scalar(left).expect("scalar");
        let rv = m.edge_scalar(right).expect("scalar");
        prop_assert!((lv - rv).abs() < 1e-7, "{lv} vs {rv}");
    }

    /// Node counts never exceed the worst-case bound `2^{r+1}` and the
    /// diagram evaluates correctly at random points after any op.
    #[test]
    fn node_count_bound(t in tensor(5)) {
        let order = order(5);
        let mut m = TddManager::new();
        let e = convert::from_tensor(&mut m, &t, &order);
        prop_assert!(m.node_count(e) <= (1 << 6));
    }
}

#[test]
fn identity_chain_shares_everything() {
    // N identical tensors must cost one conversion's worth of nodes.
    let order = VarOrder::from_sequence((0..2).map(IndexId));
    let t = Tensor::delta(IndexId(0), IndexId(1));
    let mut m = TddManager::new();
    let first = convert::from_tensor(&mut m, &t, &order);
    // Allocation counters are store-owned (a manager's own stats do not
    // carry them).
    let created = m.store().stats().nodes_created;
    assert!(created > 0);
    for _ in 0..10 {
        let again = convert::from_tensor(&mut m, &t, &order);
        assert_eq!(again, first);
    }
    assert_eq!(m.store().stats().nodes_created, created, "no new nodes");
}
