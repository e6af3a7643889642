//! Edge-case tests for the nested interval labels of Stage A: singletons,
//! zero-sized children, boundary routing, and the ancestor-containment
//! property (the root's interval covers every descendant's).

use dmst_core::intervals::{assign_children, route};

#[test]
fn singleton_leaf_owns_exactly_its_slot() {
    // A leaf has no children: its interval is just its own slot.
    let ivs = assign_children(17, &[]);
    assert!(ivs.is_empty());
    assert_eq!(route(&ivs, 17), None);
    assert_eq!(route(&ivs, 18), None);
}

#[test]
fn single_child_takes_the_whole_remainder() {
    let ivs = assign_children(0, &[9]);
    assert_eq!(ivs, vec![(1, 9)]);
    for dest in 1..10 {
        assert_eq!(route(&ivs, dest), Some(0));
    }
    assert_eq!(route(&ivs, 0), None);
    assert_eq!(route(&ivs, 10), None);
}

#[test]
fn zero_sized_children_never_capture_routes() {
    // Subtree sizes are always >= 1 in the algorithm, but the helper must
    // stay well-defined for empty intervals: they occupy no slots.
    let ivs = assign_children(0, &[0, 3, 0, 2, 0]);
    assert_eq!(ivs, vec![(1, 0), (1, 3), (4, 0), (4, 2), (6, 0)]);
    assert_eq!(route(&ivs, 1), Some(1), "zero-width child must not shadow its sibling");
    assert_eq!(route(&ivs, 4), Some(3));
    assert_eq!(route(&ivs, 6), None);
}

#[test]
fn boundary_slots_route_to_the_correct_side() {
    let ivs = assign_children(100, &[5, 5]);
    assert_eq!(ivs, vec![(101, 5), (106, 5)]);
    assert_eq!(route(&ivs, 105), Some(0), "last slot of the first child");
    assert_eq!(route(&ivs, 106), Some(1), "first slot of the second child");
    assert_eq!(route(&ivs, 110), Some(1), "last slot of the last child");
    assert_eq!(route(&ivs, 111), None, "one past the end");
    assert_eq!(route(&ivs, 100), None, "owner slot");
    assert_eq!(route(&ivs, 99), None, "before the span");
}

#[test]
fn large_starts_do_not_overflow() {
    let start = u64::MAX - 100;
    let ivs = assign_children(start, &[40, 59]);
    assert_eq!(ivs, vec![(start + 1, 40), (start + 41, 59)]);
    assert_eq!(route(&ivs, u64::MAX - 1), Some(1));
    assert_eq!(route(&ivs, start), None);
}

/// Recursively assigns intervals over an explicit tree and returns every
/// vertex's `(start, total_size)` interval, where `total_size` counts the
/// vertex itself plus all descendants.
fn label_tree(children: &[Vec<usize>], v: usize, start: u64, out: &mut Vec<(u64, u64)>) -> u64 {
    let sizes: Vec<u64> = children[v]
        .iter()
        .map(|&c| {
            // Pre-compute subtree sizes with a probe pass.
            fn size(children: &[Vec<usize>], v: usize) -> u64 {
                1 + children[v].iter().map(|&c| size(children, c)).sum::<u64>()
            }
            size(children, c)
        })
        .collect();
    let ivs = assign_children(start, &sizes);
    let mut total = 1;
    for (&(cs, clen), &c) in ivs.iter().zip(&children[v]) {
        let sub = label_tree(children, c, cs, out);
        assert_eq!(sub, clen, "child interval must equal its subtree size");
        total += sub;
    }
    out[v] = (start, total);
    total
}

#[test]
fn root_interval_covers_all_descendants() {
    // A small irregular tree:
    //         0
    //       / | \
    //      1  2  3
    //     /|     |
    //    4 5     6
    //            |
    //            7
    let children =
        vec![vec![1, 2, 3], vec![4, 5], vec![], vec![6], vec![], vec![], vec![7], vec![]];
    let n = children.len();
    let mut iv = vec![(0u64, 0u64); n];
    let total = label_tree(&children, 0, 0, &mut iv);
    assert_eq!(total, n as u64);
    assert_eq!(iv[0], (0, n as u64), "root owns [0, n)");

    // Ancestor containment: every vertex's interval contains each child's,
    // hence (inductively) all descendants'.
    for v in 0..n {
        let (vs, vlen) = iv[v];
        for &c in &children[v] {
            let (cs, clen) = iv[c];
            assert!(
                vs < cs && cs + clen <= vs + vlen,
                "child {c} interval {:?} escapes parent {v} interval {:?}",
                iv[c],
                iv[v]
            );
        }
    }

    // Sibling disjointness at every vertex.
    for siblings in &children {
        for (i, &a) in siblings.iter().enumerate() {
            for &b in &siblings[i + 1..] {
                let (asv, alen) = iv[a];
                let (bsv, blen) = iv[b];
                assert!(asv + alen <= bsv || bsv + blen <= asv, "siblings {a} and {b} overlap");
            }
        }
    }

    // Every non-root slot is routable hop-by-hop from the root to its
    // owner: simulate the Stage D routing loop.
    for target in 1..n as u64 {
        let mut v = 0usize;
        let mut hops = 0;
        while iv[v].0 != target {
            let sizes: Vec<(u64, u64)> = children[v].iter().map(|&c| iv[c]).collect();
            let next = route(&sizes, target)
                .unwrap_or_else(|| panic!("slot {target} unroutable from vertex {v}"));
            v = children[v][next];
            hops += 1;
            assert!(hops <= n, "routing loop");
        }
    }
}
