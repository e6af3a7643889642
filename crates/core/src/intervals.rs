//! Nested interval labels for BFS-tree routing (paper §3).
//!
//! The root owns `[0, n)`; every vertex keeps the first slot of its
//! interval for itself and hands its children consecutive sub-intervals
//! sized by their subtree sizes. Intervals of different branches are
//! disjoint and ancestors' intervals contain descendants' — so a message
//! addressed to a slot can be routed hop-by-hop by picking the child whose
//! interval contains the destination ("it finds a child u of v whose
//! interval I(u) contains I(rF), and sends the message to this child").
//!
//! These are the pure helpers behind Stage A's assignment (carried by
//! `Params`) and Stage D's routing of `Assign` answers; properties
//! (partition, nesting, routability) are tested here directly.

/// Splits a parent interval `[start, start + 1 + Σ sizes)` into the
/// parent's own slot (`start`) and consecutive child intervals
/// `(child_start, child_size)` in the given order.
pub fn assign_children(start: u64, sizes: &[u64]) -> Vec<(u64, u64)> {
    let mut cur = start + 1;
    sizes
        .iter()
        .map(|&s| {
            let iv = (cur, s);
            cur += s;
            iv
        })
        .collect()
}

/// Which child interval contains `dest`? `None` if none does (then `dest`
/// is the current vertex's own slot, or out of range — the caller decides).
pub fn route(children: &[(u64, u64)], dest: u64) -> Option<usize> {
    children.iter().position(|&(s, len)| dest >= s && dest < s + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn partition_is_exact() {
        let ivs = assign_children(10, &[3, 1, 4]);
        assert_eq!(ivs, vec![(11, 3), (14, 1), (15, 4)]);
        // Own slot 10, children cover 11..19: the whole [10, 19).
        assert_eq!(ivs.last().map(|&(s, l)| s + l), Some(19));
    }

    #[test]
    fn route_picks_the_covering_child() {
        let ivs = assign_children(0, &[2, 5, 1]);
        assert_eq!(route(&ivs, 0), None); // own slot
        assert_eq!(route(&ivs, 1), Some(0));
        assert_eq!(route(&ivs, 2), Some(0));
        assert_eq!(route(&ivs, 3), Some(1));
        assert_eq!(route(&ivs, 7), Some(1));
        assert_eq!(route(&ivs, 8), Some(2));
        assert_eq!(route(&ivs, 9), None); // out of range
    }

    #[test]
    fn empty_children() {
        assert!(assign_children(5, &[]).is_empty());
        assert_eq!(route(&[], 5), None);
    }

    proptest! {
        /// Child intervals are disjoint, ordered, contained in the parent's
        /// span, and every inner slot routes to exactly one child.
        #[test]
        fn nested_disjoint_routable(
            start in 0u64..1_000_000,
            sizes in proptest::collection::vec(1u64..50, 0..20),
        ) {
            let ivs = assign_children(start, &sizes);
            let total: u64 = sizes.iter().sum();
            let mut cur = start + 1;
            for (i, &(s, len)) in ivs.iter().enumerate() {
                prop_assert_eq!(s, cur, "child {} must start where the previous ended", i);
                prop_assert_eq!(len, sizes[i]);
                cur += len;
            }
            prop_assert_eq!(cur, start + 1 + total);
            // Routability of every slot in the span except the owner's.
            for dest in (start + 1)..(start + 1 + total) {
                let hit = route(&ivs, dest);
                prop_assert!(hit.is_some());
                let (s, len) = ivs[hit.expect("checked")];
                prop_assert!(dest >= s && dest < s + len);
            }
            prop_assert_eq!(route(&ivs, start), None);
        }
    }
}
