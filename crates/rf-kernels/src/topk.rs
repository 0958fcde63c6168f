//! Top-k selection for the MoE routing oracle.
//!
//! The paper treats top-k as a max-family reduction (Table 1): selecting the
//! `k` largest elements is a segmented reduction whose partial results can be
//! merged. The oracle selects by its definition, [`topk_sort`], which shares
//! no code with the tile VM's streaming insert: a fault in that insert cannot
//! hide in both.

use std::cmp::Ordering;

use rf_workloads::moe::score_order;

/// An index/value pair produced by top-k selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEntry {
    /// Index of the element in the original sequence.
    pub index: usize,
    /// Value of the element.
    pub value: f64,
}

impl TopKEntry {
    /// The ordering of [`score_order`]: larger first, ties to the smaller
    /// index, NaN last.
    fn order(&self, other: &TopKEntry) -> Ordering {
        score_order((self.index, self.value), (other.index, other.value))
    }
}

/// Selects the `k` largest elements by fully sorting a copy of the input
/// (the unfused reference implementation), under routing's [`score_order`]:
/// ties go to the smaller index and NaN ranks below every number, as in the
/// tile VM.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the input length.
pub fn topk_sort(values: &[f64], k: usize) -> Vec<TopKEntry> {
    assert!(k > 0, "k must be positive");
    assert!(k <= values.len(), "k must not exceed the number of values");
    let mut entries: Vec<TopKEntry> = values
        .iter()
        .enumerate()
        .map(|(index, &value)| TopKEntry { index, value })
        .collect();
    entries.sort_by(TopKEntry::order);
    entries.truncate(k);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn duplicates_break_ties_by_index() {
        let values = vec![2.0, 5.0, 5.0, 1.0];
        let top = topk_sort(&values, 2);
        assert_eq!(top[0].index, 1);
        assert_eq!(top[1].index, 2);
    }

    #[test]
    fn nan_ranks_below_every_number() {
        // Before the total order, the NaN at 0 blocked every later value and
        // `topk_sort` panicked.
        let values = [f64::NAN, 1.0, f64::NAN, 3.0, f64::NEG_INFINITY, 2.0];
        let indices = |top: Vec<TopKEntry>| -> Vec<usize> { top.iter().map(|e| e.index).collect() };
        for k in 1..=values.len() {
            let expected = &[3, 5, 1, 4, 0, 2][..k];
            assert_eq!(indices(topk_sort(&values, k)), expected, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "k must not exceed")]
    fn oversized_k_panics() {
        topk_sort(&[1.0, 2.0], 3);
    }

    proptest! {
        #[test]
        fn prop_topk_values_are_sorted_descending(
            values in prop::collection::vec(-100.0f64..100.0, 4..64),
        ) {
            let top = topk_sort(&values, 4);
            for w in top.windows(2) {
                prop_assert!(w[0].value >= w[1].value);
            }
        }
    }
}
