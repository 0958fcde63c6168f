//! Top-k selection for the MoE routing oracle.
//!
//! The paper treats top-k as a max-family reduction (Table 1): selecting the
//! `k` largest elements is a segmented reduction whose partial results can be
//! merged. [`topk_sort`] is the definition; [`topk_streaming`] is the one pass
//! [`crate::moe::route_naive`] selects with.

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
/// streaming variant and the tile VM.
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

/// Streaming top-k: maintains the current k best entries while scanning the
/// input once. Equivalent to [`topk_sort`] but single-pass.
pub fn topk_streaming(values: &[f64], k: usize) -> Vec<TopKEntry> {
    assert!(k > 0, "k must be positive");
    assert!(k <= values.len(), "k must not exceed the number of values");
    let mut best: Vec<TopKEntry> = Vec::with_capacity(k + 1);
    for (index, &value) in values.iter().enumerate() {
        let entry = TopKEntry { index, value };
        let pos = best.partition_point(|e| e.order(&entry).is_lt());
        best.insert(pos, entry);
        if best.len() > k {
            best.pop();
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rf_workloads::random_vec;

    #[test]
    fn sort_and_streaming_agree() {
        let values = random_vec(100, 17, -5.0, 5.0);
        for k in [1, 3, 8, 100] {
            assert_eq!(topk_sort(&values, k), topk_streaming(&values, k), "k={k}");
        }
    }

    #[test]
    fn duplicates_break_ties_by_index() {
        let values = vec![2.0, 5.0, 5.0, 1.0];
        let top = topk_streaming(&values, 2);
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
            assert_eq!(indices(topk_streaming(&values, k)), expected, "k={k}");
            assert_eq!(indices(topk_sort(&values, k)), expected, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "k must not exceed")]
    fn oversized_k_panics() {
        topk_streaming(&[1.0, 2.0], 3);
    }

    proptest! {
        #[test]
        fn prop_streaming_equals_sort(
            values in prop::collection::vec(-100.0f64..100.0, 1..128),
            k in 1usize..16,
        ) {
            prop_assume!(k <= values.len());
            prop_assert_eq!(topk_sort(&values, k), topk_streaming(&values, k));
        }

        #[test]
        fn prop_topk_values_are_sorted_descending(
            values in prop::collection::vec(-100.0f64..100.0, 4..64),
        ) {
            let top = topk_streaming(&values, 4);
            for w in top.windows(2) {
                prop_assert!(w[0].value >= w[1].value);
            }
        }
    }
}
