//! Top-k selection for the MoE routing oracle.
//!
//! The paper treats top-k as a max-family reduction (Table 1): selecting the
//! `k` largest elements is a segmented reduction whose partial results can be
//! merged. [`topk_sort`] is the definition; [`topk_streaming`] is the one pass
//! [`crate::moe::route_naive`] selects with.

/// An index/value pair produced by top-k selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEntry {
    /// Index of the element in the original sequence.
    pub index: usize,
    /// Value of the element.
    pub value: f64,
}

/// Selects the `k` largest elements by fully sorting a copy of the input
/// (the unfused reference implementation).
///
/// Ties are broken towards the smaller index, matching the streaming variant.
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
    entries.sort_by(|a, b| {
        b.value
            .partial_cmp(&a.value)
            .unwrap()
            .then(a.index.cmp(&b.index))
    });
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
        let pos = best
            .iter()
            .position(|e| value > e.value || (value == e.value && index < e.index))
            .unwrap_or(best.len());
        best.insert(pos, TopKEntry { index, value });
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
