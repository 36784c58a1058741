//! `TensorStore`: a named collection of detached tensors, used for model
//! checkpoints — TracIn-style influence estimation replays gradients at
//! stored checkpoints.

use std::collections::BTreeMap;

use crate::tensor::Tensor;

/// Named tensor collection with deterministic (sorted) ordering.
#[derive(Default)]
pub struct TensorStore {
    entries: BTreeMap<String, Tensor>,
}

impl TensorStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a tensor under `name`. Data is detached — stores
    /// hold values, not graph history.
    pub fn insert(&mut self, name: impl Into<String>, t: &Tensor) {
        self.entries.insert(name.into(), t.detach());
    }

    /// Look up a tensor by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Total number of f32 elements across all tensors.
    pub fn numel(&self) -> usize {
        self.entries.values().map(Tensor::numel).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_detaches_from_graph() {
        let p = Tensor::param(vec![1.0], [1]);
        let mut store = TensorStore::new();
        store.insert("p", &p);
        assert!(!store.get("p").unwrap().requires_grad());
    }

    #[test]
    fn names_sorted_and_numel() {
        let mut store = TensorStore::new();
        store.insert("z", &Tensor::zeros([3]));
        store.insert("a", &Tensor::zeros([2, 2]));
        let names: Vec<&str> = store.names().collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(store.numel(), 7);
    }
}
