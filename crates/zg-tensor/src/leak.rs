//! Debug-mode autograd graph-leak sanitizer.
//!
//! Every tape node (an op output created while gradient recording is on,
//! with at least one `requires_grad` parent) increments a thread-local
//! counter at construction and decrements it when its `Inner` drops. In
//! release builds the counter is never touched, so the hooks compile to
//! nothing.
//!
//! [`GraphLeakGuard`] is the RAII consumer: it snapshots the live count at
//! construction and asserts on drop that the count returned to that
//! baseline. Wrapping an inference path (which must run entirely under
//! [`crate::no_grad`]) in a guard turns "we accidentally kept autograd
//! state alive" — the classic slow-leak bug in a long eval loop — into an
//! immediate, labelled panic in debug builds.
//!
//! The counter is thread-local because [`crate::Tensor`] itself is
//! single-threaded (`Rc`); create the guard on the thread doing the work.

use std::cell::Cell;

thread_local! {
    static LIVE_TAPE_NODES: Cell<u64> = const { Cell::new(0) };
}

/// Called by `Tensor::from_op` when it builds a tracked (graph) node.
#[inline]
pub(crate) fn node_created() {
    #[cfg(debug_assertions)]
    LIVE_TAPE_NODES.with(|c| c.set(c.get() + 1));
}

/// Called by `Inner::drop` for tracked nodes.
#[inline]
pub(crate) fn node_dropped() {
    #[cfg(debug_assertions)]
    LIVE_TAPE_NODES.with(|c| c.set(c.get().saturating_sub(1)));
}

/// Number of autograd tape nodes currently alive on this thread.
///
/// Always `0` in release builds (the bookkeeping is compiled out).
pub fn live_tape_nodes() -> u64 {
    LIVE_TAPE_NODES.with(|c| c.get())
}

/// RAII assertion that a scope does not leak autograd tape nodes.
///
/// In debug builds, dropping the guard panics if the thread's live tape
/// node count differs from what it was at construction. In release builds
/// the guard is free and never fires. The check is skipped while already
/// panicking so it cannot mask an original failure.
///
/// ```
/// use zg_tensor::{no_grad, GraphLeakGuard, Tensor};
/// let _guard = GraphLeakGuard::new("doc-example");
/// no_grad(|| {
///     let w = Tensor::param(vec![1.0], [1]);
///     let _y = w.mul(&w); // no_grad: detached, nothing leaks
/// });
/// // guard drops here and verifies the tape is back at baseline
/// ```
pub struct GraphLeakGuard {
    label: String,
    baseline: u64,
    pooled_baseline: u64,
}

impl GraphLeakGuard {
    /// Snapshot the current live tape node count and pooled-buffer
    /// checkout count. `label` names the scope in the panic message.
    pub fn new(label: &str) -> Self {
        GraphLeakGuard {
            label: label.to_string(),
            baseline: live_tape_nodes(),
            pooled_baseline: crate::pool::live_pooled_buffers(),
        }
    }
}

impl Drop for GraphLeakGuard {
    fn drop(&mut self) {
        if cfg!(debug_assertions) && !std::thread::panicking() {
            let now = live_tape_nodes();
            assert_eq!(
                now, self.baseline,
                "GraphLeakGuard({}): live autograd tape nodes changed from {} to {} \
                 across the guarded scope — graph state escaped (or was freed) inside \
                 a region that must be tape-neutral",
                self.label, self.baseline, now
            );
            let pooled = crate::pool::live_pooled_buffers();
            assert_eq!(
                pooled, self.pooled_baseline,
                "GraphLeakGuard({}): checked-out pooled buffers changed from {} to {} \
                 across the guarded scope — pooled scratch escaped its backward pass",
                self.label, self.pooled_baseline, pooled
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{no_grad, Tensor};

    #[test]
    fn no_grad_scope_is_tape_neutral() {
        let _guard = GraphLeakGuard::new("no-grad-scope");
        no_grad(|| {
            let w = Tensor::param(vec![1.0, 2.0], [2]);
            let y = w.mul(&w).sum();
            assert!(y.grad().is_none());
        });
    }

    #[test]
    fn balanced_graph_build_and_drop_is_clean() {
        let guard = GraphLeakGuard::new("balanced");
        let before = live_tape_nodes();
        {
            let w = Tensor::param(vec![1.0, 2.0], [2]);
            let loss = w.mul(&w).sum();
            if cfg!(debug_assertions) {
                assert!(live_tape_nodes() > before, "graph nodes should be counted");
            }
            loss.backward();
        }
        // graph dropped: the guard's Drop re-checks the baseline
        drop(guard);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "sanitizer only arms in debug builds")]
    #[should_panic(expected = "GraphLeakGuard(intentional-leak)")]
    fn guard_catches_intentional_leak() {
        // Keep the graph alive past the guard by stashing the op output in
        // an outer slot: the guard must panic on drop.
        let _stash: Option<Tensor>;
        {
            let _guard = GraphLeakGuard::new("intentional-leak");
            let w = Tensor::param(vec![1.0], [1]);
            _stash = Some(w.mul(&w));
        }
    }

    #[test]
    fn counter_tracks_graph_nodes_only() {
        let before = live_tape_nodes();
        let leaf = Tensor::from_vec(vec![1.0], [1]);
        let detached = leaf.mul(&leaf); // no requires_grad parent: not a tape node
        assert_eq!(live_tape_nodes(), before);
        drop(detached);
        drop(leaf);
        assert_eq!(live_tape_nodes(), before);
    }
}
