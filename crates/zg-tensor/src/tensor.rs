//! The [`Tensor`] type: an f32 n-dimensional array participating in a
//! dynamically-built reverse-mode autodiff graph.
//!
//! Design: each `Tensor` is a cheap `Rc` handle onto an immutable-shape node.
//! Operations build fresh nodes that record their parents and a backward
//! closure; [`Tensor::backward`] runs a topological sweep. Creation inside a
//! [`crate::no_grad`] scope detaches nodes from the graph, which is how
//! inference avoids tape overhead.

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::rc::Rc;

use crate::shape::Shape;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    static NO_GRAD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn next_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Run `f` with gradient recording disabled.
///
/// Tensors created inside the scope carry no parents or backward closures,
/// so forward passes for evaluation cost no tape memory.
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    NO_GRAD_DEPTH.with(|c| c.set(c.get() + 1));
    let out = f();
    NO_GRAD_DEPTH.with(|c| c.set(c.get() - 1));
    out
}

/// Whether gradient recording is currently enabled on this thread.
pub fn grad_enabled() -> bool {
    NO_GRAD_DEPTH.with(|c| c.get() == 0)
}

/// Backward closure: reads the output node's gradient and accumulates into
/// its parents' gradients.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor)>;

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) shape: Shape,
    pub(crate) data: RefCell<Vec<f32>>,
    pub(crate) grad: RefCell<Option<Vec<f32>>>,
    pub(crate) requires_grad: Cell<bool>,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
    /// Whether this node was recorded on the autograd tape at construction.
    /// Feeds the debug-mode leak sanitizer (see [`crate::GraphLeakGuard`]);
    /// `parents`/`backward` cannot be consulted instead because the
    /// iterative teardown below empties them before `drop` runs.
    pub(crate) tracked: bool,
}

/// An f32 tensor with optional autograd tracking. Cloning is cheap (`Rc`).
#[derive(Clone)]
pub struct Tensor(pub(crate) Rc<Inner>);

impl Drop for Inner {
    fn drop(&mut self) {
        if self.tracked {
            crate::leak::node_dropped();
        }
        // Recycle this node's data and gradient buffers: op outputs in a
        // training step are multi-megabyte and short-lived, so returning
        // them to the thread-local pool lets the next step reuse them
        // instead of round-tripping pages through the allocator.
        crate::pool::recycle(std::mem::take(self.data.get_mut()));
        if let Some(g) = self.grad.get_mut().take() {
            crate::pool::recycle(g);
        }
        // Iterative graph teardown: a transformer training graph is a chain
        // thousands of nodes long, and the default recursive Rc drop would
        // overflow the stack — both via `parents` and via the parent handles
        // captured inside `backward` closures. Unwind on a worklist, dropping
        // each node's closure while the stack still holds live clones of its
        // parents (so the closure drop cannot cascade).
        let mut stack: Vec<Tensor> = std::mem::take(&mut self.parents);
        drop(self.backward.take());
        while let Some(t) = stack.pop() {
            if let Ok(mut inner) = Rc::try_unwrap(t.0) {
                // Last handle: steal its parents before its own Drop runs
                // (which then sees an empty list and cannot recurse).
                stack.append(&mut inner.parents);
                drop(inner.backward.take());
            }
        }
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let data = self.0.data.borrow();
        let preview: Vec<f32> = data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(id={}, shape={}, requires_grad={}, data≈{:?}{})",
            self.0.id,
            self.0.shape,
            self.0.requires_grad.get(),
            preview,
            if data.len() > 8 { "…" } else { "" }
        )
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Leaf tensor from raw data. `requires_grad=false`; call
    /// [`Tensor::set_requires_grad`] (or use [`Tensor::param`]) for parameters.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor(Rc::new(Inner {
            id: next_id(),
            shape,
            data: RefCell::new(data),
            grad: RefCell::new(None),
            requires_grad: Cell::new(false),
            parents: Vec::new(),
            backward: None,
            tracked: false,
        }))
    }

    /// Trainable leaf parameter (gradient will be accumulated on backward).
    pub fn param(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let t = Self::from_vec(data, shape);
        t.set_requires_grad(true);
        t
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Self::from_vec(crate::pool::take_zeroed(n), shape)
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Self::from_vec(vec![1.0; n], shape)
    }

    /// Tensor filled with `v`.
    pub fn full(shape: impl Into<Shape>, v: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Self::from_vec(vec![v; n], shape)
    }

    /// Internal: build an op-output node. When recording is disabled (or no
    /// parent participates in the graph) the node is detached.
    pub(crate) fn from_op(
        data: Vec<f32>,
        shape: Shape,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Self {
        assert_eq!(data.len(), shape.numel());
        let track = grad_enabled() && parents.iter().any(|p| p.0.requires_grad.get());
        if track {
            crate::leak::node_created();
        }
        Tensor(Rc::new(Inner {
            id: next_id(),
            shape,
            data: RefCell::new(data),
            grad: RefCell::new(None),
            requires_grad: Cell::new(track),
            parents: if track { parents } else { Vec::new() },
            backward: if track { Some(backward) } else { None },
            tracked: track,
        }))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Unique node id (monotonically increasing per thread).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.0.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.0.shape.dims()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.0.shape.numel()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.shape.rank()
    }

    /// Borrow the underlying data (row-major).
    pub fn data(&self) -> Ref<'_, Vec<f32>> {
        self.0.data.borrow()
    }

    /// Mutably borrow the underlying data. Only sensible for leaves
    /// (optimizer updates); mutating op outputs invalidates saved state.
    pub fn data_mut(&self) -> RefMut<'_, Vec<f32>> {
        self.0.data.borrow_mut()
    }

    /// Copy data out as a `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.0.data.borrow().clone()
    }

    /// Scalar value of a single-element tensor.
    pub fn item(&self) -> f32 {
        let d = self.0.data.borrow();
        assert_eq!(d.len(), 1, "item() on tensor with {} elements", d.len());
        d[0]
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        let strides = self.0.shape.strides();
        assert_eq!(index.len(), strides.len());
        let mut off = 0;
        for (i, (&ix, &st)) in index.iter().zip(&strides).enumerate() {
            assert!(ix < self.dims()[i], "index {index:?} out of bounds");
            off += ix * st;
        }
        self.0.data.borrow()[off]
    }

    /// Whether this node participates in the autograd graph.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad.get()
    }

    /// Toggle gradient accumulation for a leaf.
    ///
    /// Panics when called on an op output — detach instead.
    pub fn set_requires_grad(&self, v: bool) {
        assert!(
            self.0.parents.is_empty(),
            "set_requires_grad on non-leaf tensor"
        );
        self.0.requires_grad.set(v);
    }

    /// Current accumulated gradient, if any.
    pub fn grad(&self) -> Option<Vec<f32>> {
        self.0.grad.borrow().clone()
    }

    /// Run `f` over the accumulated gradient without cloning it, if one
    /// is present. The optimizer's fused clip+step uses this to read each
    /// gradient exactly once per traversal.
    pub fn with_grad<T>(&self, f: impl FnOnce(&[f32]) -> T) -> Option<T> {
        self.0.grad.borrow().as_deref().map(f)
    }

    /// Gradient, or zeros when none has been accumulated.
    pub fn grad_or_zeros(&self) -> Vec<f32> {
        self.0
            .grad
            .borrow()
            .clone()
            .unwrap_or_else(|| vec![0.0; self.numel()])
    }

    /// Clear this tensor's gradient.
    pub fn zero_grad(&self) {
        if let Some(g) = self.0.grad.borrow_mut().take() {
            crate::pool::recycle(g);
        }
    }

    /// Accumulate `g` into this tensor's gradient buffer.
    pub fn accumulate_grad(&self, g: &[f32]) {
        assert_eq!(g.len(), self.numel(), "gradient shape mismatch");
        let mut slot = self.0.grad.borrow_mut();
        match slot.as_mut() {
            Some(buf) => {
                for (b, &x) in buf.iter_mut().zip(g) {
                    *b += x;
                }
            }
            None => {
                let mut buf = crate::pool::take_scratch(g.len());
                buf.copy_from_slice(g);
                *slot = Some(buf);
            }
        }
    }

    /// Borrow this node's gradient inside a backward closure.
    ///
    /// Centralizes the one unwrap every backward closure needs: the sweep
    /// in `autograd.rs` only invokes a closure after checking that the
    /// output gradient is present, so the `None` arm is unreachable from
    /// the public API.
    pub(crate) fn out_grad(&self) -> Ref<'_, Vec<f32>> {
        Ref::map(self.0.grad.borrow(), |g| {
            // INVARIANT: backward_with checks `grad.borrow().is_some()`
            // before running the closure that calls this.
            g.as_ref().expect("output grad seeded")
        })
    }

    /// A detached copy of this tensor's values (new leaf, no graph history).
    pub fn detach(&self) -> Tensor {
        Tensor::from_vec(self.to_vec(), self.shape().clone())
    }

    /// Overwrite this leaf's data in place (e.g. optimizer step).
    pub fn set_data(&self, data: &[f32]) {
        let mut d = self.0.data.borrow_mut();
        assert_eq!(d.len(), data.len());
        d.copy_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_shape_mismatch_panics() {
        Tensor::from_vec(vec![1.0; 3], [2, 2]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros([2, 3]).to_vec(), vec![0.0; 6]);
        assert_eq!(Tensor::ones([3]).to_vec(), vec![1.0; 3]);
        assert_eq!(Tensor::full([2], 7.0).to_vec(), vec![7.0, 7.0]);
    }

    #[test]
    fn grad_accumulation() {
        let t = Tensor::param(vec![0.0; 3], [3]);
        assert!(t.grad().is_none());
        t.accumulate_grad(&[1.0, 2.0, 3.0]);
        t.accumulate_grad(&[1.0, 1.0, 1.0]);
        assert_eq!(t.grad().unwrap(), vec![2.0, 3.0, 4.0]);
        t.zero_grad();
        assert!(t.grad().is_none());
        assert_eq!(t.grad_or_zeros(), vec![0.0; 3]);
    }

    #[test]
    fn no_grad_scope_detaches() {
        assert!(grad_enabled());
        no_grad(|| {
            assert!(!grad_enabled());
            no_grad(|| assert!(!grad_enabled()));
            assert!(!grad_enabled());
        });
        assert!(grad_enabled());
    }

    #[test]
    fn detach_breaks_history() {
        let t = Tensor::param(vec![1.0, 2.0], [2]);
        let d = t.detach();
        assert!(!d.requires_grad());
        assert_eq!(d.to_vec(), t.to_vec());
    }

    #[test]
    fn set_data_updates_leaf() {
        let t = Tensor::param(vec![0.0; 2], [2]);
        t.set_data(&[5.0, 6.0]);
        assert_eq!(t.to_vec(), vec![5.0, 6.0]);
    }
}
