//! Shape and stride arithmetic shared by all tensor operations.
//!
//! Shapes are row-major (`C` order). Broadcasting follows NumPy semantics:
//! shapes are right-aligned and a dimension of `1` stretches to match.

/// A tensor shape: dimension sizes in row-major order.
///
/// An empty shape denotes a scalar (one element).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(pub Vec<usize>);

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl Shape {
    /// Create a shape from dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Resolve a possibly-negative axis to a concrete index.
    ///
    /// Panics when the axis is out of range.
    pub fn resolve_axis(&self, axis: isize) -> usize {
        let r = self.rank() as isize;
        let a = if axis < 0 { axis + r } else { axis };
        assert!(
            (0..r).contains(&a),
            "axis {axis} out of range for rank {r} shape {self}"
        );
        a as usize
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0usize; self.rank()];
        let mut acc = 1usize;
        for (i, &d) in self.0.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }

    /// Broadcast two shapes together, NumPy style.
    ///
    /// Returns `None` when the shapes are incompatible.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut out = vec![0usize; rank];
        for i in 0..rank {
            let a = *self.0.get(self.rank().wrapping_sub(1 + i)).unwrap_or(&1);
            let b = *other.0.get(other.rank().wrapping_sub(1 + i)).unwrap_or(&1);
            let d = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return None;
            };
            out[rank - 1 - i] = d;
        }
        Some(Shape(out))
    }

    /// Whether `self` can broadcast to exactly `target`.
    pub fn broadcasts_to(&self, target: &Shape) -> bool {
        match self.broadcast(target) {
            Some(s) => s == *target,
            None => false,
        }
    }

    /// Strides to iterate `self` as if it had shape `target` (broadcast view).
    ///
    /// Dimensions of size 1 (or missing leading dimensions) get stride 0.
    pub fn broadcast_strides(&self, target: &Shape) -> Vec<usize> {
        debug_assert!(self.broadcasts_to(target), "{self} !-> {target}");
        let own = self.strides();
        let offset = target.rank() - self.rank();
        let mut out = vec![0usize; target.rank()];
        for i in 0..self.rank() {
            if self.0[i] != 1 {
                out[offset + i] = own[i];
            }
        }
        out
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

/// Iterate all multi-dimensional indices of `shape` in row-major order,
/// yielding the flat offset under `strides` (which may be broadcast strides).
pub struct StridedIter<'a> {
    dims: &'a [usize],
    strides: &'a [usize],
    index: Vec<usize>,
    offset: usize,
    remaining: usize,
}

impl<'a> StridedIter<'a> {
    /// Create an iterator over `dims` using `strides` for offsets.
    pub fn new(dims: &'a [usize], strides: &'a [usize]) -> Self {
        let remaining = dims.iter().product();
        StridedIter {
            dims,
            strides,
            index: vec![0; dims.len()],
            offset: 0,
            remaining,
        }
    }
}

impl Iterator for StridedIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let out = self.offset;
        self.remaining -= 1;
        // Advance odometer from the innermost dimension.
        for i in (0..self.dims.len()).rev() {
            self.index[i] += 1;
            self.offset += self.strides[i];
            if self.index[i] < self.dims[i] {
                break;
            }
            self.offset -= self.strides[i] * self.dims[i];
            self.index[i] = 0;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for StridedIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.numel(), 6);
        assert_eq!(s.rank(), 2);
        assert_eq!(Shape::new(&[]).numel(), 1);
    }

    #[test]
    fn negative_axis_resolution() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.resolve_axis(-1), 2);
        assert_eq!(s.resolve_axis(-3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn axis_out_of_range_panics() {
        Shape::new(&[2]).resolve_axis(3);
    }

    #[test]
    fn broadcast_compatible() {
        let a = Shape::new(&[3, 1]);
        let b = Shape::new(&[1, 4]);
        assert_eq!(a.broadcast(&b).unwrap(), Shape::new(&[3, 4]));
        let c = Shape::new(&[2, 3, 4]);
        let d = Shape::new(&[4]);
        assert_eq!(c.broadcast(&d).unwrap(), Shape::new(&[2, 3, 4]));
    }

    #[test]
    fn broadcast_incompatible() {
        assert!(Shape::new(&[3]).broadcast(&Shape::new(&[4])).is_none());
        assert!(Shape::new(&[2, 3])
            .broadcast(&Shape::new(&[3, 2]))
            .is_none());
    }

    #[test]
    fn broadcast_scalar() {
        let s = Shape::new(&[]);
        let t = Shape::new(&[2, 2]);
        assert_eq!(s.broadcast(&t).unwrap(), t);
        assert!(s.broadcasts_to(&t));
    }

    #[test]
    fn broadcast_strides_zeroed() {
        let a = Shape::new(&[3, 1]);
        let t = Shape::new(&[2, 3, 4]);
        assert_eq!(a.broadcast_strides(&t), vec![0, 1, 0]);
    }

    #[test]
    fn strided_iter_contiguous() {
        let s = Shape::new(&[2, 3]);
        let st = s.strides();
        let offs: Vec<usize> = StridedIter::new(s.dims(), &st).collect();
        assert_eq!(offs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn strided_iter_broadcast() {
        // Shape [3,1] broadcast over [3,2]: each row element repeats twice.
        let a = Shape::new(&[3, 1]);
        let t = Shape::new(&[3, 2]);
        let bs = a.broadcast_strides(&t);
        let offs: Vec<usize> = StridedIter::new(t.dims(), &bs).collect();
        assert_eq!(offs, vec![0, 0, 1, 1, 2, 2]);
    }
}
