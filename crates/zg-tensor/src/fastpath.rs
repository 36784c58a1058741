//! Thread-local switch for bit-identical op fast paths.
//!
//! Several kernels carry two implementations: a straightforward reference
//! path and an optimized path that performs the *same floating-point
//! operations in the same order* (or skips work whose result is provably
//! discarded, such as gradients of frozen parameters). The optimized paths
//! are on by default. Parity tests pin them both ways to prove
//! bit-identity, and the training gate benchmark times the fast paths
//! against the reference paths they must reproduce.
//!
//! This mirrors [`crate::set_gemm_kernel`]: per-thread state so concurrent
//! training workers and benchmark stages don't interfere.

use std::cell::Cell;

thread_local! {
    static FAST_PATHS: Cell<bool> = const { Cell::new(true) };
}

/// Whether optimized (bit-identical) op fast paths are enabled on this
/// thread. Defaults to `true`.
pub fn op_fast_paths() -> bool {
    FAST_PATHS.with(|f| f.get())
}

/// Enable or disable op fast paths for the current thread, returning the
/// previous setting (restore it when a pinned scope ends).
pub fn set_op_fast_paths(enabled: bool) -> bool {
    FAST_PATHS.with(|f| f.replace(enabled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_on_and_restorable() {
        assert!(op_fast_paths());
        let prev = set_op_fast_paths(false);
        assert!(prev);
        assert!(!op_fast_paths());
        set_op_fast_paths(prev);
        assert!(op_fast_paths());
    }
}
