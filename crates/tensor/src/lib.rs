//! Dense linear-algebra substrate for the MILLION reproduction.
//!
//! This crate provides the small set of numerical building blocks that the
//! transformer substrate (`million-model`) and the quantization crates are
//! built on: a row-major [`Matrix`] type with (optionally parallel) GEMM,
//! attention-related primitives (softmax, [`OnlineSoftmax`]), normalisation
//! layers, and the three positional-embedding schemes used by the models in
//! Table I of the paper (RoPE, ALiBi, absolute).
//!
//! Everything here is deterministic and CPU-only; GPU kernels from the paper
//! are reproduced algorithmically (same arithmetic, same data layout
//! decisions) and their cost is measured on the CPU (see `docs/PERF.md`).
//!
//! # Example
//!
//! ```
//! use million_tensor::{Matrix, ops};
//!
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), (2, 2));
//!
//! let mut row = vec![1.0_f32, 2.0, 3.0];
//! ops::softmax_in_place(&mut row);
//! assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod alibi;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod online_softmax;
pub mod ops;
pub mod prompt_attention;
pub mod rope;
pub mod view;

pub use gemm::GemmScratch;
pub use matrix::Matrix;
pub use online_softmax::OnlineSoftmax;
pub use rope::Rope;
pub use view::StridedRows;

/// Crate-wide error type for shape and argument validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: (usize, usize),
        /// Shape of the right-hand operand.
        rhs: (usize, usize),
    },
    /// An argument was outside its valid range.
    InvalidArgument(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{} vs rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let err = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert!(err.to_string().contains("matmul"));
        let err = TensorError::InvalidArgument("bad".into());
        assert!(err.to_string().contains("bad"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
