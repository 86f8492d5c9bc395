//! Dense `f32` tensor substrate for the FedTrans reproduction.
//!
//! The FedTrans paper trains neural networks whose layers are inspected,
//! widened, deepened, cropped, and averaged by the federated-learning
//! runtime. All of those operations need direct access to parameter
//! buffers, so this crate provides a deliberately small, fully owned,
//! row-major tensor type instead of binding to an external framework.
//!
//! # Example
//!
//! ```
//! use ft_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), ft_tensor::TensorError>(())
//! ```

// The raw-pointer kernels must spell out every unsafe operation (clippy
// checks each one's SAFETY comment); docs are part of the public
// contract.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]

mod conv;
mod error;
pub mod fused;
mod init;
mod matmul;
pub mod normals;
mod ops;
pub mod order_stats;
pub mod pool;
pub mod scratch;
pub mod series;
mod settings;
mod shape;
pub mod simd;
mod tensor;
pub mod tune;
pub mod work;

pub use conv::ConvGeometry;
pub use error::TensorError;
pub use init::{he_normal, uniform, xavier_uniform};
pub use settings::Settings;
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;

/// Convenience alias for results produced by tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod smoke {
    use super::Tensor;

    #[test]
    fn core_type_constructs_and_round_trips() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.shape().dims(), &[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
        let through_identity = t.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(through_identity, t);
    }
}
