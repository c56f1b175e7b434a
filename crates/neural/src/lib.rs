//! # neural — a minimal from-scratch neural-network library
//!
//! Supplies the function approximators for the deep-RL stack of the
//! *Self-Configurable NoC* reproduction: dense layers with ReLU/tanh/sigmoid
//! activations, MSE and Huber losses, SGD/Adam optimizers, and
//! JSON model serialization. No external ML dependency.
//!
//! ```
//! use neural::{Activation, Loss, Matrix, Mlp, Adam};
//!
//! // Fit y = x1 + x2 on a tiny batch.
//! let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Linear, 0);
//! let x = Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]);
//! let t = Matrix::from_vec(2, 1, vec![0.3, 0.7]);
//! let mut opt = Adam::new(0.01);
//! for _ in 0..100 {
//!     net.train_batch(&x, &t, Loss::Mse, &mut opt);
//! }
//! let pred = net.predict(&x);
//! assert!((pred.get(0, 0) - 0.3).abs() < 0.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod init;
pub mod layer;
pub mod loss;
pub mod network;
pub mod optim;
pub mod tensor;

pub use activation::Activation;
pub use init::Init;
pub use layer::Dense;
pub use loss::Loss;
pub use network::{Mlp, ModelIoError};
pub use optim::{Adam, Optimizer, Sgd};
pub use tensor::Matrix;
