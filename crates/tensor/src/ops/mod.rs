//! Tensor operations and their analytic gradients.
//!
//! Each differentiable op `f` exposes a forward function and one gradient
//! function per differentiable input, named `f_grad_<input>`. Gradient
//! functions take the upstream gradient (w.r.t. the op output) plus whatever
//! saved values they need and return the gradient w.r.t. that input, already
//! shaped like the input (broadcasting is reduced away internally).
//!
//! Large kernels execute on the persistent worker pool behind
//! [`crate::parallel`] (thread count via `CTS_NUM_THREADS`), with output
//! buffers drawn from the thread-local [`crate::arena`]; [`reference`](mod@reference)
//! holds the naive serial oracles they are tested and benchmarked against.

mod conv;
mod elementwise;
mod matmul;
mod mixed;
mod norm;
mod place;
mod reduce;
mod shapeops;
mod softmax;

pub mod reference;

pub use conv::*;
pub use elementwise::*;
pub use matmul::*;
pub use mixed::*;
pub use norm::*;
pub use place::*;
pub use reduce::*;
pub use shapeops::*;
pub use softmax::*;
