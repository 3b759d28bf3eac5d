//! Trainable parameters that live outside any tape.

use cts_tensor::Tensor;
use std::cell::{Ref, RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

struct ParamInner {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// A named, trainable tensor shared between modules, tapes, and optimizers.
///
/// Cloning a `Parameter` is cheap and aliases the same storage — the clone
/// seen by an optimizer updates the weights the model reads on the next
/// forward pass. Gradients accumulate across [`crate::Tape::backward`] calls
/// until [`Parameter::zero_grad`] is invoked; a
/// [`crate::Tape::backward_for`] sweep that does not name a parameter
/// leaves its gradient as it is.
#[derive(Clone)]
pub struct Parameter {
    inner: Rc<RefCell<ParamInner>>,
}

impl Parameter {
    /// Create a parameter with an initial value; gradient starts at zero.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self {
            inner: Rc::new(RefCell::new(ParamInner {
                name: name.into(),
                value,
                grad,
            })),
        }
    }

    /// The parameter's name (used in diagnostics and checkpoints).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Borrow the current value.
    pub fn value(&self) -> Ref<'_, Tensor> {
        Ref::map(self.inner.borrow(), |p| &p.value)
    }

    /// Mutably borrow the current value (used by optimizers).
    pub fn value_mut(&self) -> RefMut<'_, Tensor> {
        RefMut::map(self.inner.borrow_mut(), |p| &mut p.value)
    }

    /// Borrow the accumulated gradient.
    pub fn grad(&self) -> Ref<'_, Tensor> {
        Ref::map(self.inner.borrow(), |p| &p.grad)
    }

    /// Mutably borrow the gradient (used by clipping).
    pub fn grad_mut(&self) -> RefMut<'_, Tensor> {
        RefMut::map(self.inner.borrow_mut(), |p| &mut p.grad)
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.inner.borrow().value.len()
    }

    /// True for zero-sized parameters (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.borrow().value.shape().to_vec()
    }

    /// Reset the accumulated gradient to zero.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad.fill(0.0);
    }

    /// Accumulate `g` into the gradient buffer.
    pub(crate) fn accumulate_grad(&self, g: &Tensor) {
        self.inner.borrow_mut().grad.axpy(1.0, g);
    }

    /// Overwrite the value (used for checkpoint restore / re-init).
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.value.shape(),
            value.shape(),
            "set_value shape mismatch"
        );
        inner.value = value;
    }

    /// True when both sides alias the same storage.
    pub fn ptr_eq(&self, other: &Parameter) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Identity key: the address of the shared storage, equal for two
    /// parameters exactly when [`Parameter::ptr_eq`] holds.
    pub(crate) fn key(&self) -> usize {
        Rc::as_ptr(&self.inner) as usize
    }
}

impl fmt::Debug for Parameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Parameter({:?}, shape {:?})",
            inner.name,
            inner.value.shape()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_aliases_storage() {
        let p = Parameter::new("w", Tensor::zeros([2]));
        let q = p.clone();
        q.value_mut().data_mut()[0] = 5.0;
        assert_eq!(p.value().data()[0], 5.0);
        assert!(p.ptr_eq(&q));
    }

    #[test]
    fn grad_accumulates_until_zeroed() {
        let p = Parameter::new("w", Tensor::zeros([2]));
        p.accumulate_grad(&Tensor::ones([2]));
        p.accumulate_grad(&Tensor::ones([2]));
        assert_eq!(p.grad().data(), &[2.0, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn set_value_shape_checked() {
        let p = Parameter::new("w", Tensor::zeros([2]));
        p.set_value(Tensor::zeros([3]));
    }
}
