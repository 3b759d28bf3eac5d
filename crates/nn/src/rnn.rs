//! Recurrent cells (LSTM / GRU), unrolled over the time axis.
//!
//! The RNN family is excluded from the AutoCTS compact operator set
//! (§3.2.3) but is required for the *w/o design principles* ablation
//! (Table 1's full operator set) and for the DCRNN / AGCRN / LSTNet /
//! TPA-LSTM baselines.

use crate::{Backend, Linear};
use cts_autograd::Parameter;
use cts_tensor::Tensor;
use rand::Rng;

/// A long short-term memory layer over `[B', T, D]`.
pub struct Lstm {
    wx: Linear, // D -> 4H (i, f, g, o)
    wh: Linear, // H -> 4H
    hidden: usize,
}

impl Lstm {
    /// LSTM mapping input width `d_in` to hidden width `hidden`.
    pub fn new(rng: &mut impl Rng, name: &str, d_in: usize, hidden: usize) -> Self {
        Self {
            wx: Linear::new(rng, &format!("{name}.wx"), d_in, 4 * hidden, true),
            wh: Linear::new(rng, &format!("{name}.wh"), hidden, 4 * hidden, false),
            hidden,
        }
    }

    /// Hidden width `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// One step: `(h, c) = cell(x_t, h, c)`, all `[B', H]`-shaped.
    pub fn step<B: Backend>(&self, be: &B, x_t: &B::V, h: &B::V, c: &B::V) -> (B::V, B::V) {
        let gates = be.add(&self.wx.forward(be, x_t), &self.wh.forward(be, h));
        let hsz = self.hidden;
        let i = be.sigmoid(&be.slice(&gates, 1, 0, hsz));
        let f = be.sigmoid(&be.slice(&gates, 1, hsz, 2 * hsz));
        let g = be.tanh(&be.slice(&gates, 1, 2 * hsz, 3 * hsz));
        let o = be.sigmoid(&be.slice(&gates, 1, 3 * hsz, 4 * hsz));
        let c_new = be.add(&be.mul(&f, c), &be.mul(&i, &g));
        let h_new = be.mul(&o, &be.tanh(&c_new));
        (h_new, c_new)
    }

    /// Unroll over `[B', T, D]`; returns all hidden states `[B', T, H]`.
    pub fn forward_sequence<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let shape = be.shape(x);
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        let mut h = be.constant(Tensor::zeros([b, self.hidden]));
        let mut c = h.clone();
        let mut outputs = Vec::with_capacity(t);
        for ti in 0..t {
            let x_t = be.reshape(be.slice(x, 1, ti, ti + 1), &[b, d]);
            (h, c) = self.step(be, &x_t, &h, &c);
            outputs.push(be.reshape(h.clone(), &[b, 1, self.hidden]));
        }
        let refs: Vec<&B::V> = outputs.iter().collect();
        be.concat(&refs, 1)
    }

    /// Only the final hidden state `[B', H]`.
    pub fn forward_last<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let shape = be.shape(x);
        let (b, t) = (shape[0], shape[1]);
        let all = self.forward_sequence(be, x);
        be.reshape(be.slice(&all, 1, t - 1, t), &[b, self.hidden])
    }

    /// Parameters of the cell.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.wx.parameters();
        v.extend(self.wh.parameters());
        v
    }
}

/// A gated recurrent unit layer over `[B', T, D]`.
pub struct Gru {
    wx_zr: Linear, // D -> 2H (z, r)
    wh_zr: Linear, // H -> 2H
    wx_n: Linear,  // D -> H
    wh_n: Linear,  // H -> H (applied to r ⊙ h)
    hidden: usize,
}

impl Gru {
    /// GRU mapping input width `d_in` to hidden width `hidden`.
    pub fn new(rng: &mut impl Rng, name: &str, d_in: usize, hidden: usize) -> Self {
        Self {
            wx_zr: Linear::new(rng, &format!("{name}.wx_zr"), d_in, 2 * hidden, true),
            wh_zr: Linear::new(rng, &format!("{name}.wh_zr"), hidden, 2 * hidden, false),
            wx_n: Linear::new(rng, &format!("{name}.wx_n"), d_in, hidden, true),
            wh_n: Linear::new(rng, &format!("{name}.wh_n"), hidden, hidden, false),
            hidden,
        }
    }

    /// Hidden width `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// One step: `h' = (1-z)⊙n + z⊙h`.
    pub fn step<B: Backend>(&self, be: &B, x_t: &B::V, h: &B::V) -> B::V {
        let hsz = self.hidden;
        let zr = be.add(&self.wx_zr.forward(be, x_t), &self.wh_zr.forward(be, h));
        let z = be.sigmoid(&be.slice(&zr, 1, 0, hsz));
        let r = be.sigmoid(&be.slice(&zr, 1, hsz, 2 * hsz));
        let n = be.tanh(&be.add(
            &self.wx_n.forward(be, x_t),
            &self.wh_n.forward(be, &be.mul(&r, h)),
        ));
        let one_minus_z = be.add_scalar(&be.neg(&z), 1.0);
        be.add(&be.mul(&one_minus_z, &n), &be.mul(&z, h))
    }

    /// Unroll over `[B', T, D]`; returns all hidden states `[B', T, H]`.
    pub fn forward_sequence<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let shape = be.shape(x);
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        let mut h = be.constant(Tensor::zeros([b, self.hidden]));
        let mut outputs = Vec::with_capacity(t);
        for ti in 0..t {
            let x_t = be.reshape(be.slice(x, 1, ti, ti + 1), &[b, d]);
            h = self.step(be, &x_t, &h);
            outputs.push(be.reshape(h.clone(), &[b, 1, self.hidden]));
        }
        let refs: Vec<&B::V> = outputs.iter().collect();
        be.concat(&refs, 1)
    }

    /// Only the final hidden state `[B', H]`.
    pub fn forward_last<B: Backend>(&self, be: &B, x: &B::V) -> B::V {
        let shape = be.shape(x);
        let (b, t) = (shape[0], shape[1]);
        let all = self.forward_sequence(be, x);
        be.reshape(be.slice(&all, 1, t - 1, t), &[b, self.hidden])
    }

    /// Parameters of the cell.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut v = self.wx_zr.parameters();
        v.extend(self.wh_zr.parameters());
        v.extend(self.wx_n.parameters());
        v.extend(self.wh_n.parameters());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::Tape;
    use cts_tensor::init;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn lstm_shapes() {
        let mut rng = SmallRng::seed_from_u64(0);
        let lstm = Lstm::new(&mut rng, "lstm", 3, 5);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [2, 4, 3], -1.0, 1.0));
        let seq = lstm.forward_sequence(&tape, &x);
        assert_eq!(seq.shape(), vec![2, 4, 5]);
        assert_eq!(lstm.forward_last(&tape, &x).shape(), vec![2, 5]);
    }

    #[test]
    fn gru_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let gru = Gru::new(&mut rng, "gru", 3, 6);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [2, 4, 3], -1.0, 1.0));
        assert_eq!(gru.forward_sequence(&tape, &x).shape(), vec![2, 4, 6]);
        assert_eq!(gru.hidden(), 6);
    }

    #[test]
    fn zero_input_zero_state_stays_bounded() {
        let mut rng = SmallRng::seed_from_u64(2);
        let lstm = Lstm::new(&mut rng, "lstm", 2, 4);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros([1, 10, 2]));
        let y = lstm.forward_sequence(&tape, &x).value();
        assert!(y.max().abs() < 1.0);
    }

    #[test]
    fn rnn_gradients_flow_through_time() {
        let mut rng = SmallRng::seed_from_u64(3);
        let gru = Gru::new(&mut rng, "gru", 2, 3);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, [2, 5, 2], -1.0, 1.0));
        let loss = gru.forward_last(&tape, &x).square().sum_all();
        tape.backward(&loss);
        for p in gru.parameters() {
            assert!(p.grad().norm() > 0.0, "no grad for {}", p.name());
        }
    }

    #[test]
    fn lstm_gradcheck_tiny() {
        use cts_autograd::gradcheck::assert_gradients;
        let mut rng = SmallRng::seed_from_u64(4);
        let lstm = Lstm::new(&mut rng, "lstm", 2, 2);
        let x = init::uniform(&mut rng, [1, 3, 2], -1.0, 1.0);
        let params = lstm.parameters();
        assert_gradients(&params, 1e-2, 5e-2, |tape| {
            let xv = tape.constant(x.clone());
            lstm.forward_last(tape, &xv).square().sum_all()
        });
    }
}
