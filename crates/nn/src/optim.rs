//! Optimizers used in the FedTrans evaluation.
//!
//! Clients run [`Sgd`] (whose step cursor takes a proximal anchor,
//! [`SgdStep::apply_prox`], to reproduce the FedProx experiments of
//! Fig. 8); the server-side adaptive [`Yogi`] optimizer reproduces the
//! FedYogi arm.
//!
//! Both optimizers apply their updates through the fused one-pass
//! kernels in [`ft_tensor::fused`]: one zipped traversal per tensor,
//! no per-element bounds checks, no materialized intermediate
//! gradients. The slice-based `step` APIs are unchanged; the
//! [`Sgd::begin_step`] cursor additionally lets callers stream
//! `(parameter, gradient)` pairs straight off a model without
//! collecting reference vectors — the allocation-free path the client
//! trainer uses.

use serde::{Deserialize, Serialize};

use ft_tensor::{fused, Tensor};

use crate::{NnError, Result};

/// Stochastic gradient descent with momentum and weight decay.
///
/// Holds one velocity buffer per parameter tensor; the parameter list
/// must keep a stable order across steps (model surgery resets state).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer with the given learning rate and no momentum.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets L2 weight decay.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Begins one optimization step applied pair-by-pair.
    ///
    /// The returned cursor consumes `(parameter, gradient)` pairs in
    /// the model's stable tensor order via [`SgdStep::apply`]; call
    /// [`SgdStep::finish`] to validate that every velocity slot was
    /// visited. This streaming form needs no slice of references and
    /// no gradient clones, which is what keeps the warm train step
    /// allocation-free.
    pub fn begin_step(&mut self) -> SgdStep<'_> {
        SgdStep {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            velocity: &mut self.velocity,
            idx: 0,
        }
    }

    /// Applies one update: `p -= lr * (g + wd * p)` with momentum.
    ///
    /// `params` and `grads` must be parallel slices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::OptimizerStateMismatch`] when the list length
    /// changes between steps (e.g. after unannounced model surgery).
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) -> Result<()> {
        if params.len() != grads.len() {
            return Err(NnError::OptimizerStateMismatch {
                expected: params.len(),
                actual: grads.len(),
            });
        }
        if !self.velocity.is_empty() && self.velocity.len() != params.len() {
            return Err(NnError::OptimizerStateMismatch {
                expected: self.velocity.len(),
                actual: params.len(),
            });
        }
        let mut step = self.begin_step();
        for (p, g) in params.iter_mut().zip(grads) {
            step.apply(p, g);
        }
        step.finish()
    }
}

/// An in-flight [`Sgd`] step; see [`Sgd::begin_step`].
pub struct SgdStep<'a> {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: &'a mut Vec<Tensor>,
    idx: usize,
}

impl SgdStep<'_> {
    /// Applies the fused momentum update to the next parameter in the
    /// sequence. A missing velocity slot is created lazily; a
    /// shape-mismatched one (model surgery resized the tensor) is
    /// restarted at zero, exactly as the slice API always did.
    pub fn apply(&mut self, p: &mut Tensor, g: &Tensor) {
        if self.velocity.len() == self.idx {
            self.velocity.push(Tensor::zeros(p.shape().dims()));
        }
        let v = &mut self.velocity[self.idx];
        if v.shape() != p.shape() {
            // Model surgery resized this tensor; restart its momentum.
            *v = Tensor::zeros(p.shape().dims());
        }
        fused::sgd_momentum_update(
            p.data_mut(),
            v.data_mut(),
            g.data(),
            self.lr,
            self.momentum,
            self.weight_decay,
        );
        self.idx += 1;
    }

    /// Fused FedProx variant: SGD plus a proximal pull toward `anchor`
    /// (the global weights at round start), folding
    /// `g + mu * (p - anchor)` into the same single pass. Behaviorally
    /// identical to adjusting the gradient out of place and then
    /// applying [`SgdStep::apply`]; momentum and weight decay act on the
    /// adjusted gradient.
    pub fn apply_prox(&mut self, p: &mut Tensor, g: &Tensor, anchor: &Tensor, mu: f32) {
        if anchor.shape() != p.shape() {
            // Anchor from before a resize: the proximal term is
            // undefined, fall back to plain SGD (legacy behavior).
            self.apply(p, g);
            return;
        }
        if self.velocity.len() == self.idx {
            self.velocity.push(Tensor::zeros(p.shape().dims()));
        }
        let v = &mut self.velocity[self.idx];
        if v.shape() != p.shape() {
            *v = Tensor::zeros(p.shape().dims());
        }
        fused::prox_sgd_momentum_update(
            p.data_mut(),
            v.data_mut(),
            g.data(),
            anchor.data(),
            mu,
            self.lr,
            self.momentum,
            self.weight_decay,
        );
        self.idx += 1;
    }

    /// Ends the step.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::OptimizerStateMismatch`] when fewer pairs
    /// were applied than the optimizer holds velocity buffers for —
    /// the stale-state condition the slice API rejects up front.
    pub fn finish(self) -> Result<()> {
        if self.idx != self.velocity.len() {
            return Err(NnError::OptimizerStateMismatch {
                expected: self.velocity.len(),
                actual: self.idx,
            });
        }
        Ok(())
    }
}

/// Server-side Yogi optimizer (FedYogi): adaptive update applied to the
/// aggregate pseudo-gradient `delta = w_agg - w_server`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Yogi {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Yogi {
    /// Creates a Yogi optimizer with the paper-standard betas.
    pub fn new(lr: f32) -> Self {
        Yogi {
            lr,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies the Yogi update to the server weights given client deltas.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::OptimizerStateMismatch`] when the tensor count
    /// changes between rounds.
    pub fn step(&mut self, params: &mut [&mut Tensor], deltas: &[&Tensor]) -> Result<()> {
        if params.len() != deltas.len() {
            return Err(NnError::OptimizerStateMismatch {
                expected: params.len(),
                actual: deltas.len(),
            });
        }
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().dims()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().dims()))
                .collect();
        }
        if self.m.len() != params.len() {
            return Err(NnError::OptimizerStateMismatch {
                expected: self.m.len(),
                actual: params.len(),
            });
        }
        for (((p, d), m), v) in params
            .iter_mut()
            .zip(deltas)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            if m.shape() != p.shape() {
                *m = Tensor::zeros(p.shape().dims());
                *v = Tensor::zeros(p.shape().dims());
            }
            fused::yogi_update(
                p.data_mut(),
                m.data_mut(),
                v.data_mut(),
                d.data(),
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p], &[&g]).unwrap();
        assert!((p.data()[0] - 0.9).abs() < 1e-6);
        assert!((p.data()[1] - 1.1).abs() < 1e-6);
    }

    #[test]
    fn momentum_accelerates() {
        let g = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let mut plain = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        let mut heavy = plain.clone();
        let mut o1 = Sgd::new(0.1);
        let mut o2 = Sgd::new(0.1).with_momentum(0.9);
        for _ in 0..5 {
            o1.step(&mut [&mut plain], &[&g]).unwrap();
            o2.step(&mut [&mut heavy], &[&g]).unwrap();
        }
        assert!(heavy.data()[0] < plain.data()[0]);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut p = Tensor::from_vec(vec![10.0], &[1]).unwrap();
        let g = Tensor::zeros(&[1]);
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        opt.step(&mut [&mut p], &[&g]).unwrap();
        assert!(p.data()[0] < 10.0);
    }

    #[test]
    fn prox_pulls_toward_anchor() {
        let anchor = Tensor::zeros(&[1]);
        let mut p = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let g = Tensor::zeros(&[1]);
        let mut opt = Sgd::new(0.1);
        let mut cur = opt.begin_step();
        cur.apply_prox(&mut p, &g, &anchor, 1.0);
        cur.finish().unwrap();
        assert!(p.data()[0] < 1.0, "proximal term should pull toward 0");
    }

    #[test]
    fn yogi_applies_positive_delta() {
        let mut p = Tensor::zeros(&[1]);
        let d = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let mut opt = Yogi::new(0.1);
        opt.step(&mut [&mut p], &[&d]).unwrap();
        assert!(p.data()[0] > 0.0);
    }

    #[test]
    fn sgd_survives_resize_after_surgery() {
        let g1 = Tensor::ones(&[2]);
        let mut p = Tensor::zeros(&[2]);
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        opt.step(&mut [&mut p], &[&g1]).unwrap();
        // Surgery grows the parameter; optimizer must not panic.
        let mut p2 = Tensor::zeros(&[4]);
        let g2 = Tensor::ones(&[4]);
        opt.step(&mut [&mut p2], &[&g2]).unwrap();
        assert!(p2.data().iter().all(|&x| x < 0.0));
    }

    #[test]
    fn cursor_step_matches_slice_step() {
        // The streaming cursor and the slice API must produce
        // bit-identical trajectories.
        let g1 = Tensor::from_vec(vec![0.5, -0.25], &[2]).unwrap();
        let g2 = Tensor::from_vec(vec![1.5], &[1]).unwrap();
        let mut pa1 = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let mut pa2 = Tensor::from_vec(vec![-3.0], &[1]).unwrap();
        let mut pb1 = pa1.clone();
        let mut pb2 = pa2.clone();
        let mut oa = Sgd::new(0.1).with_momentum(0.9).with_weight_decay(0.01);
        let mut ob = oa.clone();
        for _ in 0..4 {
            oa.step(&mut [&mut pa1, &mut pa2], &[&g1, &g2]).unwrap();
            let mut cur = ob.begin_step();
            cur.apply(&mut pb1, &g1);
            cur.apply(&mut pb2, &g2);
            cur.finish().unwrap();
        }
        assert_eq!(pa1, pb1);
        assert_eq!(pa2, pb2);
    }

    #[test]
    fn cursor_finish_rejects_short_walks() {
        let g = Tensor::ones(&[2]);
        let mut p1 = Tensor::zeros(&[2]);
        let mut p2 = Tensor::zeros(&[2]);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p1, &mut p2], &[&g, &g]).unwrap();
        let mut cur = opt.begin_step();
        cur.apply(&mut p1, &g);
        assert!(cur.finish().is_err(), "one of two velocity slots unused");
    }

    #[test]
    fn prox_step_matches_adjusting_the_gradient_first() {
        let anchor = Tensor::from_vec(vec![0.5, 0.5], &[2]).unwrap();
        let g = Tensor::from_vec(vec![0.1, -0.2], &[2]).unwrap();
        let mut pa = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let mut pb = pa.clone();
        let mut oa = Sgd::new(0.05).with_momentum(0.9);
        let mut ob = oa.clone();
        for _ in 0..3 {
            let mut cur = oa.begin_step();
            cur.apply_prox(&mut pa, &g, &anchor, 0.7);
            cur.finish().unwrap();
            let mut adjusted = g.clone();
            adjusted.axpy(0.7, &pb.sub(&anchor).unwrap()).unwrap();
            ob.step(&mut [&mut pb], &[&adjusted]).unwrap();
        }
        assert_eq!(pa, pb);
    }

    #[test]
    fn prox_step_with_a_stale_anchor_is_a_plain_step() {
        // An anchor from before model surgery has the wrong shape.
        let anchor = Tensor::zeros(&[3]);
        let g = Tensor::ones(&[2]);
        let mut pa = Tensor::ones(&[2]);
        let mut pb = pa.clone();
        let mut oa = Sgd::new(0.1);
        let mut ob = oa.clone();
        let mut cur = oa.begin_step();
        cur.apply_prox(&mut pa, &g, &anchor, 1.0);
        cur.finish().unwrap();
        ob.step(&mut [&mut pb], &[&g]).unwrap();
        assert_eq!(pa, pb);
    }
}
