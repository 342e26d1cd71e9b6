//! The Adam optimizer and the step-decay learning-rate schedule.
//!
//! The paper trains every model with Adam plus step-decay of the learning
//! rate and low initial rates (1e-4 .. 1e-3) "to help the stability of the
//! optimization, given a small dataset" (§III).

use crate::network::Network;
use serde::{Deserialize, Serialize};

/// Adam optimizer (Kingma & Ba, 2014), the paper's training algorithm.
#[derive(Debug, Clone)]
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Default for Adam {
    fn default() -> Self {
        Self::new()
    }
}

impl Adam {
    /// Creates Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new() -> Self {
        Self { beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update step with learning rate `lr`.
    pub fn step(&mut self, net: &mut Network, lr: f32) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut k = 0;
        net.visit_params(&mut |p| {
            if ms.len() <= k {
                // lint: allow(alloc, reason = "lazy first-moment buffers, training-only; reactor edge is a .step() name collision")
                ms.push(vec![0.0; p.len()]);
                // lint: allow(alloc, reason = "lazy second-moment buffers, training-only; reactor edge is a .step() name collision")
                vs.push(vec![0.0; p.len()]);
            }
            let m = &mut ms[k];
            let v = &mut vs[k];
            assert_eq!(m.len(), p.len(), "Adam: parameter shape changed");
            for (((w, &g), mi), vi) in p
                .value
                .as_mut_slice()
                .iter_mut()
                .zip(p.grad.as_slice().iter())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = beta1 * *mi + (1.0 - beta1) * g;
                *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            k += 1;
        });
    }
}

/// Step-decay learning-rate schedule: `lr = initial * drop^(epoch / every)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepDecay {
    /// Learning rate at epoch 0.
    pub initial_lr: f32,
    /// Multiplicative factor applied every `every` epochs.
    pub drop: f32,
    /// Number of epochs between drops.
    pub every: usize,
}

impl StepDecay {
    /// Creates a step-decay schedule.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn new(initial_lr: f32, drop: f32, every: usize) -> Self {
        assert!(every > 0, "decay interval must be positive");
        Self { initial_lr, drop, every }
    }

    /// A constant schedule (no decay).
    pub fn constant(lr: f32) -> Self {
        Self { initial_lr: lr, drop: 1.0, every: 1 }
    }

    /// Learning rate for `epoch` (0-based).
    pub fn lr(&self, epoch: usize) -> f32 {
        self.initial_lr * self.drop.powi((epoch / self.every) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerSpec;
    use crate::loss::cross_entropy;
    use crate::mat::Mat;
    use crate::network::NetworkSpec;

    fn tiny_net() -> Network {
        Network::new(NetworkSpec::new(vec![LayerSpec::Dense { in_dim: 2, out_dim: 2 }]), 5)
    }

    fn loss_of(net: &mut Network, x: &Mat, y: usize) -> f32 {
        let logits = net.forward(x);
        cross_entropy(&logits, y).0
    }

    fn one_step(net: &mut Network, x: &Mat, y: usize) {
        net.zero_grad();
        let logits = net.forward(x);
        let (_, grad) = cross_entropy(&logits, y);
        net.backward(&grad);
    }

    #[test]
    fn adam_reduces_loss() {
        let mut net = tiny_net();
        let mut adam = Adam::new();
        let x = Mat::from_rows(&[&[1.0, -0.5]]);
        let before = loss_of(&mut net, &x, 0);
        for _ in 0..50 {
            one_step(&mut net, &x, 0);
            adam.step(&mut net, 0.01);
        }
        let after = loss_of(&mut net, &x, 0);
        assert!(after < before, "Adam failed to reduce loss: {before} -> {after}");
        assert_eq!(adam.steps(), 50);
    }

    #[test]
    fn step_decay_drops_at_interval() {
        let s = StepDecay::new(0.1, 0.5, 10);
        assert_eq!(s.lr(0), 0.1);
        assert_eq!(s.lr(9), 0.1);
        assert!((s.lr(10) - 0.05).abs() < 1e-8);
        assert!((s.lr(20) - 0.025).abs() < 1e-8);
    }

    #[test]
    fn constant_schedule_never_decays() {
        let s = StepDecay::constant(0.3);
        assert_eq!(s.lr(0), s.lr(1000));
    }
}
