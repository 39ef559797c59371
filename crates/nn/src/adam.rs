//! The AdamW optimizer (decoupled weight decay), as used by the paper's SFT
//! and DPO stages.

use crate::graph::{ParamId, ParamStore};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// AdamW hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 3e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            grad_clip: 1.0,
        }
    }
}

/// AdamW state (first/second moments per parameter).
#[derive(Debug, Clone)]
pub struct AdamW {
    config: AdamConfig,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    step: u64,
}

impl AdamW {
    /// Creates optimizer state matching `store`'s parameters.
    pub fn new(store: &ParamStore, config: AdamConfig) -> AdamW {
        let m = store
            .iter()
            .map(|(_, p)| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let v = store
            .iter()
            .map(|(_, p)| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        AdamW {
            config,
            m,
            v,
            step: 0,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.config.lr
    }

    /// Overrides the learning rate (used for DPO fine-tuning schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.config.lr = lr;
    }

    /// Applies one update from accumulated gradients.
    ///
    /// Each parameter is updated in one zipped pass over its weights,
    /// gradient and both moments. Without indexing there are no bounds
    /// checks in the loop, so the compiler vectorizes it; every element
    /// still evaluates the same expression in the same operation order
    /// (no reassociation, no fused multiply-add), so the weights are the
    /// same bits as an element-at-a-time loop. The gradient-norm sum keeps
    /// its sequential order.
    ///
    /// # Panics
    ///
    /// Panics if a gradient's shape does not match its parameter, or if a
    /// parameter appears twice in `grads` (its moments would advance twice
    /// in one step).
    pub fn apply(&mut self, store: &mut ParamStore, grads: &[(ParamId, Matrix)]) {
        let mut seen = vec![false; self.m.len()];
        for (pid, _) in grads {
            assert!(
                !std::mem::replace(&mut seen[pid.0], true),
                "parameter {} listed twice in one update",
                pid.0
            );
        }
        self.step += 1;
        let c = self.config;
        // Global norm clipping.
        let mut scale = 1.0f32;
        if c.grad_clip > 0.0 {
            let norm: f32 = grads
                .iter()
                .map(|(_, g)| g.data().iter().map(|v| v * v).sum::<f32>())
                .sum::<f32>()
                .sqrt();
            if norm > c.grad_clip {
                scale = c.grad_clip / norm;
            }
        }
        let bias1 = 1.0 - c.beta1.powi(self.step as i32);
        let bias2 = 1.0 - c.beta2.powi(self.step as i32);
        for (pid, grad) in grads {
            let p = store.get_mut(*pid);
            assert_eq!(p.shape(), grad.shape(), "gradient shape mismatch");
            let (m, v) = (&mut self.m[pid.0], &mut self.v[pid.0]);
            let lanes = p.data_mut().iter_mut().zip(grad.data());
            for ((w, &g), (m, v)) in lanes.zip(m.data_mut().iter_mut().zip(v.data_mut())) {
                let g = g * scale;
                let mi = c.beta1 * *m + (1.0 - c.beta1) * g;
                let vi = c.beta2 * *v + (1.0 - c.beta2) * g * g;
                *m = mi;
                *v = vi;
                let m_hat = mi / bias1;
                let v_hat = vi / bias2;
                *w = *w - c.lr * (m_hat / (v_hat.sqrt() + c.eps) + c.weight_decay * *w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize (w - 3)^2 elementwise.
        let mut store = ParamStore::new();
        let pid = store.add("w", Matrix::zeros(1, 4));
        let mut opt = AdamW::new(
            &store,
            AdamConfig {
                lr: 0.2,
                weight_decay: 0.0,
                ..AdamConfig::default()
            },
        );
        for _ in 0..200 {
            let w = store.get(pid).clone();
            let grad = w.map(|x| 2.0 * (x - 3.0));
            opt.apply(&mut store, &[(pid, grad)]);
        }
        for &v in store.get(pid).data() {
            assert!((v - 3.0).abs() < 0.05, "converged to {v}");
        }
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Matrix::from_vec(1, 1, vec![5.0]));
        let mut opt = AdamW::new(
            &store,
            AdamConfig {
                lr: 0.1,
                weight_decay: 0.5,
                ..AdamConfig::default()
            },
        );
        for _ in 0..50 {
            let zero_grad = Matrix::zeros(1, 1);
            opt.apply(&mut store, &[(pid, zero_grad)]);
        }
        assert!(store.get(pid).get(0, 0).abs() < 1.0);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Matrix::zeros(1, 1));
        let mut opt = AdamW::new(
            &store,
            AdamConfig {
                lr: 0.1,
                grad_clip: 1.0,
                weight_decay: 0.0,
                ..AdamConfig::default()
            },
        );
        opt.apply(&mut store, &[(pid, Matrix::from_vec(1, 1, vec![1e6]))]);
        // One Adam step moves at most ~lr regardless of raw gradient.
        assert!(store.get(pid).get(0, 0).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_parameter_ids_are_rejected() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Matrix::zeros(1, 1));
        let mut opt = AdamW::new(&store, AdamConfig::default());
        let g = Matrix::from_vec(1, 1, vec![1.0]);
        opt.apply(&mut store, &[(pid, g.clone()), (pid, g)]);
    }

    #[test]
    fn integrates_with_graph_grads() {
        let mut store = ParamStore::new();
        let pid = store.add("logits", Matrix::zeros(1, 3));
        let mut opt = AdamW::new(
            &store,
            AdamConfig {
                lr: 0.1,
                weight_decay: 0.0,
                ..AdamConfig::default()
            },
        );
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            let mut g = Graph::new();
            let l = g.param(&store, pid);
            let loss = g.cross_entropy(l, &[1]);
            let lv = g.value(loss).get(0, 0);
            g.backward(loss);
            let grads = g.param_grads();
            opt.apply(&mut store, &grads);
            last = lv;
        }
        assert!(last < 0.1, "loss converged to {last}");
    }
}
