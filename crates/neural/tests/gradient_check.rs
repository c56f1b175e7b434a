//! Property-based numerical gradient checking of the full MLP backward pass
//! — the definitive correctness test for a from-scratch NN library.

use neural::{Activation, Adam, Loss, Matrix, Mlp, Sgd};
use proptest::prelude::*;

/// Scalar loss used for checking: MSE against a fixed random-ish target.
fn loss_of(net: &Mlp, x: &Matrix, target: &Matrix) -> f32 {
    let (l, _) = Loss::Mse.compute(&net.predict(x), target);
    l
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random small architectures, activations, and inputs, the analytic
    /// parameter gradients match centered finite differences.
    #[test]
    fn backprop_matches_finite_differences(
        seed in 0u64..1000,
        hidden in 1usize..6,
        din in 1usize..4,
        dout in 1usize..3,
        act_id in 0usize..2,
        batch in 1usize..4,
    ) {
        // ReLU is excluded: centered finite differences lie at its kink
        // (the derivative tests in `neural::activation` cover it instead).
        let act = [Activation::Tanh, Activation::Sigmoid][act_id];
        let mut net = Mlp::new(&[din, hidden, dout], act, Activation::Linear, seed);
        // Deterministic pseudo-random input/target derived from the seed.
        let mut v = seed as f32 * 0.37 + 0.1;
        let mut next = || { v = (v * 1.7 + 0.31) % 2.0 - 1.0; v };
        let x = Matrix::from_vec(batch, din, (0..batch * din).map(|_| next()).collect());
        let target = Matrix::from_vec(batch, dout, (0..batch * dout).map(|_| next()).collect());

        net.zero_grad();
        let pred = net.forward(&x);
        let (_, grad) = Loss::Mse.compute(pred, &target);
        net.backward(&grad);

        let h = 1e-2f32;
        for li in 0..net.layers().len() {
            let (gw, gb) = {
                let (gw, gb) = net.layers()[li].grads().expect("grads present");
                (gw.to_vec(), gb.to_vec())
            };
            // Sample a few weights (checking all is O(n²) evals).
            let nw = gw.len();
            for wi in [0, nw / 2, nw - 1] {
                let orig = net.layers()[li].params().0[wi];
                net.layers_mut()[li].params_mut().0[wi] = orig + h;
                let lp = loss_of(&net, &x, &target);
                net.layers_mut()[li].params_mut().0[wi] = orig - h;
                let lm = loss_of(&net, &x, &target);
                net.layers_mut()[li].params_mut().0[wi] = orig;
                let num = (lp - lm) / (2.0 * h);
                let ana = gw[wi];
                let tol = 0.05f32.max(0.15 * num.abs());
                prop_assert!((num - ana).abs() <= tol,
                    "layer {li} w[{wi}]: numerical {num} vs analytic {ana}");
            }
            for (bi, &ana) in gb.iter().enumerate().take(2) {
                let orig = net.layers()[li].params().1[bi];
                net.layers_mut()[li].params_mut().1[bi] = orig + h;
                let lp = loss_of(&net, &x, &target);
                net.layers_mut()[li].params_mut().1[bi] = orig - h;
                let lm = loss_of(&net, &x, &target);
                net.layers_mut()[li].params_mut().1[bi] = orig;
                let num = (lp - lm) / (2.0 * h);
                let tol = 0.05f32.max(0.15 * num.abs());
                prop_assert!((num - ana).abs() <= tol,
                    "layer {li} b[{bi}]: numerical {num} vs analytic {ana}");
            }
        }
    }

    /// One SGD step with a small learning rate never increases the loss on
    /// the training batch (local descent property).
    #[test]
    fn sgd_descends(seed in 0u64..300) {
        let mut net = Mlp::new(&[3, 8, 2], Activation::Tanh, Activation::Linear, seed);
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f32 * 0.13).sin()).collect());
        let t = Matrix::from_vec(4, 2, (0..8).map(|i| (i as f32 * 0.29).cos()).collect());
        let before = loss_of(&net, &x, &t);
        let mut opt = Sgd::new(1e-3);
        net.train_batch(&x, &t, Loss::Mse, &mut opt);
        let after = loss_of(&net, &x, &t);
        prop_assert!(after <= before + 1e-6, "loss rose: {before} -> {after}");
    }

    /// Training drives the loss down by orders of magnitude on a learnable
    /// task, for any seed (robustness of init + Adam).
    #[test]
    fn adam_fits_linear_maps(seed in 0u64..50) {
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Linear, seed);
        let x = Matrix::from_vec(8, 2,
            (0..16).map(|i| (i as f32 / 8.0) - 1.0).collect());
        let t = Matrix::from_vec(8, 1,
            (0..8).map(|i| {
                let a = (2 * i) as f32 / 8.0 - 1.0;
                let b = (2 * i + 1) as f32 / 8.0 - 1.0;
                0.5 * a - 0.3 * b
            }).collect());
        let mut opt = Adam::new(0.02);
        let first = loss_of(&net, &x, &t);
        for _ in 0..400 {
            net.train_batch(&x, &t, Loss::Mse, &mut opt);
        }
        let last = loss_of(&net, &x, &t);
        prop_assert!(last < first * 0.05 || last < 1e-4,
            "insufficient convergence: {first} -> {last}");
    }
}
