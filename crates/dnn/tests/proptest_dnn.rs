//! Property-based tests of the DNN substrate invariants.

use proptest::prelude::*;

use dlk_dnn::layers::{cross_entropy_grad, softmax_cross_entropy};
use dlk_dnn::{models, Network, QuantNetwork, Tensor};

proptest! {
    /// Softmax rows are probability distributions for any logits.
    #[test]
    fn softmax_rows_are_distributions(
        logits in proptest::collection::vec(-20.0f32..20.0, 6),
    ) {
        let t = Tensor::from_vec(2, 3, logits);
        let (_, probs) = softmax_cross_entropy(&t, &[0, 2]);
        for row in 0..2 {
            let sum: f32 = probs.row(row).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(probs.row(row).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    /// The cross-entropy gradient sums to zero per row (probabilities
    /// minus a one-hot, scaled).
    #[test]
    fn ce_grad_rows_sum_to_zero(
        logits in proptest::collection::vec(-10.0f32..10.0, 8),
        label in 0usize..4,
    ) {
        let t = Tensor::from_vec(2, 4, logits);
        let (_, probs) = softmax_cross_entropy(&t, &[label, (label + 1) % 4]);
        let grad = cross_entropy_grad(&probs, &[label, (label + 1) % 4]);
        for row in 0..2 {
            let sum: f32 = grad.row(row).iter().sum();
            prop_assert!(sum.abs() < 1e-5, "row {row} sums to {sum}");
        }
    }

    /// Matmul against the identity is the identity, for any contents.
    #[test]
    fn matmul_identity_any(values in proptest::collection::vec(-100.0f32..100.0, 12)) {
        let a = Tensor::from_vec(3, 4, values);
        let out = a.matmul(&Tensor::eye(4)).unwrap();
        prop_assert_eq!(out, a);
    }

    /// The blocked GEMM kernel is bit-exact with the pre-refactor
    /// scalar loops on arbitrary finite inputs, across all three
    /// product variants.
    #[test]
    fn blocked_gemm_bit_exact_any(
        m in 1usize..6,
        k in 1usize..12,
        n in 1usize..7,
        seed in 0u64..1024,
    ) {
        let a = Tensor::randn(m, k, seed);
        let b = Tensor::randn(k, n, seed + 1);
        prop_assert_eq!(a.matmul(&b).unwrap(), a.matmul_reference(&b).unwrap());
        let bt = Tensor::randn(n, k, seed + 2);
        prop_assert_eq!(
            a.matmul_transpose(&bt).unwrap(),
            a.matmul_transpose_reference(&bt).unwrap()
        );
        let a2 = Tensor::randn(k, m, seed + 3);
        prop_assert_eq!(
            a2.transpose_matmul(&b).unwrap(),
            a2.transpose_matmul_reference(&b).unwrap()
        );
    }

    /// Quantize→dequantize→quantize is a fixed point (idempotent after
    /// one round).
    #[test]
    fn quantization_idempotent(seed in 0u64..64) {
        let model = models::tiny_mlp(seed);
        let q1 = QuantNetwork::quantize(&model);
        let q2 = QuantNetwork::quantize(&q1.to_float_model());
        for (a, b) in q1.weighted_layers().iter().zip(q2.weighted_layers()) {
            prop_assert_eq!(a.matrix().unwrap().qweights(), b.matrix().unwrap().qweights());
        }
    }

    /// Accuracy is always in [0, 1] and invariant to batch duplication.
    #[test]
    fn accuracy_bounds_and_duplication(seed in 0u64..16) {
        let model = Network::mlp(&[4, 6, 3], seed);
        let x = Tensor::randn(5, 4, seed + 100);
        let labels = vec![0usize, 1, 2, 0, 1];
        let acc = model.accuracy(&x, &labels).unwrap();
        prop_assert!((0.0..=1.0).contains(&acc));
        // Duplicate the batch: accuracy unchanged.
        let mut doubled = Vec::new();
        doubled.extend_from_slice(x.as_slice());
        doubled.extend_from_slice(x.as_slice());
        let x2 = Tensor::from_vec(10, 4, doubled);
        let mut labels2 = labels.clone();
        labels2.extend_from_slice(&labels);
        prop_assert_eq!(model.accuracy(&x2, &labels2).unwrap(), acc);
    }

    /// flip_delta predicts exactly the dequantized-weight change a
    /// flip causes.
    #[test]
    fn flip_delta_is_exact(offset in 0usize..288, bit in 0u8..8) {
        let model = models::tiny_mlp(9);
        let mut quantized = QuantNetwork::quantize(&model);
        let Some((layer, weight)) = quantized.locate_byte(offset) else {
            return Ok(());
        };
        let index = dlk_dnn::BitIndex { layer, weight, bit };
        let weight_of = |q: &QuantNetwork| {
            q.weighted_layers()[layer].matrix().unwrap().dequantize().weight().as_slice()[weight]
        };
        let before = weight_of(&quantized);
        let predicted = quantized.flip_delta(index).unwrap();
        quantized.flip_bit(index).unwrap();
        let after = weight_of(&quantized);
        prop_assert!(((after - before) - predicted).abs() < 1e-4);
    }
}
