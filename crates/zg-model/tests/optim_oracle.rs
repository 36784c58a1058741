//! `AdamW::clip_and_step` fuses the global-norm clip into the update
//! traversal. Its oracle is the two-pass optimizer it replaces,
//! `clip_grad_norm` followed by `AdamW::step`: the fused path must return
//! the same pre-clip norm and leave bit-identical weights and gradient
//! state after every step.

use zg_model::{clip_grad_norm, AdamW};
use zg_tensor::Tensor;

#[test]
fn fused_clip_step_bit_identical_to_two_pass() {
    // Deterministic pseudo-gradients, some steps clipping and some
    // not; the fused path must stay bitwise equal to clip+step.
    let pseudo = |step: u64, i: usize, len: usize| -> f32 {
        let x = ((step * 31 + i as u64 * 7 + len as u64) % 97) as f32 / 97.0 - 0.5;
        // Alternate steps produce huge gradients so clipping triggers.
        if step.is_multiple_of(2) {
            x * 50.0
        } else {
            x * 0.01
        }
    };
    let make = || {
        vec![
            ("a".to_string(), Tensor::param(vec![0.3; 17], [17])),
            ("b".to_string(), Tensor::param(vec![-0.7; 130], [130])),
            // Frozen param that never receives a gradient.
            ("c".to_string(), Tensor::from_vec(vec![2.0; 5], [5])),
        ]
    };
    let (twin_a, twin_b) = (make(), make());
    let mut opt_a = AdamW::new(0.02, 0.01);
    let mut opt_b = AdamW::new(0.02, 0.01);
    for step in 0..6 {
        for params in [&twin_a, &twin_b] {
            for (name, p) in params {
                if name == "c" {
                    continue;
                }
                let n = p.numel();
                let g: Vec<f32> = (0..n).map(|i| pseudo(step, i, n)).collect();
                p.accumulate_grad(&g);
            }
        }
        let norm_two_pass = clip_grad_norm(&twin_a, 1.0);
        opt_a.step(&twin_a);
        let norm_fused = opt_b.clip_and_step(&twin_b, 1.0);
        assert_eq!(norm_two_pass, norm_fused, "pre-clip norms must match");
        for ((_, pa), (_, pb)) in twin_a.iter().zip(&twin_b) {
            assert_eq!(
                pa.to_vec(),
                pb.to_vec(),
                "step {step}: fused update must be bit-identical"
            );
            assert!(pa.grad().is_none() == pb.grad().is_none());
        }
    }
}
