//! Runtime-dispatched kernel bodies.
//!
//! The training step's hot loops — the three dense kernels, the reduction
//! over worker tapes and the optimizer steps — are each written once, as a
//! portable body, and compiled twice by [`dispatched!`]: for the target's
//! baseline (SSE2 on x86-64), and inside a function built with AVX2 enabled,
//! so the same loops vectorize four `f64` lanes wide instead of two.  Which
//! copy runs is decided at run time from the CPU, so one binary runs on any
//! x86-64 and every other target builds the portable copy only.
//!
//! Both copies give the same bits.  They are one body, so they perform the
//! same IEEE operations on the same operands in the same order: only `avx2`
//! is enabled — not `fma`, so no multiply and add can be contracted into one
//! rounding — and the compiler never reassociates floating-point arithmetic,
//! so a wider vector only computes more independent elements at once.
//! `avx2_bodies_match_the_portable_bodies_bit_for_bit` holds every
//! dispatched function to that.

/// Which compiled copy of a [`dispatched!`] function runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Body {
    /// The copy built for the target's baseline instruction set.  Only the
    /// bit-identity test asks for it by name.
    #[cfg_attr(not(test), allow(dead_code))]
    Portable,
    /// The widest copy this CPU runs: the AVX2 copy on an x86-64 CPU with
    /// AVX2, the portable copy anywhere else.
    Native,
}

impl Body {
    /// `true` when [`Body::Native`] runs the AVX2 copy on this CPU.  The
    /// detection is cached by the standard library after its first call.
    pub(crate) fn native_is_avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }
}

/// Declares a function whose body is compiled twice, portable and with AVX2,
/// and which takes a [`Body`] as its first argument to pick the copy:
///
/// ```ignore
/// dispatched! {
///     /// Docs.
///     pub(crate) fn name(x: &mut [f64], scale: f64) { /* the loop */ }
/// }
/// // name(Body::Native, x, scale) or name(Body::Portable, x, scale)
/// ```
///
/// The body becomes an `#[inline(always)]` function, and an
/// `#[target_feature(enable = "avx2")]` wrapper on x86-64 calls it, so the
/// compiler inlines the same loop into both.  The one `unsafe` call of all
/// dispatched code is here.
macro_rules! dispatched {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name(body: $crate::dispatch::Body, $($arg: $ty),*) {
            #[inline(always)]
            fn portable($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) {
                portable($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if body == $crate::dispatch::Body::Native && $crate::dispatch::Body::native_is_avx2() {
                // SAFETY: `avx2` requires only that the CPU supports AVX2,
                // which was just detected; its body is safe code.
                return unsafe { avx2($($arg),*) };
            }
            let _ = body; // read only where the AVX2 copy exists
            portable($($arg),*)
        }
    };
}

pub(crate) use dispatched;

#[cfg(test)]
mod tests {
    use super::Body;
    use crate::optim::adam_update;
    use crate::tensor::{add_grad_b_sum, matmul_acc, matmul_grad_a, GradPart};
    use crate::AdamConfig;
    use proptest::prelude::*;

    /// One operand value: a third exact zeros (as after a ReLU) where `sparse`,
    /// some subnormal, signs mixed.
    fn operand(class: usize, v: f64, sparse: bool) -> f64 {
        match class {
            0 if sparse => 0.0,
            1 => v * 1e-310,
            _ => v,
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs `kernel` on a fresh copy of `init` under both bodies and asserts
    /// the results agree bit for bit.
    fn both_bodies(name: &str, init: &[f64], kernel: impl Fn(Body, &mut Vec<f64>)) {
        let mut portable = init.to_vec();
        kernel(Body::Portable, &mut portable);
        let mut native = init.to_vec();
        kernel(Body::Native, &mut native);
        assert_eq!(bits(&portable), bits(&native), "{name}: the bodies disagree");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Shapes run 1–37 on each side, straddling TILE_ROWS = 8, the
        /// four-lane width and the ∂b kernel's 16-column block; the outputs of
        /// the backward kernels already hold a share, as a gradient does.
        #[test]
        fn avx2_bodies_match_the_portable_bodies_bit_for_bit(
            m in 1usize..38,
            inner in 1usize..38,
            n in 1usize..38,
            raw in proptest::collection::vec((0usize..3, -4.0f64..4.0), 15 * 37 * 37),
        ) {
            if !Body::native_is_avx2() {
                eprintln!("no AVX2 on this CPU: only the portable body runs");
            }
            let mut raw = raw.into_iter();
            let mut take = |len: usize, sparse: bool| -> Vec<f64> {
                (0..len)
                    .map(|_| raw.next().expect("enough values"))
                    .map(|(class, v)| operand(class, v, sparse))
                    .collect()
            };
            let (a, b, g) = (take(m * inner, true), take(inner * n, false), take(m * n, true));

            both_bodies("matmul_acc", &vec![0.0; m * n], |body, out| {
                matmul_acc(body, &a, &b, out, inner, n)
            });
            both_bodies("matmul_grad_a", &take(m * inner, false), |body, a_grad| {
                matmul_grad_a(body, &g, &b, a_grad, inner, n, &mut vec![f64::NAN; 3])
            });
            let product = GradPart::Product { a: &a, g: &g };
            both_bodies("add_grad_b_sum", &take(inner * n, false), |body, b_grad| {
                add_grad_b_sum(body, b_grad, 0, inner, n, &[product], 1.0)
            });
            // As the batch reduction runs it: one task, the weight's rows from
            // `first_row` on, summing a tape's buffer, a full microbatch's
            // product and a short one's (possibly of no rows).
            let (first_row, short) = (inner / 2, m / 2);
            let dense = take(inner * n, false);
            let parts = [
                GradPart::Dense(&dense),
                product,
                GradPart::Product { a: &a[..short * inner], g: &g[..short * n] },
            ];
            both_bodies("add_grad_b_sum", &take((inner - first_row) * n, false), |body, task| {
                add_grad_b_sum(body, task, first_row, inner, n, &parts, 1.0 / 3.0)
            });

            // The element-wise passes over a tensor of m·n elements.
            let len = m * n;

            let grad = take(len, true);
            let (m0, v0) = (take(len, false), take(len, false));
            let v0: Vec<f64> = v0.iter().map(|v| v.abs()).collect();
            let config = AdamConfig { learning_rate: 0.3, ..AdamConfig::default() };
            let (bias1, bias2) = (1.0 - config.beta1.powi(3), 1.0 - config.beta2.powi(3));
            // Values, then both moments, in one buffer so all three are compared.
            let init: Vec<f64> = take(len, false).into_iter().chain(m0).chain(v0).collect();
            both_bodies("adam_update", &init, |body, state| {
                let (x, moments) = state.split_at_mut(len);
                let (m, v) = moments.split_at_mut(len);
                adam_update(body, x, &grad, m, v, config, (bias1, bias2))
            });
        }
    }
}
