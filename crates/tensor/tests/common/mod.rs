//! Shared by `proptest_matmul.rs` and `proptest_simd.rs`: the
//! `fedtrans-conv` GEMM shapes, an exact reference, and the three call
//! contexts a product can be issued from.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

use ft_tensor::pool;
use rand::SeedableRng;

/// A product under test: its output buffer, recomputed on every call.
pub type Product = Box<dyn Fn() -> Vec<f32> + Sync>;

/// Naive `A[m×k] @ B[k×n]`: ascending-`k`, one accumulator per element
/// — the accumulation order every kernel path guarantees, so the
/// comparison against it is exact.
pub fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// One product of the battery with the reference it must reproduce.
pub struct Case {
    /// `matmul`, `t_matmul` or `matmul_t`.
    pub variant: &'static str,
    /// Logical `(m, k, n)`.
    pub shape: (usize, usize, usize),
    pub product: Product,
    pub naive: Vec<f32>,
}

impl Case {
    /// Runs the product from every call context and compares each
    /// result with the reference bit-for-bit; `Err` names the failure.
    pub fn check(&self) -> Result<(), String> {
        for (context, got) in from_every_call_context(&*self.product) {
            if got != self.naive {
                let (m, k, n) = self.shape;
                return Err(format!("{} {m}x{k}x{n} {context}", self.variant));
            }
        }
        Ok(())
    }
}

/// `matmul`, `t_matmul` and `matmul_t` of one logical `m×k×n` product
/// (the transposing variants fed the pre-transposed operand).
pub fn products_of(m: usize, k: usize, n: usize, seed: u64) -> Vec<Case> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = ft_tensor::uniform(&mut rng, &[m, k], -2.0, 2.0);
    let b = ft_tensor::uniform(&mut rng, &[k, n], -2.0, 2.0);
    let naive = reference(a.data(), b.data(), m, k, n);
    let (at, bt) = (a.transpose().unwrap(), b.transpose().unwrap());
    let (a1, b1, a2, b2) = (a.clone(), b.clone(), a, b);
    let products: [(&'static str, Product); 3] = [
        (
            "matmul",
            Box::new(move || a1.matmul(&b1).unwrap().data().to_vec()),
        ),
        (
            "t_matmul",
            Box::new(move || at.t_matmul(&b2).unwrap().data().to_vec()),
        ),
        (
            "matmul_t",
            Box::new(move || a2.matmul_t(&bt).unwrap().data().to_vec()),
        ),
    ];
    products
        .into_iter()
        .map(|(variant, product)| Case {
            variant,
            shape: (m, k, n),
            product,
            naive: naive.clone(),
        })
        .collect()
}

/// The `fedtrans-conv` products as stored-operand GEMMs (16×16 RGB,
/// batch 10, so 2560 patch columns): both layers' forward products, the
/// widened model's, the per-sample patch gradient and `dW` of the
/// 16-channel layer — wide-`n` shapes that cross every split and edge
/// path — and 8/9/16/17 rows by a wide `n`, the shapes a per-row-tile
/// split would shred.
pub fn conv_workload_products() -> Vec<Case> {
    let shapes: [(&str, (usize, usize, usize)); 9] = [
        ("matmul", (16, 27, 2560)),
        ("matmul", (16, 144, 2560)),
        ("matmul", (32, 288, 2560)),
        ("t_matmul", (144, 16, 2560)),
        ("matmul_t", (16, 2560, 144)),
        ("matmul", (8, 144, 2560)),
        ("matmul", (9, 144, 2560)),
        ("matmul", (16, 150, 2563)),
        ("matmul", (17, 144, 2560)),
    ];
    shapes
        .into_iter()
        .map(|(variant, (m, k, n))| {
            products_of(m, k, n, (m * 131 + k * 17 + n) as u64)
                .into_iter()
                .find(|case| case.variant == variant)
                .expect("products_of yields all three variants")
        })
        .collect()
}

/// The products of one `fedtrans-dense` train step (batch 10, 96
/// inputs, 16 classes) on the seed model `96 → 48 → 48 → 16` and the
/// widened `96 → 96 → 48 → 16`, as `docs/ARCHITECTURE.md` "GEMM shapes
/// of `fedtrans-dense`" lists them: forward `matmul`, `dW` `t_matmul`,
/// `dX` `matmul_t` (none for the first layer). Each distinct shape once.
pub fn dense_workload_products() -> Vec<Case> {
    let shapes: [(&str, (usize, usize, usize)); 11] = [
        ("matmul", (10, 96, 48)),
        ("matmul", (10, 48, 48)),
        ("matmul", (10, 48, 16)),
        ("matmul", (10, 96, 96)),
        ("t_matmul", (96, 10, 48)),
        ("t_matmul", (48, 10, 48)),
        ("t_matmul", (48, 10, 16)),
        ("t_matmul", (96, 10, 96)),
        ("matmul_t", (10, 48, 48)),
        ("matmul_t", (10, 16, 48)),
        ("matmul_t", (10, 48, 96)),
    ];
    shapes
        .into_iter()
        .map(|(variant, (m, k, n))| {
            products_of(m, k, n, (m * 131 + k * 17 + n) as u64)
                .into_iter()
                .find(|case| case.variant == variant)
                .expect("products_of yields all three variants")
        })
        .collect()
}

/// Runs `product` from the three contexts that take different dispatch
/// paths inside the kernel: the main thread (may fan out), inside a
/// pool task (must not), and while another submitter owns the pool
/// (must not either). Results are labelled for the failure message.
#[expect(
    clippy::disallowed_methods,
    reason = "a second submitter has to come from outside the pool under test"
)]
fn from_every_call_context(
    product: &(dyn Fn() -> Vec<f32> + Sync),
) -> Vec<(&'static str, Vec<f32>)> {
    let mut out = vec![("on the main thread", product())];

    let nested = Mutex::new(Vec::new());
    pool::parallel_for(2, &|_| {
        let got = product();
        nested.lock().unwrap().push(("inside a pool task", got));
    });
    out.extend(nested.into_inner().unwrap());

    let release = AtomicBool::new(false);
    let (started, running) = mpsc::channel::<()>();
    let started = Mutex::new(started);
    std::thread::scope(|s| {
        s.spawn(|| {
            pool::parallel_for(2, &|_| {
                // The receiver may be gone by the time a second task
                // that had to wait its turn reports in.
                let _ = started.lock().unwrap().send(());
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        });
        // One task of the owner's job is running and cannot finish, so
        // the pool stays owned until `release` — unless a sibling test
        // owned it first and the owner's job ran inline, in which case
        // the product takes whichever path is open. Every path must
        // produce the same bits.
        running.recv().unwrap();
        out.push(("while the pool is owned", product()));
        release.store(true, Ordering::Release);
    });
    out
}
