//! ViT transformation: FedTrans is not conv-specific (paper Table 4).
//!
//! Builds a one-block attention model, demonstrates function-preserving
//! widen (MLP width) and deepen (identity attention block) directly,
//! then runs federated training on token inputs.
//!
//! Run: `cargo run --release --example vit_transform`

use fedtrans::{FedTransConfig, FedTransRuntime};
use ft_data::DatasetConfig;
use ft_fedsim::device::DeviceTraceConfig;
use ft_fedsim::Algorithm;
use ft_model::{deepen_cell, widen_cell, CellModel};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);

    // (1) Manual surgery on a ViT: the transforms preserve the function.
    let mut vit = CellModel::vit(&mut rng, 8, 8, 1, 16, 16);
    let x = ft_tensor::uniform(&mut rng, &[4, 64], -1.0, 1.0);
    let before = vit.forward(&x)?;

    let mut widened = widen_cell(&vit, 0, 2.0, &mut rng)?;
    let after_widen = widened.forward(&x)?;
    let widen_drift: f32 = before
        .data()
        .iter()
        .zip(after_widen.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    println!(
        "widen MLP 16 -> 32: params {} -> {}, max output drift {widen_drift:.2e}",
        vit.param_count(),
        widened.param_count()
    );

    let mut deepened = deepen_cell(&widened, 0, 1, &mut rng)?;
    let after_deepen = deepened.forward(&x)?;
    let deepen_drift: f32 = after_widen
        .data()
        .iter()
        .zip(after_deepen.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    println!(
        "deepen 1 -> 2 blocks: params {} -> {}, max output drift {deepen_drift:.2e}",
        widened.param_count(),
        deepened.param_count()
    );

    // (2) Federated training with attention cells end to end.
    let data = DatasetConfig::femnist_vit_like()
        .with_num_clients(30)
        .generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(data.num_clients())
        .with_base_capacity(60_000)
        .with_disparity(30.0)
        .generate();
    let cfg = FedTransConfig::default()
        .with_clients_per_round(8)
        .with_gamma(3)
        .with_delta(3);
    let mut runtime = FedTransRuntime::new(cfg, data, devices)?;
    let report = runtime.run_to(30)?;
    println!("\nfederated ViT after 30 rounds:");
    for arch in &report.model_archs {
        println!("  {arch}");
    }
    println!(
        "mean per-client accuracy: {:.3}",
        report.final_accuracy.mean
    );
    Ok(())
}
