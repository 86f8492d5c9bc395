//! Quickstart: train FedTrans on a small synthetic federated workload.
//!
//! Demonstrates the three-line happy path — generate data, generate a
//! device trace, run the FedTrans coordinator — and prints the model
//! suite FedTrans grew plus the final per-client accuracy summary.
//!
//! Run: `cargo run --release --example quickstart`

use fedtrans::{FedTransConfig, FedTransRuntime};
use ft_data::DatasetConfig;
use ft_fedsim::device::DeviceTraceConfig;
use ft_fedsim::Algorithm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A FEMNIST-like federated dataset: 60 clients, Dirichlet label
    // skew, heterogeneous per-client difficulty.
    let data = DatasetConfig::femnist_like()
        .with_num_clients(60)
        .with_seed(7)
        .generate();

    // A device population with ~30x compute disparity, like the
    // FedScale trace the paper samples from.
    let devices = DeviceTraceConfig::default()
        .with_num_devices(data.num_clients())
        .with_base_capacity(1_000)
        .with_disparity(30.0)
        .generate();
    println!(
        "devices: {} clients, {:.0}x capacity disparity",
        devices.len(),
        devices.capacity_disparity()
    );

    // FedTrans with paper-default hyperparameters, scaled-down DoC
    // windows for a short run.
    let cfg = FedTransConfig::default()
        .with_clients_per_round(12)
        .with_gamma(4)
        .with_delta(4);
    let mut runtime = FedTransRuntime::new(cfg, data, devices)?;
    let report = runtime.run_to(50)?;

    println!("\nmodel suite after 50 rounds:");
    for (arch, macs) in report.model_archs.iter().zip(&report.model_macs) {
        println!("  {arch}  ({macs} MACs/sample)");
    }
    println!("\nfinal per-client accuracy:");
    println!("  mean   {:.3}", report.final_accuracy.mean);
    println!("  median {:.3}", report.final_accuracy.median);
    println!("  IQR    {:.3}", report.final_accuracy.iqr());
    println!("\ntotal training cost: {:.3e} MACs", report.pmacs * 1e15);
    println!("network volume:      {:.2} MB", report.network_mb);
    Ok(())
}
