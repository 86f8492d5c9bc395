//! Heterogeneous fleet: why one model cannot serve every device.
//!
//! The scenario from the paper's introduction: a fleet of phones whose
//! compute capacity spans ~30x. This example (1) shows the inference
//! latency a single large model would impose on the weak half of the
//! fleet, (2) runs FedTrans, and (3) shows how the grown model suite
//! maps onto capacity tiers, with each client served within budget.
//!
//! Run: `cargo run --release --example heterogeneous_fleet`

use fedtrans::{ClientManager, FedTransConfig, FedTransRuntime};
use ft_data::DatasetConfig;
use ft_fedsim::device::DeviceTraceConfig;
use ft_fedsim::metrics::box_stats;
use ft_fedsim::Algorithm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = DatasetConfig::cifar_like().with_num_clients(50).generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(data.num_clients())
        .with_base_capacity(40_000)
        .with_disparity(30.0)
        .generate();

    // (1) A one-size-fits-all model sized for the BIG devices.
    let big_macs = devices.max_capacity();
    let latencies: Vec<f32> = (0..devices.len())
        .map(|c| devices.profile(c).inference_latency_ms(big_macs) as f32)
        .collect();
    let stats = box_stats(&latencies);
    println!("single large model ({big_macs} MACs): inference latency");
    println!(
        "  median {:.1} ms, p75 {:.1} ms, worst {:.1} ms",
        stats.median, stats.q3, stats.max
    );
    let incompatible = (0..devices.len())
        .filter(|&c| !devices.profile(c).is_compatible(big_macs))
        .count();
    println!(
        "  {incompatible}/{} devices cannot run it at all",
        devices.len()
    );

    // (2) FedTrans grows a suite instead.
    let cfg = FedTransConfig::default()
        .with_clients_per_round(10)
        .with_gamma(4)
        .with_delta(4);
    let mut runtime = FedTransRuntime::new(cfg, data, devices.clone())?;
    let report = runtime.run_to(60)?;

    // (3) Capacity tiers vs assigned models.
    println!("\nFedTrans model suite:");
    for (i, (arch, macs)) in report
        .model_archs
        .iter()
        .zip(&report.model_macs)
        .enumerate()
    {
        println!("  M{i}: {arch} ({macs} MACs)");
    }
    println!("\nclient capacity -> assigned model (sample of 10):");
    for c in (0..devices.len()).step_by(devices.len() / 10) {
        let cap = devices.profile(c).capacity_macs;
        let model = report.per_client_model[c];
        let compatible = ClientManager::compatible_models(&report.model_macs, cap).len();
        println!(
            "  client {c:>3}: capacity {cap:>8} MACs, {compatible} compatible models, serves M{model} (acc {:.2})",
            report.per_client_accuracy[c]
        );
    }
    // Every assignment respects the budget.
    let violations = (0..devices.len())
        .filter(|&c| {
            let cap = devices.profile(c).capacity_macs;
            let compat = ClientManager::compatible_models(&report.model_macs, cap);
            // The fallback rule may assign the cheapest model even when
            // nothing fits; count only genuine violations.
            let m = report.per_client_model[c];
            report.model_macs[m] > cap && compat.len() > 1
        })
        .count();
    println!("\ncapacity violations: {violations}");
    Ok(())
}
