//! Personalization study: which clients benefit from which model?
//!
//! Runs FedTrans on a workload with a wide spread of per-client task
//! difficulty, then cross-evaluates every model on every client to
//! show the paper's core observation (Fig. 1b): easy clients peak on
//! small models, hard clients need the capacity FedTrans grew — and
//! the utility-based assignment tracks that structure without ever
//! looking at client data.
//!
//! Run: `cargo run --release --example personalization_study`

use fedtrans::{ClientManager, FedTransConfig, FedTransRuntime};
use ft_baselines::eval_on_client;
use ft_data::DatasetConfig;
use ft_fedsim::device::DeviceTraceConfig;
use ft_fedsim::Algorithm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = DatasetConfig::femnist_like()
        .with_num_clients(40)
        .with_max_difficulty(0.8)
        .generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(data.num_clients())
        .with_base_capacity(800)
        .with_disparity(30.0)
        .generate();

    let cfg = FedTransConfig::default()
        .with_clients_per_round(10)
        .with_gamma(4)
        .with_delta(4);
    let mut runtime = FedTransRuntime::new(cfg, data.clone(), devices.clone())?;
    let report = runtime.run_to(60)?;
    let models = runtime.method().models();
    println!("grew {} models: {:?}\n", models.len(), report.model_archs);

    // Cross-evaluate: per client, accuracy on every model.
    println!("difficulty | best model (oracle) | assigned | per-model accuracy");
    let mut assigned_match = 0usize;
    let macs = report.model_macs.clone();
    for c in 0..data.num_clients() {
        let accs: Vec<f32> = models
            .iter()
            .map(|m| eval_on_client(m, data.client(c)))
            .collect();
        let oracle = accs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let assigned = report.per_client_model[c];
        let compat = ClientManager::compatible_models(&macs, devices.profile(c).capacity_macs);
        if accs[assigned] >= accs[oracle] - 0.05 {
            assigned_match += 1;
        }
        if c % 8 == 0 {
            let acc_str: Vec<String> = accs.iter().map(|a| format!("{a:.2}")).collect();
            println!(
                "   {:.2}    |        M{oracle}           |    M{assigned}   | [{}] ({} compatible)",
                data.client(c).difficulty(),
                acc_str.join(", "),
                compat.len(),
            );
        }
    }
    println!(
        "\nutility assignment within 5% of the per-client oracle for {assigned_match}/{} clients",
        data.num_clients()
    );
    Ok(())
}
