//! Diagnostic: utility-based vs oracle model assignment quality.
use fedtrans::{ClientManager, FedTransRuntime};
use ft_baselines::eval_on_client;
use ft_bench::{Scale, Setup, Workload};
use ft_fedsim::Algorithm;

fn main() {
    let scale = Scale::from_env();
    let setup = Setup::new(Workload::Femnist, scale);
    let mut rt = FedTransRuntime::with_seed_model(
        setup.fedtrans_config(),
        setup.data.clone(),
        setup.devices.clone(),
        setup.seed.clone(),
    )
    .unwrap();
    let report = rt.run_to(scale.rounds()).unwrap();
    println!("suite: {:?}", report.model_archs);
    println!(
        "utility-assigned mean acc: {:.3}",
        report.final_accuracy.mean
    );
    // Oracle: best compatible model per client by TEST accuracy.
    let macs = rt.method().model_macs();
    let mut oracle = 0.0f32;
    let mut per_model_mean = vec![(0.0f32, 0usize); macs.len()];
    let nc = setup.data.num_clients();
    for c in 0..nc {
        let cap = setup.devices.profile(c).capacity_macs;
        let compat = ClientManager::compatible_models(&macs, cap);
        let mut best = 0.0f32;
        for &k in &compat {
            let acc = eval_on_client(&rt.method().models()[k], setup.data.client(c));
            per_model_mean[k].0 += acc;
            per_model_mean[k].1 += 1;
            best = best.max(acc);
        }
        oracle += best;
    }
    println!("oracle-assigned mean acc: {:.3}", oracle / nc as f32);
    for (i, (s, n)) in per_model_mean.iter().enumerate() {
        println!(
            "model {i} ({} MACs): mean acc over compat clients {:.3} [{n} clients]",
            macs[i],
            s / (*n).max(1) as f32
        );
    }
}
