//! Fig. 9: FedTrans-generated models vs standard architectures.
//!
//! Four architectures sampled from FedTrans's transformation chain are
//! fine-tuned on all clients with plain FedAvg (no capacity limits, no
//! assignment, no soft aggregation — Appendix A.1's protocol) and
//! compared against hand-designed reference models of similar MACs.
//! Reproduction target: the transformed models sit on a better
//! MACs-accuracy frontier.
//!
//! Run: `cargo run --release -p ft-bench --bin exp_fig9`

use ft_baselines::ServerOpt;
use ft_bench::{dump_json, print_header, print_row, Scale, Setup, Workload};
use ft_fedsim::Algorithm;

use ft_model::CellModel;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let setup = Setup::new(Workload::Femnist, scale);
    let rounds = scale.rounds() / 2;

    // Grow a transformation chain and sample four architectures.
    let mut rt = fedtrans::FedTransRuntime::with_seed_model(
        setup.fedtrans_config(),
        setup.data.clone(),
        setup.devices.clone(),
        setup.seed.clone(),
    )
    .expect("runtime");
    rt.run_to(scale.rounds()).expect("fedtrans growth run");
    let suite: Vec<CellModel> = rt.method().models().to_vec();
    let sampled: Vec<&CellModel> = if suite.len() <= 4 {
        suite.iter().collect()
    } else {
        let step = suite.len() / 4;
        (0..4)
            .map(|i| &suite[(i * step).min(suite.len() - 1)])
            .collect()
    };

    // Hand-designed reference architectures of assorted complexities
    // (stand-ins for MobileNetV2/V3, EfficientNetV2, ResNet in the
    // paper — same family as the dataset, chosen without training
    // feedback).
    let mut rng = rand::rngs::StdRng::seed_from_u64(91);
    let dim = setup.data.input_dim();
    let classes = setup.data.num_classes();
    let references: Vec<(&str, CellModel)> = vec![
        (
            "MobileNetV2-like",
            CellModel::dense(&mut rng, dim, &[10, 10, 10], classes),
        ),
        (
            "MobileNetV3-like",
            CellModel::dense(&mut rng, dim, &[20, 12], classes),
        ),
        (
            "EfficientNetV2-like",
            CellModel::dense(&mut rng, dim, &[32, 32, 16], classes),
        ),
        (
            "ResNet-like",
            CellModel::dense(&mut rng, dim, &[48, 48], classes),
        ),
    ];

    // Appendix A.1: this protocol removes hardware capacity limits.
    let mut bl = setup.baseline_config();
    bl.enforce_capacity = false;

    println!("=== Fig. 9: transformed vs standard architectures (FedAvg fine-tune) ===");
    print_header(&["Architecture", "MACs", "Mean accuracy"]);
    let mut points = Vec::new();
    for (i, model) in sampled.iter().enumerate() {
        // Fine-tune the transformed model with its learned weights, per
        // Appendix A.1 ("fine-tune each transformed model on all the
        // clients" with transformation/assignment/aggregation disabled).
        let report = setup
            .run_fedavg(bl, (*model).clone(), ServerOpt::Average, rounds)
            .expect("fedavg");
        print_row(&[
            format!("FedTrans-T{i} ({})", model.arch_string()),
            format!("{}", model.macs_per_sample()),
            format!("{:.3}", report.final_accuracy.mean),
        ]);
        points.push(serde_json::json!({
            "family": "fedtrans",
            "arch": model.arch_string(),
            "macs": model.macs_per_sample(),
            "accuracy": report.final_accuracy.mean,
        }));
    }
    for (name, model) in &references {
        let report = setup
            .run_fedavg(bl, model.clone(), ServerOpt::Average, rounds)
            .expect("fedavg");
        print_row(&[
            (*name).to_owned(),
            format!("{}", model.macs_per_sample()),
            format!("{:.3}", report.final_accuracy.mean),
        ]);
        points.push(serde_json::json!({
            "family": "reference",
            "arch": name,
            "macs": model.macs_per_sample(),
            "accuracy": report.final_accuracy.mean,
        }));
    }
    dump_json("fig9", &points);
}
