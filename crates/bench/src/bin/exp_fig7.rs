//! Fig. 7: cost-to-accuracy curves per method.
//!
//! Prints each method's `(cumulative TMACs, mean accuracy)` series.
//! Reproduction target: FedTrans reaches any given accuracy at the
//! lowest cumulative cost.
//!
//! Run: `cargo run --release -p ft-bench --bin exp_fig7 [dataset]`

use fedtrans::FedTransRuntime;
use ft_bench::{dump_json, Scale, Setup, Workload};
use ft_fedsim::Algorithm;

fn main() {
    let scale = Scale::from_env();
    let filter: Option<String> = std::env::args().nth(1).map(|s| s.to_lowercase());

    for workload in Workload::TABLE2 {
        if let Some(f) = &filter {
            if !workload.name().to_lowercase().contains(f) {
                continue;
            }
        }
        println!("\n=== Fig. 7 ({}) ===", workload.name());
        let setup = Setup::new(workload, scale);
        let rounds = setup.rounds();
        let eval_every = (rounds / 8).max(1);

        // FedTrans with periodic checkpoints.
        let mut rt = FedTransRuntime::with_seed_model(
            setup.fedtrans_config(),
            setup.data.clone(),
            setup.devices.clone(),
            setup.seed.clone(),
        )
        .expect("runtime")
        .with_eval_every(eval_every);
        let ft = rt.run_to(rounds).expect("fedtrans");
        let largest = rt
            .method()
            .models()
            .last()
            .expect("suite non-empty")
            .clone();

        let mut bl = setup.baseline_config();
        bl.eval_every = eval_every;
        let fluid = setup.run_fluid(bl, largest.clone(), rounds).expect("fluid");
        let heterofl = setup
            .run_heterofl(bl, largest.clone(), rounds)
            .expect("heterofl");
        let splitmix = setup
            .run_splitmix(bl, &largest, 4, rounds)
            .expect("splitmix");

        for (name, report) in [
            ("FedTrans", &ft),
            ("FLuID", &fluid),
            ("HeteroFL", &heterofl),
            ("SplitMix", &splitmix),
        ] {
            println!("{name}:");
            for (pmacs, acc) in &report.accuracy_curve {
                println!("  cost {:.3e} MACs -> acc {:.3}", pmacs * 1e15, acc);
            }
        }
        dump_json(
            &format!("fig7_{}", workload.name().to_lowercase().replace('-', "_")),
            &serde_json::json!({
                "fedtrans": ft.accuracy_curve,
                "fluid": fluid.accuracy_curve,
                "heterofl": heterofl.accuracy_curve,
                "splitmix": splitmix.accuracy_curve,
            }),
        );
    }
}
