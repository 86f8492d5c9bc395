//! `ft-exp <name> [arg]`: regenerate one of the paper's artifacts.
//!
//! The names are the rows of [`EXPERIMENTS`]; `ft-exp` alone prints
//! that table. `[arg]` is the experiment's dataset filter (`table2`,
//! `fig7`) or sweep name (`ablation`). Scale comes from
//! `FEDTRANS_SCALE`; like `ft-run`, the binary refuses an environment
//! it does not understand before doing any work.

use std::process::ExitCode;

use ft_bench::experiments::EXPERIMENTS;
use ft_bench::Scale;

/// The experiment table as markdown.
fn listing() -> String {
    let mut out = String::from(
        "usage: ft-exp <name> [arg]\n\n| name | paper | reproduction target |\n|---|---|---|\n",
    );
    for (name, locus, target, _) in &EXPERIMENTS {
        out += &format!("| {name} | {locus} | {target} |\n");
    }
    out
}

fn main() -> ExitCode {
    let scale = match ft_harness::runner::check_env().and_then(|()| Scale::from_env()) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else {
        print!("{}", listing());
        return ExitCode::SUCCESS;
    };
    let Some((.., run)) = EXPERIMENTS.iter().find(|(known, ..)| *known == name) else {
        eprint!("error: no experiment named `{name}`\n\n{}", listing());
        return ExitCode::FAILURE;
    };
    match run(scale, args.next().as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
