//! The million-device round stays O(clients in flight) in memory.
//!
//! One test in its own file, hence its own process: `VmHWM` is the
//! peak resident set of everything the process ever did, so it is only
//! attributable when nothing else ran first. Linux only: that is where
//! `/proc/self/status` is.
#![cfg(target_os = "linux")]

/// Peak-RSS bound for the million-device streaming round, in MB. The
/// run measures about 8 MB in the dev profile. A materialized device
/// trace (24 MB a copy, and the coordinator held a second) measured
/// about 50 MB, so the bound fails it while leaving headroom for
/// allocator and host variance; a materialized population (tens of
/// GB) or cohort is far past it. If a change trips it, the device
/// trace, aggregation or shard memory stopped being O(clients in
/// flight).
const MAX_RSS_MB: f64 = 32.0;

#[test]
fn million_device_round_stays_under_the_rss_bound() {
    use ft_harness::{registry, run_scenario, RunOptions};

    let scenario = registry::find("large-population-1m").expect("canned scenario");
    let outcome = run_scenario(
        &scenario,
        &RunOptions {
            quick: true,
            ..Default::default()
        },
    )
    .expect("million-device run");
    assert!(outcome.finished());

    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let peak_kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    let peak_mb = peak_kb / 1024.0;
    assert!(
        peak_mb <= MAX_RSS_MB,
        "peak RSS {peak_mb:.0} MB exceeds the {MAX_RSS_MB} MB bound"
    );
}
