//! Per-round participant selection.
//!
//! The paper's coordinator selects `N` clients uniformly at random each
//! round (`Select(C, N)` in Algorithm 1). A deterministic round-robin
//! selector is also provided for tests that need full coverage.

use rand::Rng;

/// Selects `n` distinct client indices uniformly at random from
/// `0..population`.
///
/// Implemented as a *partial* Fisher–Yates shuffle over a sparse
/// (hash-map) view of the identity permutation: only `n` RNG draws and
/// `O(n)` memory, instead of materializing and fully shuffling a
/// `0..population` vector every round just to keep its first `n`
/// entries. Each output position still receives a uniformly random
/// index from the not-yet-taken remainder, so the selection
/// distribution is exactly that of a full shuffle-and-truncate.
///
/// Returns fewer than `n` indices when the population is smaller.
pub fn uniform(rng: &mut impl Rng, population: usize, n: usize) -> Vec<usize> {
    let n = n.min(population);
    // `displaced[i]` is the value the virtual array holds at slot `i`
    // wherever that differs from the identity.
    #[expect(
        clippy::disallowed_types,
        reason = "point lookups only, never iterated"
    )]
    let mut displaced = std::collections::HashMap::<usize, usize>::with_capacity(2 * n);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let j = rng.gen_range(i..population);
        let taken = displaced.get(&j).copied().unwrap_or(j);
        let shifted = displaced.get(&i).copied().unwrap_or(i);
        displaced.insert(j, shifted);
        out.push(taken);
    }
    out
}

/// Deterministic round-robin selection: round `r` takes the next `n`
/// indices modulo the population, guaranteeing every client
/// participates regularly. Used by ablation tests.
pub fn round_robin(round: usize, population: usize, n: usize) -> Vec<usize> {
    if population == 0 {
        return Vec::new();
    }
    let n = n.min(population);
    (0..n).map(|i| (round * n + i) % population).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_selects_distinct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let sel = uniform(&mut rng, 100, 10);
        assert_eq!(sel.len(), 10);
        let mut dedup = sel.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn uniform_handles_small_population() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(uniform(&mut rng, 3, 10).len(), 3);
        assert!(uniform(&mut rng, 0, 10).is_empty());
    }

    #[test]
    fn round_robin_covers_everyone() {
        let mut seen = [false; 10];
        for round in 0..5 {
            for idx in round_robin(round, 10, 2) {
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_selection_frequencies_are_flat() {
        // Partial Fisher–Yates must keep the full-shuffle distribution:
        // every index equally likely. Binomial(6000, 0.3) has σ ≈ 35,
        // so a ±180 band is a 5σ guard against bias.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut counts = [0u32; 10];
        for _ in 0..6000 {
            for idx in uniform(&mut rng, 10, 3) {
                counts[idx] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f32 - 1800.0).abs() < 180.0,
                "index {i} selected {c} times, expected ~1800"
            );
        }
    }

    #[test]
    fn uniform_eventually_covers_population() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut seen = [false; 20];
        for _ in 0..60 {
            for idx in uniform(&mut rng, 20, 5) {
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
