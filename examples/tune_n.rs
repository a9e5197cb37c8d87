//! Tuning nVNL's `n` for a deployment (§5): given a maintenance schedule
//! (gap `i`, duration `m`) and the session lengths analysts actually run,
//! pick the smallest `n` that guarantees no expirations — validated against
//! exhaustive timeline simulation.
//!
//! ```sh
//! cargo run --example tune_n
//! ```
#![allow(clippy::expect_used)]

use warehouse_2vnl::vnl::{choose_n, guaranteed_session_length};
use warehouse_2vnl::workload::empirical_guaranteed_length;

fn main() {
    println!("nVNL tuning for the Figure 2 schedule (i = 60 min gap, m = 23 h maintenance)\n");
    let (i, m) = (60u64, 23 * 60u64);
    println!(
        "{:>16}  {:>3}  {:>18}  {:>18}",
        "session target", "n", "formula guarantee", "simulated"
    );
    for target_hours in [1u64, 4, 12, 24, 48, 96] {
        let target = target_hours * 60;
        let n = choose_n(target, i, m).expect("schedule is non-degenerate");
        let formula = guaranteed_session_length(n, i, m);
        let simulated = empirical_guaranteed_length(i, m, n);
        println!(
            "{:>13} h  {:>3}  {:>14} min  {:>14} min",
            target_hours, n, formula, simulated
        );
        assert!(simulated >= target);
    }
    println!(
        "\nEach extra version buys (i + m) = {} minutes of guaranteed session length\n\
         at ~9 bytes + one pre-update copy per updatable attribute per tuple (§5).",
        i + m
    );
}
