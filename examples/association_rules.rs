//! Association rules from equivalence classes — the extension the paper's
//! concluding remarks sketch ("an equivalence class corresponds then to a
//! particular value combination of the attribute set").
//!
//! Mines attribute–value rules from the orders table and shows the unified
//! view: a functional dependency is exactly the case where *every* class of
//! the LHS yields a confidence-1.0 rule.
//!
//! Run with: `cargo run --release --example association_rules`

use tane_repro::core::{discover_fds, mine_assoc_rules, AssocConfig};
use tane_repro::datasets::{planted_relation, PLANTED_NAMES};
use tane_repro::prelude::*;

fn main() {
    let relation = planted_relation(400, 0.0, 21);
    let names: Vec<String> = PLANTED_NAMES.iter().map(|s| s.to_string()).collect();

    // Mine rules with modest support and high confidence.
    let config = AssocConfig::new(0.02, 0.9, 2);
    let rules = mine_assoc_rules(&relation, &config).expect("mining cannot fail in memory");
    println!(
        "{} association rules at support >= 2%, confidence >= 90%",
        rules.len()
    );

    // Show the strongest rules about product prices.
    println!("\nrules predicting product_price (top 8 by support):");
    let mut price_rules: Vec<_> = rules.iter().filter(|r| r.rhs_attr == 4).collect();
    price_rules.sort_by_key(|r| std::cmp::Reverse(r.support_rows));
    for rule in price_rules.iter().take(8) {
        println!("  {}", rule.display_with(&names));
    }

    // The unified view: product_id -> product_price is an FD, so every
    // frequent product_id class appears as a confidence-1.0 rule.
    let fds = discover_fds(&relation, &TaneConfig::default()).expect("discovery");
    let fd = Fd::new(AttrSet::singleton(3), 4);
    assert!(fds.fds.contains(&fd), "planted FD must be discovered");
    let fd_rules: Vec<_> = rules
        .iter()
        .filter(|r| r.lhs_attrs == AttrSet::singleton(3) && r.rhs_attr == 4)
        .collect();
    println!(
        "\nproduct_id -> product_price is a functional dependency;\n\
         its {} frequent classes all mine as rules with confidence 1.0: {}",
        fd_rules.len(),
        fd_rules.iter().all(|r| r.confidence() == 1.0)
    );
    assert!(fd_rules.iter().all(|r| r.confidence() == 1.0));
}
