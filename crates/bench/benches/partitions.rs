//! Micro-benchmarks of the partition engine — the inner loops the paper's
//! cost model counts: singleton partition construction (O(|r|)), the
//! partition product (O(‖π̂‖)), the exact g3 computation (O(‖π̂‖)), and the
//! O(1) bound check that replaces it.
//!
//! Besides level-1 products, the product runs on a deep pair
//! ({1,2,3}·{1,2,4}) and a skewed pair ({0}·{1}: many small classes of the
//! near-key sample id against few large ones) of wbc×64, and exact g3 runs
//! on both wbc and wbc×64.
//! Kernel lines print throughput as (‖π̂_a‖ + ‖π̂_b‖) / time, the
//! definition the workspace benchmark's `product.melem_per_s` and
//! `g3.melem_per_s` use.
//!
//! Hand-rolled timing harness (criterion is unavailable offline): each
//! benchmark warms up, then reports the best-of-N wall-clock time per
//! iteration. Run with `cargo bench --bench partitions`.

use std::hint::black_box;
use std::time::Instant;
use tane_datasets::{scaled_wbc, wisconsin_breast_cancer};
use tane_partition::{
    g3_removed_rows_with_scratch, product_with_scratch, G3Bounds, G3Scratch, ProductScratch,
    StrippedPartition,
};
use tane_util::AttrSet;

/// Best-of-`samples` seconds per call of `f`, after one warmup call.
/// Each sample runs `f` enough times to cross ~2 ms so short loops are
/// measured above timer resolution.
fn best_secs<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut iters = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if t.elapsed().as_secs_f64() >= 0.002 || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

fn report(group: &str, name: &str, secs: f64, elements: Option<usize>) {
    let per = match elements {
        Some(n) if n > 0 => format!("  ({:.1} ns/elem)", secs * 1e9 / n as f64),
        _ => String::new(),
    };
    println!("{group}/{name:<24} {:>12.3} µs{per}", secs * 1e6);
}

/// A kernel line: time per call and (‖π̂_a‖ + ‖π̂_b‖) / time in Melem/s.
fn report_kernel(group: &str, name: &str, secs: f64, a: &StrippedPartition, b: &StrippedPartition) {
    let elements = a.num_elements() + b.num_elements();
    println!(
        "{group}/{name:<24} {:>12.3} µs  {:>8.1} Melem/s  ({elements} elem)",
        secs * 1e6,
        elements as f64 / secs / 1e6
    );
}

fn bench_from_column() {
    for copies in [1usize, 8, 64] {
        let r = scaled_wbc(copies);
        let codes = r.column_codes(1).to_vec();
        let secs = best_secs(20, || StrippedPartition::from_column(&codes));
        report(
            "from_column",
            &codes.len().to_string(),
            secs,
            Some(codes.len()),
        );
    }
}

fn bench_product() {
    for copies in [1usize, 8, 64] {
        let r = scaled_wbc(copies);
        let pa = StrippedPartition::from_column(r.column_codes(1));
        let pb = StrippedPartition::from_column(r.column_codes(2));
        let mut scratch = ProductScratch::new(r.num_rows());
        let secs = best_secs(20, || product_with_scratch(&pa, &pb, &mut scratch));
        report_kernel("product", &r.num_rows().to_string(), secs, &pa, &pb);
    }
    let r = scaled_wbc(64);
    let mut scratch = ProductScratch::new(r.num_rows());
    for (name, x, y) in [
        ("deep_123x124", &[1, 2, 3][..], &[1, 2, 4][..]),
        ("skewed_0x1", &[0][..], &[1][..]),
    ] {
        let pa = StrippedPartition::from_attr_set(&r, AttrSet::from_indices(x.iter().copied()));
        let pb = StrippedPartition::from_attr_set(&r, AttrSet::from_indices(y.iter().copied()));
        let secs = best_secs(20, || product_with_scratch(&pa, &pb, &mut scratch));
        report_kernel("product", name, secs, &pa, &pb);
    }
}

fn bench_g3() {
    for (name, r) in [
        ("exact", wisconsin_breast_cancer()),
        ("exact_wbc64", scaled_wbc(64)),
    ] {
        let pi_x = StrippedPartition::from_attr_set(&r, AttrSet::from_indices([1, 2]));
        let pi_xa = StrippedPartition::from_attr_set(&r, AttrSet::from_indices([1, 2, 10]));
        let mut scratch = G3Scratch::new(r.num_rows());
        let secs = best_secs(20, || {
            g3_removed_rows_with_scratch(&pi_x, &pi_xa, &mut scratch)
        });
        report_kernel("g3", name, secs, &pi_x, &pi_xa);
        if name == "exact" {
            let secs = best_secs(20, || G3Bounds::new(&pi_x, &pi_xa).decide(0.05));
            report("g3", "bounds_only", secs, None);
        }
    }
}

fn main() {
    // `cargo test` runs benches with `--test`; benching is opt-in there.
    if std::env::args().any(|a| a == "--test") {
        println!("partitions bench: skipped under --test");
        return;
    }
    bench_from_column();
    bench_product();
    bench_g3();
}
