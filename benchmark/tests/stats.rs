//! The nearest-rank percentile helper and the host-speed scaling behind
//! every host-time metric.

use hsc_benchmark::calib;
use hsc_benchmark::stats::{p10, p50, p90, percentile};

/// `1.0, 2.0, …, n` shuffled by a fixed stride, so sorting is exercised.
fn one_to(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % n + 1) as f64).collect()
}

#[test]
fn one_sample_is_every_percentile() {
    let s = [42.5];
    assert_eq!((p10(&s), p50(&s), p90(&s)), (42.5, 42.5, 42.5));
    assert_eq!(percentile(&s, 1), 42.5);
    assert_eq!(percentile(&s, 100), 42.5);
}

#[test]
fn ten_samples_use_ranks_1_5_9() {
    let s = one_to(10);
    assert_eq!((p10(&s), p50(&s), p90(&s)), (1.0, 5.0, 9.0));
    assert_eq!(percentile(&s, 11), 2.0, "ceil(1.1) = rank 2");
    assert_eq!(percentile(&s, 100), 10.0);
}

#[test]
fn forty_samples_use_ranks_4_20_36() {
    // 0.1 × 40 is not exactly 4 in floating point; the rank must be.
    let s = one_to(40);
    assert_eq!((p10(&s), p50(&s), p90(&s)), (4.0, 20.0, 36.0));
}

#[test]
fn a_percentile_is_always_one_of_the_samples() {
    let s = [3.25, 1.5, 9.75, 4.0, 2.125, 8.5, 7.0];
    for pct in 1..=100 {
        assert!(s.contains(&percentile(&s, pct)), "p{pct}");
    }
}

#[test]
#[should_panic(expected = "percentile of no samples")]
fn no_samples_is_a_harness_bug() {
    let _ = p10(&[]);
}

#[test]
fn scaling_undoes_the_hosts_slowdown() {
    let reference = calib::REFERENCE_NS as u64;
    let close = |got: f64, want: f64| (got / want - 1.0).abs() < 1e-6;
    assert!(close(calib::scaled(90_000_000, reference), 90e6), "the reference host");
    assert!(close(calib::scaled(120_000_000, reference * 4 / 3), 90e6), "a third slower");
    assert!(calib::spin() > 0);
}
