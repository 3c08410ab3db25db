//! The exact-sample quantile helper: ordering, exactness, and the
//! refusal to report a tail with fewer than ten samples beyond it.

use wsinterop_perfbench::stats::{PercentileError, Samples, MIN_BEYOND};

/// A deterministic, skewed sample set (xorshift, squared for a tail).
fn skewed(n: usize, seed: u64) -> Samples {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            u * u * 50.0
        })
        .collect()
}

#[test]
fn p50_le_p99_le_max() {
    for (n, seed) in [(1_000, 1), (1_234, 7), (10_000, 42), (99_999, 3)] {
        let mut s = skewed(n, seed);
        let p50 = s.percentile(50).expect("p50");
        let p99 = s.percentile(99).expect("p99");
        let max = s.max().expect("non-empty");
        assert!(p50.value <= p99.value, "n={n}: {p50} > {p99}");
        assert!(p99.value <= max, "n={n}: {p99} above max {max}");
        assert_eq!(p99.samples, n);
    }
}

#[test]
fn percentiles_are_measured_samples() {
    let mut s: Samples = (1..=1_000).map(f64::from).collect();
    assert_eq!(s.percentile(50).unwrap().value, 500.0);
    let p99 = s.percentile(99).unwrap();
    assert_eq!(p99.value, 990.0);
    assert_eq!(p99.beyond, 10);
    // p100 is the max, with nothing beyond it: never a reportable tail.
    assert!(s.percentile(100).is_err());
}

#[test]
fn tail_with_fewer_than_ten_beyond_is_refused() {
    // 999 samples: nearest rank of p99 is 990, leaving 9 beyond it.
    let mut s: Samples = (1..=999).map(f64::from).collect();
    match s.percentile(99) {
        Err(PercentileError::TooFewBeyond {
            pct: 99,
            samples: 999,
            beyond,
        }) => {
            assert!(beyond < MIN_BEYOND)
        }
        other => panic!("p99 of 999 samples must be refused, got {other:?}"),
    }
    // The median of the same set is still reportable.
    assert!(s.percentile(50).is_ok());
    // One more sample makes p99 reportable with exactly ten beyond.
    s.push(1_000.0);
    assert_eq!(s.percentile(99).unwrap().beyond, MIN_BEYOND);
}

#[test]
fn empty_and_tiny_sets_report_nothing() {
    let mut empty = Samples::new();
    assert!(empty.percentile(50).is_err());
    assert_eq!(empty.median(), None);
    let mut tiny: Samples = [3.0, 1.0, 2.0].into_iter().collect();
    assert!(tiny.percentile(50).is_err());
    assert_eq!(tiny.median(), Some(2.0));
    let mut even: Samples = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
    assert_eq!(even.median(), Some(2.5));
}
