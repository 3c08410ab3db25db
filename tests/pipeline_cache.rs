//! End-to-end contract of the parse-once campaign pipeline: the shared
//! parsed-description cache must be invisible in the results (cached
//! and uncached runs bit-identical, with and without fault injection,
//! at any thread count) and visible only in the accounting.

use proptest::prelude::*;
use wsinterop::core::{Campaign, FaultPlan};

#[test]
fn cache_is_invisible_in_campaign_results() {
    let cached = Campaign::sampled(199).run();
    let uncached = Campaign::sampled(199).with_doc_cache(false).run();
    assert_eq!(cached.services, uncached.services);
    assert_eq!(cached.tests, uncached.tests);
}

#[test]
fn cache_is_invisible_under_fault_injection() {
    let (cached, cached_report) = Campaign::sampled(131)
        .with_faults(FaultPlan::seeded(7))
        .run_with_report();
    let (uncached, uncached_report) = Campaign::sampled(131)
        .with_faults(FaultPlan::seeded(7))
        .with_doc_cache(false)
        .run_with_report();
    assert_eq!(cached.services, uncached.services);
    assert_eq!(cached.tests, uncached.tests);
    assert_eq!(cached_report, uncached_report);
}

#[test]
fn stats_surface_the_sharing() {
    let (results, _, stats) = Campaign::sampled(199).run_with_stats();
    let deployed = results.services.iter().filter(|s| s.deployed).count();
    // Exactly one parse per deployed service; its eleven clients share
    // it, one `generate_from` per test cell.
    assert_eq!(stats.parses, deployed);
    assert_eq!(stats.gen_runs, results.tests.len());
    let rendered = stats.to_string();
    assert!(rendered.contains("Parse-once pipeline"), "{rendered}");
}

#[test]
fn fault_bypasses_are_counted_apart_from_plain_text_generates() {
    let (results, report, stats) = Campaign::sampled(131)
        .with_faults(FaultPlan::seeded(7))
        .run_with_stats();
    assert!(report.injected_total() > 0, "seed must land faults");
    assert!(stats.fault_bypasses > 0, "no cache-bypassed parses at this seed");
    // Chaos cells all take the text path; the fault-damaged ones are
    // counted apart, never under both text buckets.
    assert_eq!(
        stats.text_generates + stats.fault_text_generates,
        results.tests.len()
    );
    // Each bypassed document serves its server's eleven clients.
    assert_eq!(stats.fault_text_generates, 11 * stats.fault_bypasses);
    let rendered = stats.to_string();
    assert!(rendered.contains("over fault-damaged docs"), "{rendered}");
}

proptest! {
    // Campaign runs are milliseconds each at these strides, but a full
    // default case count would still dominate the suite — a modest
    // sample over (stride, seed, threads) covers both generation paths
    // and the thread interactions that matter.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The shared parse is invisible: for arbitrary stride, fault seed
    /// (or none, which drives every cell through the shared parse) and
    /// thread count, the shared-parse campaign is bit-identical —
    /// services, tests and fault report — to the text-path campaign
    /// (`with_doc_cache(false)`).
    #[test]
    fn shared_parse_campaign_is_bit_identical_to_text_path(
        stride in 97usize..400,
        seed in prop::option::of(0u64..1000),
        threads in 1usize..9,
    ) {
        let campaign = |doc_cache: bool| {
            let campaign = Campaign::sampled(stride)
                .with_threads(threads)
                .with_doc_cache(doc_cache);
            match seed {
                Some(seed) => campaign.with_faults(FaultPlan::seeded(seed)),
                None => campaign,
            }
        };
        let (shared, shared_report) = campaign(true).run_with_report();
        let (text, text_report) = campaign(false).run_with_report();
        prop_assert_eq!(&shared.services, &text.services);
        prop_assert_eq!(&shared.tests, &text.tests);
        prop_assert_eq!(shared_report, text_report);
    }
}
