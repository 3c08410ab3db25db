//! The parse-once pipeline: one parse per published description,
//! shared by reference across every consumer.
//!
//! The naive campaign re-reads every published description ~13 times
//! per service: once for the WS-I Basic Profile check, once per client
//! for each of the eleven Artifact Generation steps, and once more for
//! the chaos wire probe — plus eleven independent [`DocFacts`]
//! analyses. One parse and one analysis suffice: a description is
//! immutable once published, and every consumer is a pure function of
//! its content.
//!
//! [`ParsedService`] holds the text, the parsed [`Definitions`] and the
//! precomputed [`DocFacts`], computed exactly once at deploy time and
//! shared by `Arc` across the WS-I analyzer, all eleven `generate_from`
//! calls and the wire probe; it is dropped once its server's test
//! phase ends. [`DocCache`] parses, runs the generation steps over the
//! shared parse and keeps the parse/generation accounting.
//!
//! There is deliberately no content-addressed memo on top: every
//! description the paper campaign publishes is distinct, so a memo
//! keyed by document bytes (or by client and document) never hits,
//! while it keeps every parse and every [`GenOutcome`] alive for the
//! whole run. Parse-failure messages are preserved verbatim so the
//! shared pipeline reproduces the text path's [`GenOutcome`]s
//! bit-identically. Fault-injected (corrupted-WSDL) sites are parsed
//! through a separately counted bypass: wire-level damage must hit the
//! real parser, and its parses are accounted apart from pristine ones.

use std::sync::Arc;

use wsinterop_frameworks::client::facts::DocFacts;
use wsinterop_frameworks::client::{parse_for_generation, ClientSubsystem, GenOutcome};
use wsinterop_wsdl::Definitions;

use crate::obs::{LazyCounter, MetricsRegistry};

/// Registry names for the pipeline's instruments. Private: the public
/// surface is [`PipelineStats`]; the names are documented in
/// DESIGN.md §11 and visible through `wsitool metrics`.
const M_PARSES: &str = "doccache_parses_total";
const M_GEN_RUNS: &str = "doccache_gen_runs_total";
const M_FAULT_BYPASSES: &str = "doccache_fault_bypasses_total";
const M_TEXT_GENERATES: &str = "doccache_text_generates_total";
const M_FAULT_TEXT_GENERATES: &str = "doccache_fault_text_generates_total";
const M_JOURNAL_REPLAYS: &str = "journal_cells_replayed_total";

/// One service description, parsed exactly once.
#[derive(Debug)]
pub struct ParsedService {
    /// The published WSDL text, verbatim — the tool-fidelity input for
    /// the text path and the fault-injection path.
    wsdl_xml: String,
    /// The parse: document + facts, or the generation-error message
    /// every text-input tool reports for this (unreadable) description.
    doc: Result<(Definitions, DocFacts), String>,
    /// `true` when this parse came through the fault-site bypass — the
    /// published bytes were (or may have been) damaged by injection.
    /// Lets the pipeline stats count injected-and-parsed sites exactly
    /// once, never both as a bypass and a plain text generate.
    fault_damaged: bool,
}

impl ParsedService {
    fn new(wsdl_xml: String, fault_damaged: bool) -> ParsedService {
        let doc = parse_for_generation(&wsdl_xml);
        ParsedService {
            wsdl_xml,
            doc,
            fault_damaged,
        }
    }

    /// Whether this parse came through the fault-site bypass.
    pub fn fault_damaged(&self) -> bool {
        self.fault_damaged
    }

    /// The published description text.
    pub fn wsdl_xml(&self) -> &str {
        &self.wsdl_xml
    }

    /// The parsed document, when the description was readable.
    pub fn defs(&self) -> Option<&Definitions> {
        self.doc.as_ref().ok().map(|(defs, _)| defs)
    }

    /// The precomputed document facts, when the description was
    /// readable.
    pub fn facts(&self) -> Option<&DocFacts> {
        self.doc.as_ref().ok().map(|(_, facts)| facts)
    }

    /// The generation-error message for an unreadable description.
    pub fn parse_error(&self) -> Option<&str> {
        self.doc.as_ref().err().map(String::as_str)
    }

    /// The first operation declared across the port types — the wire
    /// probe's invocation target (no re-parse required).
    pub fn first_operation(&self) -> Option<&str> {
        self.defs().and_then(|defs| {
            defs.port_types
                .iter()
                .flat_map(|pt| pt.operations.iter())
                .next()
                .map(|op| op.name.as_str())
        })
    }
}

/// FNV-1a over the description bytes. Stable across platforms and
/// releases (the same constants as the fault plan's site hash).
pub use wsinterop_typecat::rng::fnv1a as content_hash;

/// The parse-once pipeline's parse and generation steps, with their
/// accounting.
///
/// The counters are registry-backed instruments (`doccache_*` /
/// `journal_cells_replayed_total`), pre-resolved into lock-free
/// [`LazyCounter`] handles on first use: a standalone pipeline owns a
/// private [`MetricsRegistry`]; an instrumented campaign shares its
/// observer's, so `wsitool metrics` sees the same numbers
/// [`DocCache::stats`] reports.
#[derive(Debug, Default)]
pub struct DocCache {
    metrics: Arc<MetricsRegistry>,
    parses: LazyCounter,
    gen_runs: LazyCounter,
    fault_bypasses: LazyCounter,
    text_generates: LazyCounter,
    fault_text_generates: LazyCounter,
    journal_replays: LazyCounter,
}

impl DocCache {
    /// A fresh pipeline with a private metrics registry.
    pub fn new() -> DocCache {
        DocCache::default()
    }

    /// A fresh pipeline publishing its accounting into `metrics`.
    pub fn with_registry(metrics: Arc<MetricsRegistry>) -> DocCache {
        DocCache {
            metrics,
            ..DocCache::default()
        }
    }

    /// Parses and analyzes `wsdl_xml` once, for every consumer to
    /// share.
    pub fn parse(&self, wsdl_xml: String) -> Arc<ParsedService> {
        self.parses.inc(&self.metrics, M_PARSES);
        Arc::new(ParsedService::new(wsdl_xml, false))
    }

    /// Parses a fault-damaged description, counted as a fault bypass
    /// as well as a parse: damaged bytes must hit the real parser, and
    /// the parse is marked [`ParsedService::fault_damaged`].
    pub fn parse_fault_site(&self, wsdl_xml: String) -> Arc<ParsedService> {
        self.parses.inc(&self.metrics, M_PARSES);
        self.fault_bypasses.inc(&self.metrics, M_FAULT_BYPASSES);
        Arc::new(ParsedService::new(wsdl_xml, true))
    }

    /// One Client Artifact Generation step over a shared parse.
    ///
    /// Bit-equivalent to `client.generate(svc.wsdl_xml())`: unreadable
    /// descriptions replay the preserved parse-error message, readable
    /// ones run the pure `generate_from` path.
    pub fn generate(&self, client: &dyn ClientSubsystem, svc: &ParsedService) -> GenOutcome {
        let (defs, facts) = match &svc.doc {
            Ok(parsed) => parsed,
            Err(message) => return GenOutcome::fail(message.clone()),
        };
        self.gen_runs.inc(&self.metrics, M_GEN_RUNS);
        client.generate_from(defs, facts)
    }

    /// Records one text-path generation (cache-disabled or chaos cells,
    /// where the tool re-parses the text itself).
    pub fn note_text_generate(&self) {
        self.parses.inc(&self.metrics, M_PARSES);
        self.text_generates.inc(&self.metrics, M_TEXT_GENERATES);
    }

    /// Records one text-path generation over a **fault-damaged**
    /// description. Counted separately from plain text generates so a
    /// site that is both injected and parsed is never double-counted:
    /// its bypass parse lands in `fault_bypasses` and its generations
    /// here, never in `text_generates` too.
    pub fn note_fault_generate(&self) {
        self.parses.inc(&self.metrics, M_PARSES);
        self.fault_text_generates
            .inc(&self.metrics, M_FAULT_TEXT_GENERATES);
    }

    /// Records one cell replayed from a resume journal (no parse, no
    /// generation — the outcome came off disk).
    pub fn note_journal_replay(&self) {
        self.journal_replays.inc(&self.metrics, M_JOURNAL_REPLAYS);
    }

    /// Snapshot of the parse/generation accounting, read back from the
    /// registry (same instruments `wsitool metrics` exports).
    pub fn stats(&self) -> PipelineStats {
        let counter = |name| self.metrics.counter(name) as usize;
        PipelineStats {
            parses: counter(M_PARSES),
            gen_runs: counter(M_GEN_RUNS),
            fault_bypasses: counter(M_FAULT_BYPASSES),
            text_generates: counter(M_TEXT_GENERATES),
            fault_text_generates: counter(M_FAULT_TEXT_GENERATES),
            journal_replays: counter(M_JOURNAL_REPLAYS),
            ..PipelineStats::default()
        }
    }
}

/// Parse and generation accounting for one campaign run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Full XML parses performed (one per deployed service in a shared
    /// run; one per consumer in a text-path run).
    pub parses: usize,
    /// Always 0: the content-addressed document memo was removed
    /// because it never hit (every published description is
    /// distinct). Kept so readers of the old field still build.
    pub doc_memo_hits: usize,
    /// `generate_from` invocations executed over a shared parse.
    pub gen_runs: usize,
    /// Always 0: the `(client, document)` generation memo was removed
    /// because it never hit. Kept so readers of the old field still
    /// build.
    pub gen_memo_hits: usize,
    /// Parses through the fault-site bypass because a fault site
    /// damaged (or may have damaged) the published bytes.
    pub fault_bypasses: usize,
    /// Generation steps that went down the text path (cache disabled
    /// or chaos cells), each re-parsing the text inside the tool —
    /// over **pristine** descriptions only.
    pub text_generates: usize,
    /// Text-path generation steps over fault-damaged descriptions.
    /// Disjoint from `text_generates` by construction, so an injected
    /// site's parses are never counted under both.
    pub fault_text_generates: usize,
    /// Cells replayed from a resume journal instead of executed.
    pub journal_replays: usize,
}

impl std::fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Parse-once pipeline")?;
        writeln!(
            f,
            "  parses: {} (fault bypasses {})",
            self.parses, self.fault_bypasses
        )?;
        writeln!(
            f,
            "  generation: {} over shared parses, {} via text path \
             ({} over fault-damaged docs), {} replayed from journal",
            self.gen_runs, self.text_generates, self.fault_text_generates, self.journal_replays
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_frameworks::client::{all_clients, MetroClient};
    use wsinterop_frameworks::server::{Metro, ServerSubsystem};

    fn sample_wsdl() -> String {
        let entry = Metro.catalog().get("java.lang.String").unwrap();
        Metro.deploy(entry).wsdl().unwrap().to_string()
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let doc = sample_wsdl();
        assert_eq!(content_hash(doc.as_bytes()), content_hash(doc.as_bytes()));
        assert_ne!(
            content_hash(doc.as_bytes()),
            content_hash(format!("{doc} ").as_bytes())
        );
        // Pinned so the content address stays stable across releases
        // (persisted BENCH_campaign.json counters depend on it).
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn parse_errors_replay_the_text_path_message() {
        let cache = DocCache::new();
        let svc = cache.parse("<not-wsdl/>".to_string());
        assert!(svc.defs().is_none());
        assert!(svc.first_operation().is_none());
        let shared = cache.generate(&MetroClient, &svc);
        let text = MetroClient.generate("<not-wsdl/>");
        assert_eq!(shared, text);
        assert!(!shared.succeeded());
        assert!(svc.parse_error().unwrap().starts_with("cannot read WSDL:"));
    }

    #[test]
    fn shared_generation_is_bit_identical_to_the_text_path() {
        let cache = DocCache::new();
        let doc = sample_wsdl();
        let svc = cache.parse(doc.clone());
        assert!(svc.facts().is_some());
        assert_eq!(svc.first_operation(), Some("echo"));
        for client in all_clients() {
            let shared = cache.generate(client.as_ref(), &svc);
            assert_eq!(shared, client.generate(&doc), "{}", client.info().id);
        }
        let stats = cache.stats();
        assert_eq!((stats.parses, stats.gen_runs), (1, 11));
    }

    #[test]
    fn fault_and_plain_text_generates_are_counted_disjointly() {
        let cache = DocCache::new();
        cache.note_text_generate();
        cache.note_text_generate();
        cache.note_fault_generate();
        cache.note_journal_replay();
        let stats = cache.stats();
        assert_eq!(stats.text_generates, 2);
        assert_eq!(stats.fault_text_generates, 1);
        assert_eq!(stats.journal_replays, 1);
        // Each text-path generate is one parse; journal replays parse
        // nothing.
        assert_eq!(stats.parses, 3);
        assert!(stats.to_string().contains("(1 over fault-damaged docs)"));
    }

    #[test]
    fn fault_site_parses_are_marked_and_counted() {
        let cache = DocCache::new();
        let doc = sample_wsdl();
        let damaged = cache.parse_fault_site(doc.clone());
        assert!(damaged.fault_damaged());
        assert!(!cache.parse(doc).fault_damaged());
        let stats = cache.stats();
        assert_eq!(stats.parses, 2);
        assert_eq!(stats.fault_bypasses, 1);
    }
}
