//! The traced campaign: a single-threaded replay of the pipeline that
//! calls each layer's public function in turn — `deploy`,
//! `parse_document`, `from_element`, `Analyzer::analyze`,
//! `DocFacts::analyze`, the client's `generate_from`, `compile` or
//! `instantiate`, `JournalWriter::append` and `read_journal` — with a
//! span around every call. Spans of one catalog entry share a cell id.
//!
//! The replay mirrors `Campaign`'s classification so its records can
//! be checked against the real campaign's. It injects no faults: the
//! fault hooks are internal to the campaign, so the chaos replay takes
//! the chaos campaign's per-cell text path and journal without them.

use std::path::Path;

use wsinterop::compilers::{compiler_for, instantiate};
use wsinterop::core::journal::{read_journal, JournalReadOutcome};
use wsinterop::core::results::{CampaignResults, InstantiationKind, ServiceRecord, TestRecord};
use wsinterop::core::{JournalCell, JournalWriter};
use wsinterop::frameworks::client::facts::DocFacts;
use wsinterop::frameworks::client::{
    all_clients, classify_error, ClientInfo, CompilationMode, ErrorClass, GenOutcome,
};
use wsinterop::frameworks::server::{all_servers, DeployOutcome, ServerId};
use wsinterop::wsdl::de::{from_element, WsdlReadError};
use wsinterop::wsdl::Definitions;
use wsinterop::wsi::Analyzer;
use wsinterop::xml::parse_document;

use crate::client_span;
use crate::trace::{SpanId, Tracer};

/// How the replay feeds descriptions to the clients.
pub enum Mode<'a> {
    /// Parse each published description once and share it with all
    /// eleven clients (the fault-free campaign's parse-once path).
    ParseOnce,
    /// Re-parse the description text for every cell and journal each
    /// cell (the chaos campaign's text path).
    PerCellText {
        /// Journal file to write, then read back.
        journal: &'a Path,
        /// Config hash pinned into the journal header.
        config_hash: u64,
    },
}

/// What the replay produced.
pub struct Replay {
    /// Classified records, ordered as `Campaign` orders them.
    pub results: CampaignResults,
    /// Bytes of WSDL the servers published.
    pub deploy_bytes: u64,
    /// Bytes handed to the XML parser.
    pub parse_bytes: u64,
    /// Cells appended to the journal (text mode).
    pub journaled: Vec<JournalCell>,
    /// The journal as read back (text mode).
    pub read_back: Option<JournalReadOutcome>,
}

type Parsed = Result<(Definitions, DocFacts), String>;

/// XML parse → WSDL model → document facts, each its own span. The
/// error text matches `parse_for_generation`'s.
fn parse(tracer: &mut Tracer, root: SpanId, cell: u32, wsdl: &str, bytes: &mut u64) -> Parsed {
    *bytes += wsdl.len() as u64;
    let read_error = |e: WsdlReadError| format!("cannot read WSDL: {e}");
    let doc = tracer
        .time("xml.parse", root, cell, || parse_document(wsdl))
        .map_err(|e| read_error(e.into()))?;
    let defs = tracer
        .time("wsdl.model", root, cell, || from_element(doc.root()))
        .map_err(read_error)?;
    let facts = tracer.time("client.facts", root, cell, || DocFacts::analyze(&defs));
    Ok((defs, facts))
}

/// One client's generation over a parse (or its preserved error).
fn generate(
    tracer: &mut Tracer,
    root: SpanId,
    cell: u32,
    client: &dyn wsinterop::frameworks::client::ClientSubsystem,
    parsed: &Parsed,
) -> GenOutcome {
    match parsed {
        Ok((defs, facts)) => tracer.time(client_span(client.info().id), root, cell, || {
            client.generate_from(defs, facts)
        }),
        Err(message) => GenOutcome::fail(message.clone()),
    }
}

/// The campaign's classification of one generation outcome, with the
/// compile or instantiate call timed.
fn classify(
    tracer: &mut Tracer,
    root: SpanId,
    cell: u32,
    server: ServerId,
    fqcn: &str,
    info: &ClientInfo,
    outcome: &GenOutcome,
) -> JournalCell {
    let mut test = TestRecord {
        server,
        client: info.id,
        fqcn: fqcn.to_string(),
        gen_warning: !outcome.warnings.is_empty(),
        gen_error: outcome.error.is_some(),
        compile_ran: false,
        compile_warning: false,
        compile_error: false,
        compiler_crashed: false,
        instantiation: None,
    };
    if let Some(bundle) = &outcome.artifacts {
        match info.compilation {
            CompilationMode::Dynamic => {
                if outcome.error.is_none() {
                    let check =
                        tracer.time("compilers.instantiate", root, cell, || instantiate(bundle));
                    let kind = if !check.constructed {
                        InstantiationKind::Failed
                    } else if check.empty_client() {
                        InstantiationKind::Empty
                    } else {
                        InstantiationKind::Usable
                    };
                    test.instantiation = Some(kind);
                    match kind {
                        InstantiationKind::Empty => test.gen_warning = true,
                        InstantiationKind::Failed => test.gen_error = true,
                        InstantiationKind::Usable => {}
                    }
                }
            }
            _ => {
                let compiled = tracer.time("compilers.compile", root, cell, || {
                    compiler_for(bundle.language).map(|c| c.compile(bundle))
                });
                if let Some(compiled) = compiled {
                    test.compile_ran = true;
                    test.compile_warning = compiled.warning_count() > 0;
                    test.compile_error = !compiled.success();
                    test.compiler_crashed = compiled.crashed;
                }
            }
        }
    }
    let disruptive = test.compiler_crashed
        || outcome
            .error
            .as_deref()
            .is_some_and(|m| classify_error(m) == ErrorClass::Disruptive);
    JournalCell {
        record: test,
        breaker_skipped: false,
        disruptive,
    }
}

/// Replays the campaign over every `stride`-th catalog entry.
///
/// # Panics
///
/// Panics when the journal cannot be created or read back.
pub fn replay(stride: usize, mode: &Mode<'_>, tracer: &mut Tracer) -> Replay {
    let analyzer = Analyzer::basic_profile_1_1();
    let clients = all_clients();
    let writer = match mode {
        Mode::ParseOnce => None,
        Mode::PerCellText {
            journal,
            config_hash,
        } => Some(
            JournalWriter::create(journal, *config_hash, None).expect("create the replay journal"),
        ),
    };
    let mut out = Replay {
        results: CampaignResults::default(),
        deploy_bytes: 0,
        parse_bytes: 0,
        journaled: Vec::new(),
        read_back: None,
    };
    let mut cell = 0u32;
    for server in all_servers() {
        let server_id = server.info().id;
        let mut services = Vec::new();
        let mut tests = Vec::new();
        for entry in server.catalog().entries().iter().step_by(stride) {
            cell += 1;
            let root = tracer.open("cell", 0, cell);
            let deployed = tracer.time("server.deploy", root, cell, || server.deploy(entry));
            let DeployOutcome::Deployed { wsdl_xml } = deployed else {
                services.push(ServiceRecord {
                    server: server_id,
                    fqcn: entry.fqcn.clone(),
                    deployed: false,
                    wsi_conformant: None,
                    description_warning: false,
                });
                tracer.close(root);
                continue;
            };
            out.deploy_bytes += wsdl_xml.len() as u64;
            let parsed = parse(tracer, root, cell, &wsdl_xml, &mut out.parse_bytes);
            let (conformant, warning) = match &parsed {
                Ok((defs, _)) => {
                    let report = tracer.time("wsi.analyze", root, cell, || analyzer.analyze(defs));
                    let conformant = report.conformant();
                    let advisory = report.warnings().any(|w| w.assertion == "EXT0001");
                    (conformant, !conformant || advisory)
                }
                Err(_) => (false, true),
            };
            services.push(ServiceRecord {
                server: server_id,
                fqcn: entry.fqcn.clone(),
                deployed: true,
                wsi_conformant: Some(conformant),
                description_warning: warning,
            });
            for client in &clients {
                let outcome = match mode {
                    Mode::ParseOnce => generate(tracer, root, cell, client.as_ref(), &parsed),
                    Mode::PerCellText { .. } => {
                        let own = parse(tracer, root, cell, &wsdl_xml, &mut out.parse_bytes);
                        generate(tracer, root, cell, client.as_ref(), &own)
                    }
                };
                let journal_cell = classify(
                    tracer,
                    root,
                    cell,
                    server_id,
                    &entry.fqcn,
                    &client.info(),
                    &outcome,
                );
                if let Some(writer) = &writer {
                    tracer.time("journal.append", root, cell, || {
                        writer.append(&journal_cell)
                    });
                    out.journaled.push(journal_cell.clone());
                }
                tests.push(journal_cell.record);
            }
            tracer.close(root);
        }
        services.sort_by(|a, b| a.fqcn.cmp(&b.fqcn));
        tests.sort_by(|a: &TestRecord, b: &TestRecord| {
            (a.client, &a.fqcn).cmp(&(b.client, &b.fqcn))
        });
        out.results.services.extend(services);
        out.results.tests.extend(tests);
    }
    if let (Some(writer), Mode::PerCellText { journal, .. }) = (writer, mode) {
        if let Some(e) = writer.take_error() {
            panic!("replay journal write failed: {e}");
        }
        drop(writer);
        let read = tracer
            .time("journal.read", 0, 0, || read_journal(journal))
            .expect("read the replay journal back");
        out.read_back = Some(read);
    }
    out
}
