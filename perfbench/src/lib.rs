//! Benchmark runner for wsinterop: one named workload per fresh
//! process, timed from outside through public entry points, with an
//! output check per workload and a separate traced mode that reports
//! per-layer figures. See `NOTES.md` beside this package.

pub mod campaign;
mod replay;
pub mod report;
pub mod stats;
mod sys;
mod trace;
pub mod wire;

use std::collections::BTreeMap;

use wsinterop::frameworks::client::ClientId;

use crate::report::Metric;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The stride-1 paper campaign at `-j2`.
    PaperMatrix,
    /// A seeded chaos campaign that journals, then resumes.
    ChaosJournal,
    /// The E15 survey over loopback, closed loop, fresh connections.
    WireSurvey,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMatrix,
        Workload::ChaosJournal,
        Workload::WireSurvey,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper_matrix",
            Workload::ChaosJournal => "chaos_journal",
            Workload::WireSurvey => "wire_survey",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("served_p50_ms", "ms"),
    ("served_p90_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// The span (and metric prefix) of one client's generation step.
pub(crate) fn client_span(id: ClientId) -> &'static str {
    match id {
        ClientId::Metro => "client.generate.Metro",
        ClientId::Axis1 => "client.generate.Axis1",
        ClientId::Axis2 => "client.generate.Axis2",
        ClientId::Cxf => "client.generate.Cxf",
        ClientId::JBossWs => "client.generate.JBossWs",
        ClientId::DotnetCs => "client.generate.DotnetCs",
        ClientId::DotnetVb => "client.generate.DotnetVb",
        ClientId::DotnetJs => "client.generate.DotnetJs",
        ClientId::Gsoap => "client.generate.Gsoap",
        ClientId::Zend => "client.generate.Zend",
        ClientId::Suds => "client.generate.Suds",
    }
}

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
/// Layers a workload does not exercise read 0.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("typecat.catalog_s", "s");
    add("server.deploy.calls", "count");
    add("server.deploy.busy_s", "s");
    add("server.deploy.bytes_out", "bytes");
    add("xml.parse.calls", "count");
    add("xml.parse.busy_s", "s");
    add("xml.parse.mb_per_s", "MB/s");
    add("wsdl.model.busy_s", "s");
    add("wsi.analyze.busy_s", "s");
    add("client.facts.busy_s", "s");
    add("client.generate.calls", "count");
    add("client.generate.busy_s", "s");
    for id in ClientId::ALL {
        add(&format!("{}.busy_s", client_span(id)), "s");
    }
    add("compilers.compile.calls", "count");
    add("compilers.compile.busy_s", "s");
    add("compilers.instantiate.calls", "count");
    add("compilers.instantiate.busy_s", "s");
    for name in [
        "parses",
        "gen_runs",
        "doc_memo_hits",
        "gen_memo_hits",
        "text_generates",
        "fault_bypasses",
    ] {
        add(&format!("doccache.{name}"), "count");
    }
    add("doccache.gen_memo_hit_ratio", "ratio");
    add("campaign.j1_wall_s", "s");
    add("campaign.residual_s", "s");
    add("trace.replay_wall_s", "s");
    add("trace.replay_loop_s", "s");
    add("obs.events_recorded", "count");
    add("obs.events_dropped", "count");
    add("journal.append.calls", "count");
    add("journal.append.busy_s", "s");
    add("journal.bytes", "bytes");
    add("journal.read.busy_s", "s");
    add("journal.replayed_cells", "count");
    for name in [
        "injected",
        "detected",
        "masked",
        "retries",
        "deadline_hits",
        "panics_isolated",
        "watchdog_kills",
    ] {
        add(&format!("faults.{name}"), "count");
    }
    add("wire.connect_p50_us", "us");
    add("wire.client.wsdl_parse_p50_us", "us");
    add("wire.client_cpu_us_per_op", "us");
    add("wire.ttfb_p50_us", "us");
    add("wire.ttfb_p99_us", "us");
    add("wire.unaccounted_p50_us", "us");
    add("wire.requests_per_conn", "ratio");
    for name in [
        "accepted",
        "served",
        "shed",
        "timeouts",
        "queue_timeouts",
        "demoted",
        "malformed",
    ] {
        add(&format!("wire.server.{name}"), "count");
    }
    add("wire.dispatch.serve_echo_p50_us", "us");
    add("wire.dispatch.is_fault_p50_us", "us");
    add("wire.http.parse_head_p50_us", "us");
    add("wire.http.render_p50_us", "us");
    out
}

/// Per-layer figures collected by a traced run, keyed by catalog name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, (f64, usize)>,
}

impl Layers {
    /// Sets one figure measured over `samples` readings.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(name.to_string(), (value, samples));
    }

    /// Sets an exact count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.set(name, value as f64, 1);
    }

    /// A figure set earlier (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    /// Every catalog metric in catalog order; unset ones read 0.
    ///
    /// # Panics
    ///
    /// Panics when a set name is missing from [`per_layer_catalog`] —
    /// a typo in this runner, never a property of the measured run.
    pub fn into_metrics(mut self) -> Vec<Metric> {
        let metrics = per_layer_catalog()
            .into_iter()
            .map(|(name, unit)| {
                let (value, samples) = self.values.remove(&name).unwrap_or((0.0, 0));
                Metric {
                    name,
                    value,
                    unit,
                    samples,
                }
            })
            .collect();
        assert!(
            self.values.is_empty(),
            "per-layer metrics missing from the catalog: {:?}",
            self.values.keys().collect::<Vec<_>>()
        );
        metrics
    }
}

/// A seeded permutation of `0..n` (splitmix64 Fisher–Yates): the same
/// seed always gives the same order.
pub(crate) fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Forces every server catalog (the process-static `typecat` build
/// every `wsitool` invocation pays) and returns how long it took.
pub(crate) fn build_catalogs() -> f64 {
    let start = std::time::Instant::now();
    for server in wsinterop::frameworks::server::all_servers() {
        std::hint::black_box(server.catalog().entries().len());
    }
    start.elapsed().as_secs_f64()
}
