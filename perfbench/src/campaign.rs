//! The campaign workloads, timed end to end through [`Campaign`]:
//! `paper_matrix` (the stride-1 paper run) and `chaos_journal` (a
//! seeded chaos campaign that journals, then resumes from its journal).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use wsinterop::core::obs::{TraceKind, TracePhase};
use wsinterop::core::report::{Fig4, TableIII, Totals};
use wsinterop::core::{
    expected, Campaign, CampaignResults, Clock, FaultPlan, FaultReport, Obs, PipelineStats,
};

use crate::report::RunReport;
use crate::stats::Samples;
use crate::sys;

/// Worker threads for the timed campaigns (the box has two cores).
const THREADS: usize = 2;
/// Catalog stride of the chaos campaign (about 20 k cells).
const CHAOS_STRIDE: usize = 4;
/// Trace-ring capacity of the latency jobs' observer: room for every
/// event of one job, so none is evicted before the job reads them
/// after its run. The paper campaign records about 362 k events, the
/// chaos campaign's first leg about 89 k.
const LATENCY_RING: usize = 1 << 19;
/// Jobs a run makes at least: three timed and three latency jobs.
const MIN_JOBS: usize = 6;

/// The paper campaign as `wsitool campaign 1` configures it.
fn paper_campaign(threads: usize, obs: Arc<Obs>) -> Campaign {
    Campaign::paper().with_threads(threads).with_observer(obs)
}

/// The seeded chaos campaign journaling to `journal`.
fn chaos_campaign(seed: u64, threads: usize, journal: &Path, obs: Arc<Obs>) -> Campaign {
    Campaign::sampled(CHAOS_STRIDE)
        .with_faults(FaultPlan::seeded(seed))
        .with_threads(threads)
        .with_journal(journal)
        .with_observer(obs)
}

/// Mismatches between a paper-campaign result and the frozen paper
/// numbers (`wsinterop_core::expected`): counts, Fig. 4 and every
/// Table III cell. Empty when the run reproduced the paper.
fn paper_mismatches(results: &CampaignResults) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |what: String, got: usize, want: usize| {
        if got != want {
            out.push(format!("{what}: got {got}, want {want}"));
        }
    };
    let totals = Totals::from_results(results);
    check(
        "services".into(),
        results.services.len(),
        expected::TOTAL_CREATED,
    );
    check(
        "deployed".into(),
        totals.services_deployed,
        expected::TOTAL_DEPLOYED,
    );
    check("tests".into(), results.tests.len(), expected::TOTAL_TESTS);
    check(
        "excluded".into(),
        totals.services_excluded,
        expected::TOTAL_EXCLUDED,
    );
    check(
        "interop errors".into(),
        totals.interop_errors,
        expected::TOTAL_INTEROP_ERRORS,
    );
    for (server, want) in expected::DEPLOYED {
        check(format!("{server} deployed"), results.deployed(server), want);
    }
    let fig4 = Fig4::from_results(results);
    for (server, want) in expected::FIG4 {
        let row = fig4.row(server);
        let got = [
            row.cag_warnings,
            row.cag_errors,
            row.cac_warnings,
            row.cac_errors,
        ];
        for (i, (g, w)) in got.into_iter().zip(want).enumerate() {
            check(format!("Fig. 4 {server} column {i}"), g, w);
        }
    }
    let table = TableIII::from_results(results);
    for (server, want) in expected::DESCRIPTION_WARNINGS {
        check(
            format!("Table III WS-I {server}"),
            table.wsi_warnings(server),
            want,
        );
    }
    for (client, server, want) in expected::TABLE3 {
        let cell = table.cell(client, server);
        let got = [
            cell.gen_warnings,
            cell.gen_errors,
            cell.compile_warnings.unwrap_or(expected::NO_COMPILE),
            cell.compile_errors.unwrap_or(expected::NO_COMPILE),
        ];
        for (i, (g, w)) in got.into_iter().zip(want).enumerate() {
            check(format!("Table III {client} vs {server} column {i}"), g, w);
        }
    }
    out
}

/// One campaign job. A timed job attaches its observer exactly as
/// `wsitool campaign` does; a latency job gives it a ring that holds
/// every event, and only its cell latencies are reported.
struct Job {
    wall_s: f64,
    cpu_s: f64,
    cells: u64,
    failed: u64,
    /// Cell latencies in ms; latency jobs only.
    latencies_ms: Option<Samples>,
}

/// `wsitool campaign`'s monotonic-clock observer; latency jobs give it
/// the larger ring.
fn observer(latency: bool) -> Arc<Obs> {
    Arc::new(if latency {
        Obs::with_sink_capacity(Clock::monotonic(), LATENCY_RING)
    } else {
        Obs::new(Clock::monotonic())
    })
}

/// The duration of every finished cell in the observer's ring, in ms.
/// The `generate` span covers one whole cell: generation,
/// classification and journal append. Read after the run, outside the
/// timed window.
fn cell_latencies(obs: &Obs) -> Samples {
    let dropped = obs.trace().dropped();
    if dropped > 0 {
        // Their cells are missing from the samples; the sample count
        // printed beside each percentile shows it.
        println!("latency job ring overflowed: {dropped} trace events dropped");
    }
    obs.trace()
        .drain()
        .into_iter()
        .filter(|e| e.phase == TracePhase::Generate && e.kind == TraceKind::Exit)
        .filter_map(|e| e.dur_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

/// One paper campaign; `ready` runs once the job is set up, just
/// before the clock starts.
fn paper_job(latency: bool, ready: impl FnOnce()) -> Job {
    let obs = observer(latency);
    let campaign = paper_campaign(THREADS, Arc::clone(&obs));
    ready();
    let cpu0 = sys::cpu_seconds().expect("read /proc/self/stat");
    let start = Instant::now();
    let results = campaign.run();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds().expect("read /proc/self/stat") - cpu0;
    let latencies_ms = latency.then(|| cell_latencies(&obs));
    let cells = results.tests.len() as u64;
    let mismatches = paper_mismatches(&results);
    for m in &mismatches {
        eprintln!("paper_matrix check failed: {m}");
    }
    Job {
        wall_s,
        cpu_s,
        cells,
        // A golden mismatch invalidates the whole job's cells.
        failed: if mismatches.is_empty() { 0 } else { cells },
        latencies_ms,
    }
}

/// The result of one chaos leg.
struct Leg {
    results: CampaignResults,
    report: FaultReport,
    stats: PipelineStats,
}

/// Runs a chaos campaign leg; injected panics are part of the
/// experiment, so the panic hook is silenced around it.
fn chaos_leg(campaign: &Campaign) -> Leg {
    std::panic::set_hook(Box::new(|_| {}));
    let run = campaign.try_run_with_stats();
    let _ = std::panic::take_hook();
    let (results, report, stats) = run.expect("chaos campaign journal I/O");
    Leg {
        results,
        report,
        stats,
    }
}

/// Cells of `resumed` that differ from `first`; every cell when the
/// fault reports differ or the resume did not replay every cell.
fn resume_mismatches(first: &Leg, resumed: &Leg) -> u64 {
    let cells = first.results.tests.len() as u64;
    if resumed.stats.journal_replays as u64 != cells {
        eprintln!(
            "chaos_journal check failed: resume replayed {} of {cells} cells",
            resumed.stats.journal_replays
        );
        return cells;
    }
    if first.report != resumed.report
        || first.results.services != resumed.results.services
        || first.results.tests.len() != resumed.results.tests.len()
    {
        eprintln!("chaos_journal check failed: resumed fault report or services differ");
        return cells;
    }
    let differing = first
        .results
        .tests
        .iter()
        .zip(&resumed.results.tests)
        .filter(|(a, b)| a != b)
        .count() as u64;
    if differing > 0 {
        eprintln!("chaos_journal check failed: {differing} resumed cells differ");
    }
    differing
}

/// The journal file the chaos workload writes.
fn journal_path(work_dir: &Path, seed: u64) -> PathBuf {
    work_dir.join(format!("chaos-{seed}-{}.journal", std::process::id()))
}

/// One chaos job (first leg, then resume; a latency job reads the
/// first leg's cells); `ready` runs once the job is set up, just before
/// the clock starts.
fn chaos_job(seed: u64, journal: &Path, latency: bool, ready: impl FnOnce()) -> Job {
    let first_obs = observer(latency);
    let first = chaos_campaign(seed, THREADS, journal, Arc::clone(&first_obs));
    let resume = chaos_campaign(seed, THREADS, journal, observer(false)).with_resume(true);
    let _ = std::fs::remove_file(journal);
    ready();
    let cpu0 = sys::cpu_seconds().expect("read /proc/self/stat");
    let start = Instant::now();
    let first_leg = chaos_leg(&first);
    let resumed = chaos_leg(&resume);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds().expect("read /proc/self/stat") - cpu0;
    let latencies_ms = latency.then(|| cell_latencies(&first_obs));
    let _ = std::fs::remove_file(journal);
    Job {
        wall_s,
        cpu_s,
        cells: first_leg.results.tests.len() as u64,
        failed: resume_mismatches(&first_leg, &resumed),
        latencies_ms,
    }
}

/// One job in this (fresh) process, as a child of [`run`]: build the
/// catalogs and the campaign, print `ready`, run the job, then print
/// its figures on a `job` line and, for a latency job, its
/// cell-latency percentiles on a `latency` line. Check failures travel
/// in the `failed` count.
pub fn job_main(workload: crate::Workload, seed: u64, work_dir: &Path, latency: bool) {
    crate::build_catalogs();
    let ready = || println!("ready");
    let job = match workload {
        crate::Workload::PaperMatrix => paper_job(latency, ready),
        _ => chaos_job(seed, &journal_path(work_dir, seed), latency, ready),
    };
    let rss = sys::peak_rss_mb(None).expect("read /proc/self/status");
    println!(
        "job {} {} {} {} {rss}",
        job.wall_s, job.cpu_s, job.cells, job.failed
    );
    if let Some(mut latencies_ms) = job.latencies_ms {
        let n = latencies_ms.len();
        let p50 = latencies_ms
            .percentile(50)
            .expect("a job classifies thousands of cells");
        let p90 = latencies_ms
            .percentile(90)
            .expect("a job classifies thousands of cells");
        println!("latency {} {} {n}", p50.value, p90.value);
    }
}

/// Figures of one job child process.
struct ChildJob {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    cells: u64,
    failed: u64,
    peak_rss_mb: f64,
    /// `(p50_ms, p90_ms, samples)`; latency jobs only.
    latency: Option<(f64, f64, usize)>,
}

/// The numbers on the child's output line that starts with `tag`.
fn fields(lines: &[String], tag: &str) -> Vec<f64> {
    lines
        .iter()
        .find_map(|line| line.strip_prefix(tag))
        .map(|rest| rest.split(' ').filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default()
}

/// Runs one job child; its set-up is timed from spawn to `ready`.
fn spawn_job(argv: &[String], latency: bool) -> Result<ChildJob, String> {
    let mut argv = argv.to_vec();
    if latency {
        argv.push("--latency".to_string());
    }
    let (setup_s, lines) = sys::run_self(&argv, "--job")?;
    let [wall_s, cpu_s, cells, failed, peak_rss_mb] = fields(&lines, "job ")[..] else {
        return Err("job child reported no figures".to_string());
    };
    let latency = match (latency, &fields(&lines, "latency ")[..]) {
        (false, _) => None,
        (true, &[p50_ms, p90_ms, samples]) => Some((p50_ms, p90_ms, samples as usize)),
        (true, _) => return Err("latency job child reported no latencies".to_string()),
    };
    Ok(ChildJob {
        setup_s,
        wall_s,
        cpu_s,
        cells: cells as u64,
        failed: failed as u64,
        peak_rss_mb,
        latency,
    })
}

/// Runs campaign jobs back to back, each in a fresh child process (the
/// catalogs and the allocator's heap are per process, as for every
/// `wsitool campaign` run), for at least `seconds` and at least
/// [`MIN_JOBS`] jobs. Timed and latency jobs alternate, so both meet
/// the host's fast and slow phases alike. Set-up, wall, throughput, CPU
/// and peak RSS come from the timed jobs only: set-up, wall and peak
/// RSS are medians over them, throughput and CPU pool them. The latency
/// percentiles come from the latency jobs only, exact per job and
/// averaged over jobs. This host switches between a fast and a slow
/// speed every few seconds, so per-job percentiles fall in two clusters
/// and a median over jobs would jump between them from run to run.
/// Every job's cells count as attempted and are checked.
pub fn run(argv: &[String], seconds: f64, report: &mut RunReport) -> Result<(), String> {
    let mut jobs = Vec::new();
    let start = Instant::now();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        jobs.push(spawn_job(argv, jobs.len() % 2 == 1)?);
    }
    report.attempted += jobs.iter().map(|j| j.cells).sum::<u64>();
    report.failed += jobs.iter().map(|j| j.failed).sum::<u64>();
    let (latency_jobs, timed): (Vec<&ChildJob>, Vec<&ChildJob>) =
        jobs.iter().partition(|j| j.latency.is_some());
    let median = |of: &[&ChildJob], f: fn(&ChildJob) -> f64| -> f64 {
        let mut s: Samples = of.iter().map(|&j| f(j)).collect();
        s.median().expect("at least three jobs of each kind")
    };
    let walls: Vec<String> = timed.iter().map(|j| format!("{:.4}", j.wall_s)).collect();
    println!("timed job walls (s): {}", walls.join(" "));
    let latency_wall = median(&latency_jobs, |j| j.wall_s);
    let timed_wall = median(&timed, |j| j.wall_s);
    println!(
        "latency-ring cost: median job wall {latency_wall:.4} s in latency jobs, \
         {timed_wall:.4} s in timed jobs ({:+.1}%)",
        100.0 * (latency_wall / timed_wall - 1.0)
    );
    let n = timed.len();
    let cells: u64 = timed.iter().map(|j| j.cells).sum();
    let total_wall: f64 = timed.iter().map(|j| j.wall_s).sum();
    let total_cpu: f64 = timed.iter().map(|j| j.cpu_s).sum();
    report.add("setup_s", median(&timed, |j| j.setup_s), "s", n);
    report.add("wall_s", timed_wall, "s", n);
    report.add("ops_per_s", cells as f64 / total_wall, "1/s", n);
    let latencies: Vec<(f64, f64, usize)> = latency_jobs.iter().filter_map(|j| j.latency).collect();
    let per_job: Vec<String> = latencies
        .iter()
        .map(|l| format!("{:.4}/{:.4}", l.0, l.1))
        .collect();
    println!("latency job p50/p90 (ms): {}", per_job.join(" "));
    let samples: usize = latencies.iter().map(|l| l.2).sum();
    let mean = |f: fn(&(f64, f64, usize)) -> f64| {
        latencies.iter().map(f).sum::<f64>() / latencies.len() as f64
    };
    println!(
        "served_p50_ms and served_p90_ms are means over {} latency jobs of each job's exact percentile",
        latencies.len()
    );
    report.add("served_p50_ms", mean(|l| l.0), "ms", samples);
    report.add("served_p90_ms", mean(|l| l.1), "ms", samples);
    report.add("cpu_us_per_op", total_cpu * 1e6 / cells as f64, "us", n);
    report.add("peak_rss_mb", median(&timed, |j| j.peak_rss_mb), "MB", n);
    Ok(())
}

/// The traced campaign run: the catalog build, an untraced `-j1`
/// campaign (whose wall the layer table decomposes, and whose public
/// counters give the cache, journal, fault and observer figures), then
/// the traced single-threaded replay.
pub fn run_traced(
    workload: crate::Workload,
    seed: u64,
    work_dir: &Path,
    layers: &mut crate::Layers,
    report: &mut RunReport,
) {
    use crate::replay::{replay, Mode};
    use crate::trace::{LayerTable, Tracer};

    layers.set("typecat.catalog_s", crate::build_catalogs(), 1);
    let journal = journal_path(work_dir, seed);
    let replay_journal = work_dir.join(format!("replay-{seed}-{}.journal", std::process::id()));

    // Untraced -j1 campaign.
    let obs = Arc::new(Obs::new(Clock::monotonic()));
    let (j1_wall_s, stats) = match workload {
        crate::Workload::PaperMatrix => {
            let campaign = paper_campaign(1, Arc::clone(&obs));
            let start = Instant::now();
            let (results, _, stats) = campaign.run_with_stats();
            let wall = start.elapsed().as_secs_f64();
            report.attempted += results.tests.len() as u64;
            if !paper_mismatches(&results).is_empty() {
                eprintln!("paper_matrix check failed on the -j1 campaign");
                report.failed += results.tests.len() as u64;
            }
            (wall, (stats, results))
        }
        _ => {
            let _ = std::fs::remove_file(&journal);
            let first = chaos_campaign(seed, 1, &journal, Arc::clone(&obs));
            let resume = chaos_campaign(seed, 1, &journal, Arc::new(Obs::new(Clock::monotonic())))
                .with_resume(true);
            let start = Instant::now();
            let first_leg = chaos_leg(&first);
            let resumed = chaos_leg(&resume);
            let wall = start.elapsed().as_secs_f64();
            let _ = std::fs::remove_file(&journal);
            report.attempted += first_leg.results.tests.len() as u64;
            report.failed += resume_mismatches(&first_leg, &resumed);
            let r = &first_leg.report;
            layers.count("faults.injected", r.injected_total() as u64);
            layers.count("faults.detected", r.detected_total() as u64);
            layers.count("faults.masked", r.masked_total() as u64);
            layers.count("faults.retries", r.retries_spent as u64);
            layers.count("faults.deadline_hits", r.deadline_hits as u64);
            layers.count("faults.panics_isolated", r.panics_isolated as u64);
            layers.count("faults.watchdog_kills", r.watchdog_cells as u64);
            layers.count(
                "journal.replayed_cells",
                resumed.stats.journal_replays as u64,
            );
            (wall, (first_leg.stats, first_leg.results))
        }
    };
    let (stats, j1_results) = stats;
    layers.count("doccache.parses", stats.parses as u64);
    layers.count("doccache.gen_runs", stats.gen_runs as u64);
    layers.count("doccache.doc_memo_hits", stats.doc_memo_hits as u64);
    layers.count("doccache.gen_memo_hits", stats.gen_memo_hits as u64);
    layers.count("doccache.text_generates", stats.text_generates as u64);
    layers.count("doccache.fault_bypasses", stats.fault_bypasses as u64);
    let lookups = stats.gen_runs + stats.gen_memo_hits;
    if lookups > 0 {
        layers.set(
            "doccache.gen_memo_hit_ratio",
            stats.gen_memo_hits as f64 / lookups as f64,
            lookups,
        );
    }
    layers.count("obs.events_recorded", obs.trace().recorded());
    layers.count("obs.events_dropped", obs.trace().dropped());
    drop(obs);

    // Traced replay.
    let mut tracer = Tracer::new(Instant::now());
    let mode = match workload {
        crate::Workload::PaperMatrix => Mode::ParseOnce,
        _ => Mode::PerCellText {
            journal: &replay_journal,
            config_hash: chaos_campaign(seed, 1, &journal, Arc::new(Obs::monotonic()))
                .config_hash(),
        },
    };
    let start = Instant::now();
    let replayed = replay(
        match workload {
            crate::Workload::PaperMatrix => 1,
            _ => CHAOS_STRIDE,
        },
        &mode,
        &mut tracer,
    );
    let replay_wall_s = start.elapsed().as_secs_f64();
    let journal_bytes = std::fs::metadata(&replay_journal)
        .map(|m| m.len())
        .unwrap_or(0);
    let _ = std::fs::remove_file(&replay_journal);
    match workload {
        crate::Workload::PaperMatrix => {
            if replayed.results != j1_results {
                eprintln!("traced replay disagrees with the campaign's records");
                report.failed = report.attempted;
            }
        }
        _ => {
            let read = replayed.read_back.as_ref().map(|r| &r.cells);
            if read != Some(&replayed.journaled) {
                eprintln!("replay journal did not read back what was appended");
                report.failed = report.attempted;
            }
        }
    }

    let table = LayerTable::new(&tracer, &["cell"], j1_wall_s);
    eprintln!(
        "per-layer self time (replay spans) against the untraced -j1 campaign wall:\n{}",
        table.render()
    );
    let selfs = tracer.self_times();
    let busy = |name: &str| selfs.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e9);
    let calls = |name: &str| selfs.get(name).map_or(0, |&(calls, _)| calls);
    let set_busy = |layers: &mut crate::Layers, metric: &str, span: &str| {
        layers.set(metric, busy(span), calls(span) as usize);
    };
    for (prefix, span) in [
        ("server.deploy", "server.deploy"),
        ("xml.parse", "xml.parse"),
        ("compilers.compile", "compilers.compile"),
        ("compilers.instantiate", "compilers.instantiate"),
        ("journal.append", "journal.append"),
    ] {
        set_busy(layers, &format!("{prefix}.busy_s"), span);
        layers.count(&format!("{prefix}.calls"), calls(span));
    }
    set_busy(layers, "wsdl.model.busy_s", "wsdl.model");
    set_busy(layers, "wsi.analyze.busy_s", "wsi.analyze");
    set_busy(layers, "client.facts.busy_s", "client.facts");
    set_busy(layers, "journal.read.busy_s", "journal.read");
    let (mut gen_calls, mut gen_busy) = (0, 0.0);
    for id in wsinterop::frameworks::client::ClientId::ALL {
        let span = crate::client_span(id);
        set_busy(layers, &format!("{span}.busy_s"), span);
        gen_calls += calls(span);
        gen_busy += busy(span);
    }
    layers.count("client.generate.calls", gen_calls);
    layers.set("client.generate.busy_s", gen_busy, gen_calls as usize);
    layers.count("server.deploy.bytes_out", replayed.deploy_bytes);
    let parse_busy = busy("xml.parse");
    if parse_busy > 0.0 {
        layers.set(
            "xml.parse.mb_per_s",
            replayed.parse_bytes as f64 / (1 << 20) as f64 / parse_busy,
            calls("xml.parse") as usize,
        );
    }
    layers.count("journal.bytes", journal_bytes);
    layers.set("campaign.j1_wall_s", j1_wall_s, 1);
    layers.set("campaign.residual_s", table.residual_s(), 1);
    layers.set("trace.replay_wall_s", replay_wall_s, 1);
    layers.set(
        "trace.replay_loop_s",
        replay_wall_s - table.layer_total_s(),
        1,
    );
    // The replay's layer spans nest inside its own wall. The residual is
    // the -j1 wall minus the replay's layer times, not a direct measure
    // of orchestration cost, but it cannot be negative unless a span
    // was mis-attributed or the campaign skipped a layer.
    if table.layer_total_s() > replay_wall_s {
        eprintln!(
            "layer table check failed: layer self times {} s exceed the replay wall {replay_wall_s} s",
            table.layer_total_s()
        );
        report.failed = report.attempted;
    }
    if table.residual_s() < 0.0 {
        eprintln!(
            "layer table check failed: negative residual {} s (the -j1 wall is below the replay's layer total)",
            table.residual_s()
        );
        report.failed = report.attempted;
    }

    let dump = work_dir.join(format!("spans-{}-{seed}.jsonl", workload.name()));
    match tracer.write_jsonl(&dump) {
        Ok(()) => eprintln!(
            "spans: {} written to {}",
            tracer.spans().len(),
            dump.display()
        ),
        Err(e) => eprintln!("spans: cannot write {}: {e}", dump.display()),
    }
}
