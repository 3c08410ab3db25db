//! The wire workload, `wire_survey`, against a `wsitool serve` child
//! over loopback: the E15 survey, closed loop. Each of two client
//! threads runs `GET ?wsdl`, then the SOAP exchange, with a fresh
//! connection per request; every outcome must equal the in-process
//! survey's.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wsinterop::core::exchange::{
    classify_response, first_survey_operation, serve_echo, survey_sites, ExchangeOutcome,
    SURVEY_PROBE,
};
use wsinterop::core::wire::http::{self, HttpLimits, Response};
use wsinterop::core::wire::{
    exchange_over_http, host_survey_services, HostedService, WireClient, WireClientConfig,
};
use wsinterop::wsdl::de::from_xml_str;
use wsinterop::wsdl::soap;
use wsinterop::xml::{write_document, WriteOptions};

use crate::report::RunReport;
use crate::stats::{window_percentiles, Samples};
use crate::sys::{self, Server};
use crate::trace::{SpanId, Tracer};
use crate::Layers;

/// Catalog stride the survey serves (725 sites per pass).
const SURVEY_STRIDE: usize = 10;
/// Client threads, each with at most one open connection.
const CLIENT_THREADS: usize = 2;
/// Timed ops a run completes at least, so p90 has a hundred samples
/// beyond it.
const MIN_OPS: usize = 1_000;
/// Ops per window of the served-p90 figure: each window's p90 has a
/// hundred samples beyond it, and the run reports the median window.
const WINDOW_OPS: usize = 1_000;
/// Socket deadline for every client read and write.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// One survey SOAP request, head and body, for the in-process
/// dispatch timings.
struct Post {
    path: String,
    request: Vec<u8>,
    /// Where the body starts in `request`.
    body_at: usize,
}

/// Fresh processes whose set-up a wire run times; `setup_s` is their
/// median.
const SETUP_SAMPLES: usize = 9;

/// Times [`SETUP_SAMPLES`] fresh set-up processes (this executable with
/// `--probe-setup`, which runs [`setup`]) from spawn to `ready`.
pub fn setup_samples(argv: &[String]) -> Result<Samples, String> {
    (0..SETUP_SAMPLES)
        .map(|_| sys::run_self(argv, "--probe-setup").map(|(ready_s, _)| ready_s))
        .collect()
}

/// Everything a wire run sets up before its first timed op.
pub struct Setup {
    server: Option<Server>,
    addr: SocketAddr,
    /// Survey site paths (`/{ServerId}/{fqcn}`).
    sites: Vec<String>,
    services: BTreeMap<String, HostedService>,
}

/// One survey request per invocable hosted service. The head is
/// byte-identical to `http::write_request`'s.
fn post_corpus(services: &BTreeMap<String, HostedService>) -> Vec<Post> {
    let mut posts = Vec::new();
    for (path, hosted) in services {
        let Ok(defs) = &hosted.defs else { continue };
        let Some(operation) = first_survey_operation(&hosted.wsdl_xml) else {
            continue;
        };
        let Ok(doc) = soap::request(defs, &operation, SURVEY_PROBE) else {
            continue;
        };
        let body = write_document(&doc, &WriteOptions::compact());
        let mut request = format!(
            "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\
             Content-Type: text/xml; charset=utf-8\r\nSOAPAction: \"{operation}\"\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        let body_at = request.len();
        request.extend_from_slice(body.as_bytes());
        posts.push(Post {
            path: path.clone(),
            request,
            body_at,
        });
    }
    posts
}

/// Starts the server, builds the survey's site list in-process while
/// it starts, and waits for its `ready:` line.
pub fn setup(wsitool: &Path) -> io::Result<Setup> {
    let mut server = Server::spawn(wsitool, SURVEY_STRIDE)?;
    crate::build_catalogs();
    let services = host_survey_services(SURVEY_STRIDE);
    let sites = services.keys().cloned().collect();
    let addr = server.wait_ready()?;
    Ok(Setup {
        server: Some(server),
        addr,
        sites,
        services,
    })
}

impl Setup {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until shutdown")
    }

    /// Stops the server.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.server.take() {
            Some(server) => server.shutdown(),
            None => Ok(()),
        }
    }
}

/// Counters read from the server's `/statusz`.
const LADDER: [&str; 7] = [
    "accepted",
    "served",
    "shed",
    "timeouts",
    "queue_timeouts",
    "demoted",
    "malformed",
];

fn statusz(server: &Server) -> io::Result<BTreeMap<&'static str, u64>> {
    let body = server.admin("GET", "/statusz")?;
    LADDER
        .iter()
        .map(|&key| {
            sys::json_u64(&body, key)
                .map(|v| (key, v))
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("statusz {key}")))
        })
        .collect()
}

/// What a timed socket run measured.
#[derive(Default)]
struct Measured {
    /// Per-op latencies of the timed passes, each client thread's in
    /// completion order.
    latencies_ms: Vec<f64>,
    /// Wall of each survey pass.
    walls_s: Samples,
    total_wall_s: f64,
    attempted: u64,
    failed: u64,
    tracer: Option<Tracer>,
}

/// One survey op through the public client: `GET ?wsdl`, then
/// `exchange_over_http` — what `survey_tcp` does per site.
fn survey_op(client: &WireClient, addr: SocketAddr, path: &str) -> ExchangeOutcome {
    let target = format!("{path}?wsdl");
    match client.get(addr, &target, path) {
        Err(e) => ExchangeOutcome::TransportError { reason: e.reason() },
        Ok(response) => match response.body_str() {
            None => ExchangeOutcome::TransportError {
                reason: "description is not UTF-8".to_string(),
            },
            Some(wsdl) => match first_survey_operation(wsdl) {
                None => ExchangeOutcome::ClientCannotInvoke {
                    reason: "no operations in the description".to_string(),
                },
                Some(op) => exchange_over_http(client, addr, path, wsdl, &op, SURVEY_PROBE),
            },
        },
    }
}

/// Span names of one traced request: connect, write, first byte, read.
struct RequestSpans {
    connect: &'static str,
    write: &'static str,
    ttfb: &'static str,
    read: &'static str,
}

const GET_SPANS: RequestSpans = RequestSpans {
    connect: "wire.get.connect",
    write: "wire.get.write",
    ttfb: "wire.get.ttfb",
    read: "wire.get.read",
};

const SOAP_SPANS: RequestSpans = RequestSpans {
    connect: "wire.connect",
    write: "wire.write",
    ttfb: "wire.ttfb",
    read: "wire.read",
};

fn request_id(response: &Response) -> Option<u64> {
    response
        .headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("x-request-id"))
        .and_then(|(_, value)| u64::from_str_radix(value.trim(), 16).ok())
}

/// Connects with the client deadlines; Nagle stays on, as `WireClient`
/// leaves it.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// One request on a fresh connection, as `WireClient` sends it (no
/// retries), with `200`/`500` the only usable answers. Connect, write,
/// first byte and read each get a span; the spans carry the response's
/// `X-Request-Id`.
fn traced_fresh_request(
    tracer: &mut Tracer,
    root: SpanId,
    cell: u32,
    addr: SocketAddr,
    spans: &RequestSpans,
    request: (&str, &str, Option<&str>, &[u8]),
) -> Result<Response, String> {
    let (method, target, action, body) = request;
    let first_span = tracer.last_id() + 1;
    let mut stream = tracer
        .time(spans.connect, root, cell, || connect(addr))
        .map_err(|e| format!("connect: {e}"))?;
    tracer
        .time(spans.write, root, cell, || {
            http::write_request(&mut stream, method, target, "127.0.0.1", action, body, true)
        })
        .map_err(|e| format!("write: {e:?}"))?;
    tracer
        .time(spans.ttfb, root, cell, || stream.peek(&mut [0u8; 1]))
        .map_err(|e| format!("first byte: {e}"))?;
    let response = tracer
        .time(spans.read, root, cell, || {
            http::read_response(&stream, &HttpLimits::default())
        })
        .map_err(|e| format!("read: {e:?}"))?;
    if let Some(id) = request_id(&response) {
        tracer.tag_request(first_span, tracer.last_id(), id);
    }
    match response.status {
        200 | 500 => Ok(response),
        other => Err(format!("status {other}")),
    }
}

/// The survey op with a span around every step: the same calls
/// `exchange_over_http` makes, over the traced raw client.
fn traced_survey_op(
    tracer: &mut Tracer,
    cell: u32,
    addr: SocketAddr,
    path: &str,
) -> ExchangeOutcome {
    let root = tracer.open("op", 0, cell);
    let outcome = traced_survey_steps(tracer, root, cell, addr, path);
    tracer.close(root);
    outcome
}

fn traced_survey_steps(
    tracer: &mut Tracer,
    root: SpanId,
    cell: u32,
    addr: SocketAddr,
    path: &str,
) -> ExchangeOutcome {
    use ExchangeOutcome::{ClientCannotInvoke, NonConformantMessage, TransportError};
    let target = format!("{path}?wsdl");
    let response = match traced_fresh_request(
        tracer,
        root,
        cell,
        addr,
        &GET_SPANS,
        ("GET", &target, None, b""),
    ) {
        Ok(r) => r,
        Err(reason) => return TransportError { reason },
    };
    let Some(wsdl) = response.body_str() else {
        return TransportError {
            reason: "description is not UTF-8".to_string(),
        };
    };
    let parse = "wire.client.wsdl_parse";
    let Some(op) = tracer.time(parse, root, cell, || first_survey_operation(wsdl)) else {
        return ClientCannotInvoke {
            reason: "no operations in the description".to_string(),
        };
    };
    let defs = match tracer.time(parse, root, cell, || from_xml_str(wsdl)) {
        Ok(defs) => defs,
        Err(e) => {
            return ClientCannotInvoke {
                reason: e.to_string(),
            }
        }
    };
    let request = tracer.time("wire.client.request", root, cell, || {
        soap::request(&defs, &op, SURVEY_PROBE)
            .map(|doc| write_document(&doc, &WriteOptions::compact()))
    });
    let request = match request {
        Ok(request) => request,
        Err(e) => {
            return ClientCannotInvoke {
                reason: e.to_string(),
            }
        }
    };
    let violation = tracer.time("wire.client.check", root, cell, || {
        let report = wsinterop::wsi::message::check_message(&request);
        let first = report
            .failures()
            .next()
            .map(|f| format!("[{}] {}", f.assertion, f.detail));
        first
    });
    if let Some(detail) = violation {
        return NonConformantMessage {
            side: "request",
            detail,
        };
    }
    let post = ("POST", path, Some(op.as_str()), request.as_bytes());
    let response = match traced_fresh_request(tracer, root, cell, addr, &SOAP_SPANS, post) {
        Ok(r) => r,
        Err(reason) => return TransportError { reason },
    };
    let Some(body) = response.body_str() else {
        return TransportError {
            reason: "response body is not UTF-8".to_string(),
        };
    };
    tracer.time("wire.client.classify", root, cell, || {
        classify_response(&request, body, SURVEY_PROBE)
    })
}

/// Closed-loop survey passes (each site once per pass, in a seeded
/// order, claimed by the client threads): one untimed warm-up pass,
/// then timed passes until `seconds` have passed and at least
/// [`MIN_OPS`] sites were surveyed. Every op's outcome, the warm-up's
/// too, is then checked against the in-process survey (E15), computed
/// after the passes so that set-up holds only what the client needs.
fn run_survey(setup: &Setup, seed: u64, seconds: f64, traced: bool) -> Measured {
    let mut m = Measured::default();
    let mut outcomes = Vec::new();
    let epoch = Instant::now();
    let mut start = epoch;
    let mut pass = 0u64;
    while pass == 0 || m.latencies_ms.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let warm_up = pass == 0;
        let order = crate::shuffled(setup.sites.len(), seed.wrapping_add(pass));
        let cursor = AtomicUsize::new(0);
        let pass_start = Instant::now();
        type Out = (Vec<f64>, Vec<(usize, ExchangeOutcome)>, Option<Tracer>);
        let outs: Vec<Out> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENT_THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let client = WireClient::new(WireClientConfig {
                            max_retries: 0,
                            ..WireClientConfig::default()
                        });
                        let mut tracer = traced.then(|| Tracer::new(epoch));
                        let (mut lat, mut got) = (Vec::new(), Vec::new());
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&site_ix) = order.get(i) else { break };
                            let path = &setup.sites[site_ix];
                            let t = Instant::now();
                            let outcome = match tracer.as_mut() {
                                Some(tr) => {
                                    let op_id = (pass as usize * order.len() + i) as u32 + 1;
                                    traced_survey_op(tr, op_id, setup.addr, path)
                                }
                                None => survey_op(&client, setup.addr, path),
                            };
                            lat.push(t.elapsed().as_secs_f64() * 1e3);
                            got.push((site_ix, outcome));
                        }
                        (lat, got, tracer)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("survey client thread panicked"))
                .collect()
        });
        let wall = pass_start.elapsed().as_secs_f64();
        for (mut lat, mut got, tracer) in outs {
            m.attempted += lat.len() as u64;
            outcomes.append(&mut got);
            if warm_up {
                continue;
            }
            m.latencies_ms.append(&mut lat);
            if let Some(t) = tracer {
                m.tracer.get_or_insert_with(|| Tracer::new(epoch)).absorb(t);
            }
        }
        if warm_up {
            start = Instant::now();
        } else {
            m.walls_s.push(wall);
            m.total_wall_s += wall;
        }
        pass += 1;
    }
    let reference: HashMap<String, ExchangeOutcome> = survey_sites(SURVEY_STRIDE)
        .into_iter()
        .map(|s| (format!("/{}/{}", s.server, s.fqcn), s.outcome))
        .collect();
    if reference.len() != setup.sites.len() {
        eprintln!(
            "wire_survey check failed: {} sites served, {} in the in-process survey",
            setup.sites.len(),
            reference.len()
        );
        m.failed = m.attempted;
        return m;
    }
    for (site_ix, outcome) in &outcomes {
        let path = &setup.sites[*site_ix];
        match reference.get(path) {
            Some(want) if want == outcome => {}
            want => {
                let want = want.map_or("no such site".to_string(), ToString::to_string);
                eprintln!("wire_survey check failed at {path}: got {outcome}, want {want}");
                m.failed += 1;
            }
        }
    }
    m
}

/// Server-side figures around a timed run.
struct ServerSide {
    cpu_s: f64,
    peak_rss_mb: f64,
    ladder: BTreeMap<&'static str, u64>,
}

/// Runs `f` and reads the server's CPU, peak RSS and `/statusz`
/// counters (as deltas) around it.
fn with_server_side<R>(server: &Server, f: impl FnOnce() -> R) -> io::Result<(R, ServerSide)> {
    let before = statusz(server)?;
    let cpu0 = sys::thread_cpu_seconds(server.pid())?;
    let out = f();
    let cpu_s = sys::thread_cpu_seconds(server.pid())? - cpu0;
    let after = statusz(server)?;
    let mut ladder: BTreeMap<&'static str, u64> = LADDER
        .iter()
        .map(|&k| (k, after[k].saturating_sub(before[k])))
        .collect();
    // The closing `/statusz` scrape's own connection.
    if let Some(accepted) = ladder.get_mut("accepted") {
        *accepted = accepted.saturating_sub(1);
    }
    let peak_rss_mb = sys::peak_rss_mb(Some(server.pid()))?;
    Ok((
        out,
        ServerSide {
            cpu_s,
            peak_rss_mb,
            ladder,
        },
    ))
}

/// The untraced wire run.
pub fn run(wsitool: &Path, seed: u64, seconds: f64, report: &mut RunReport) -> io::Result<()> {
    let mut setup = setup(wsitool)?;
    let (mut m, server) =
        with_server_side(setup.server(), || run_survey(&setup, seed, seconds, false))?;
    setup.shutdown()?;
    report.attempted += m.attempted;
    report.failed += m.failed;
    let walls = m.walls_s.len();
    report.add("wall_s", m.walls_s.median().unwrap_or(0.0), "s", walls);
    report.add(
        "ops_per_s",
        m.latencies_ms.len() as f64 / m.total_wall_s,
        "1/s",
        walls,
    );
    let samples = m.latencies_ms.len();
    let refused = |e: crate::stats::PercentileError| io::Error::other(e.to_string());
    let p50 = m
        .latencies_ms
        .iter()
        .copied()
        .collect::<Samples>()
        .percentile(50)
        .map_err(refused)?;
    report.add("served_p50_ms", p50.value, "ms", samples);
    let mut window_p90 = window_percentiles(&m.latencies_ms, WINDOW_OPS, 90).map_err(refused)?;
    let windows = window_p90.len();
    let p90 = window_p90.median().expect("at least one window");
    println!("served_p90_ms is the median of {windows} windows' exact p90 ({samples} ops)");
    report.add("served_p90_ms", p90, "ms", samples);
    let served = server.ladder["served"];
    report.add(
        "cpu_us_per_op",
        server.cpu_s * 1e6 / served.max(1) as f64,
        "us",
        served as usize,
    );
    report.add("peak_rss_mb", server.peak_rss_mb, "MB", 1);
    Ok(())
}

/// In-process timing of the server's dispatch calls over the request
/// corpus: head parse, `serve_echo`, `is_fault`, response render.
fn time_dispatch(posts: &[Post], services: &BTreeMap<String, HostedService>, layers: &mut Layers) {
    let limits = HttpLimits::default();
    let (mut head, mut echo, mut fault, mut render) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    while head.len() < 2 * MIN_OPS {
        for post in posts {
            let Some(Ok(defs)) = services.get(&post.path).map(|s| s.defs.as_ref()) else {
                continue;
            };
            let t = Instant::now();
            std::hint::black_box(
                http::parse_request_head(&post.request[..post.body_at], &limits).ok(),
            );
            head.push(us(t));
            let body = std::str::from_utf8(&post.request[post.body_at..])
                .expect("corpus bodies are UTF-8");
            let t = Instant::now();
            let answer = serve_echo(defs, body);
            echo.push(us(t));
            let t = Instant::now();
            let is_fault = soap::is_fault(&answer);
            fault.push(us(t));
            let t = Instant::now();
            let status = if is_fault { 500 } else { 200 };
            std::hint::black_box(http::render_response(
                status,
                "OK",
                "text/xml",
                &[("X-Request-Id", "0123456789abcdef")],
                answer.as_bytes(),
                false,
            ));
            render.push(us(t));
        }
    }
    for (name, samples) in [
        ("wire.http.parse_head_p50_us", &mut head),
        ("wire.dispatch.serve_echo_p50_us", &mut echo),
        ("wire.dispatch.is_fault_p50_us", &mut fault),
        ("wire.http.render_p50_us", &mut render),
    ] {
        let n = samples.len();
        let p50 = samples
            .percentile(50)
            .expect("thousands of dispatch samples")
            .value;
        layers.set(name, p50, n);
    }
}

fn span_p(tracer: &Tracer, names: &[&str], pct: u32) -> Option<(f64, usize)> {
    let mut s: Samples = names
        .iter()
        .flat_map(|n| tracer.durations(n))
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let n = s.len();
    s.percentile(pct).ok().map(|p| (p.value, n))
}

/// The traced wire run: client-side spans per request (tagged with the
/// server's request id), server counters, and the dispatch calls timed
/// in-process after the socket run.
pub fn run_traced(
    wsitool: &Path,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    layers: &mut Layers,
    report: &mut RunReport,
) -> io::Result<()> {
    layers.set("typecat.catalog_s", crate::build_catalogs(), 1);
    let mut setup = setup(wsitool)?;
    let cpu0 = sys::cpu_seconds()?;
    let (mut m, server) =
        with_server_side(setup.server(), || run_survey(&setup, seed, seconds, true))?;
    let client_cpu_s = sys::cpu_seconds()? - cpu0;
    setup.shutdown()?;
    report.attempted += m.attempted;
    report.failed += m.failed;
    let tracer = m
        .tracer
        .take()
        .unwrap_or_else(|| Tracer::new(Instant::now()));

    for (metric, names, pct) in [
        (
            "wire.connect_p50_us",
            &["wire.connect", "wire.get.connect"][..],
            50,
        ),
        (
            "wire.client.wsdl_parse_p50_us",
            &["wire.client.wsdl_parse"][..],
            50,
        ),
        ("wire.ttfb_p50_us", &["wire.ttfb"][..], 50),
        ("wire.ttfb_p99_us", &["wire.ttfb"][..], 99),
    ] {
        if let Some((value, n)) = span_p(&tracer, names, pct) {
            layers.set(metric, value, n);
        }
    }
    layers.set(
        "wire.client_cpu_us_per_op",
        client_cpu_s * 1e6 / m.attempted.max(1) as f64,
        m.attempted as usize,
    );
    for (key, value) in &server.ladder {
        layers.count(&format!("wire.server.{key}"), *value);
    }
    let accepted = server.ladder["accepted"].max(1);
    layers.set(
        "wire.requests_per_conn",
        server.ladder["served"] as f64 / accepted as f64,
        accepted as usize,
    );

    time_dispatch(&post_corpus(&setup.services), &setup.services, layers);
    let ttfb = span_p(&tracer, &["wire.ttfb"], 50).map_or(0.0, |p| p.0);
    let dispatch: f64 = [
        "wire.http.parse_head_p50_us",
        "wire.dispatch.serve_echo_p50_us",
        "wire.dispatch.is_fault_p50_us",
        "wire.http.render_p50_us",
    ]
    .iter()
    .map(|name| layers.get(name))
    .sum();
    layers.set("wire.unaccounted_p50_us", ttfb - dispatch, 1);

    let dump = work_dir.join(format!("spans-wire_survey-{seed}.jsonl"));
    match tracer.write_jsonl(&dump) {
        Ok(()) => eprintln!(
            "spans: {} written to {}",
            tracer.spans().len(),
            dump.display()
        ),
        Err(e) => eprintln!("spans: cannot write {}: {e}", dump.display()),
    }
    Ok(())
}
