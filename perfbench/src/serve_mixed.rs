//! `serve_mixed`: the `qaec serve` request path. `serve_unix` runs
//! in-process over a `Service` with two workers; two client connections
//! each replay their own seeded closed-loop stream of `check` lines with
//! inline QASM — mostly hot pairs (pre-warmed, so cache hits), a few
//! cold pairs (each seen once, so misses that compile and contract) and
//! a few malformed lines (the error path).
//!
//! Cache outcomes cannot depend on how the two connections interleave:
//! hot pairs are compiled during set-up and always asked at the same ε,
//! cold pairs are split between the connections, and the cache budget is
//! far above the working set, so nothing is evicted.

use crate::check_cold::count_report;
use crate::corpus::{cold_corpus, hot_corpus, Recipe, Rng};
use crate::measure::{ms, release_free_memory, Tracer};
use crate::verify::{check_decision, Answer, References};
use crate::{Kind, Round, Sample, Workload};
use qaec::{
    AlgorithmUsed, CacheOutcome, CheckOptions, Service, ServiceConfig, ServiceQuery, ServiceReply,
    ServiceRequest, Verdict,
};
use qaec_circuit::{pair_hash, qasm};
use qaec_tensornet::plan::build_count;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const HOT_PER_CONNECTION: usize = 300;
/// About 2% of the requests: the p99 then falls inside the misses.
const COLD_PER_CONNECTION: usize = 6;
const MALFORMED_PER_CONNECTION: usize = 3;
/// Far above the working set (hot plus cold sessions), so the run never
/// evicts and every round sees the same cache outcomes.
const CACHE_BYTES: usize = 1 << 30;

const HOT: usize = 0;
const COLD: usize = 1;
const MALFORMED: usize = 2;

fn options() -> CheckOptions {
    CheckOptions {
        threads: 2,
        ..CheckOptions::default()
    }
}

/// One request line of a connection's stream.
struct Request {
    class: usize,
    /// Index into [`Streams::recipes`] (hot then cold); `None` for a
    /// malformed line.
    pair: Option<usize>,
    line: String,
}

/// Everything a round sends, generated from the seed.
struct Streams {
    /// Hot pairs, then cold pairs.
    recipes: Vec<Recipe>,
    hot: usize,
    /// QASM text of each pair.
    texts: Vec<(String, String)>,
    connections: Vec<Vec<Request>>,
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn check_line(id: u64, texts: &(String, String), epsilon: f64) -> String {
    format!(
        "{{\"v\": 1, \"id\": {id}, \"op\": \"check\", \"ideal\": {}, \"noisy\": {}, \"epsilon\": {epsilon}}}",
        json_string(&texts.0),
        json_string(&texts.1)
    )
}

fn malformed_line(id: u64, variant: usize, texts: &(String, String)) -> String {
    match variant {
        0 => {
            let bad = json_string("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n");
            format!("{{\"v\": 1, \"id\": {id}, \"op\": \"check\", \"ideal\": {bad}, \"noisy\": {bad}, \"epsilon\": 0.01}}")
        }
        1 => format!("{{\"v\": 1, \"id\": {id}, \"op\": \"check\", \"epsilon\": 0.01"),
        2 => format!("{{\"v\": 1, \"id\": {id}, \"op\": \"frobnicate\"}}"),
        _ => format!(
            "{{\"v\": 1, \"id\": {id}, \"op\": \"check\", \"ideal\": {}, \"noisy\": {}}}",
            json_string(&texts.0),
            json_string(&texts.1)
        ),
    }
}

impl Streams {
    fn build(seed: u64) -> Streams {
        let mut recipes = hot_corpus(seed);
        let hot = recipes.len();
        recipes.extend(cold_corpus(seed, CONNECTIONS * COLD_PER_CONNECTION));
        let texts: Vec<(String, String)> = recipes
            .iter()
            .map(|recipe| {
                let (ideal, noisy) = recipe.pair();
                (qasm::write(&ideal), qasm::write(&noisy))
            })
            .collect();
        let connections = (0..CONNECTIONS)
            .map(|c| {
                let rng = &mut Rng::new(seed, 10 + c as u64);
                let mut slots: Vec<(usize, usize)> = Vec::new();
                for _ in 0..HOT_PER_CONNECTION {
                    slots.push((HOT, rng.below(hot)));
                }
                for i in 0..COLD_PER_CONNECTION {
                    slots.push((COLD, hot + c * COLD_PER_CONNECTION + i));
                }
                for _ in 0..MALFORMED_PER_CONNECTION {
                    slots.push((MALFORMED, rng.below(4)));
                }
                rng.shuffle(&mut slots);
                slots
                    .into_iter()
                    .enumerate()
                    .map(|(position, (class, index))| {
                        let id = (c * 1_000_000 + position) as u64;
                        if class == MALFORMED {
                            Request {
                                class,
                                pair: None,
                                line: malformed_line(id, index, &texts[0]),
                            }
                        } else {
                            Request {
                                class,
                                pair: Some(index),
                                line: check_line(id, &texts[index], recipes[index].epsilon),
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        Streams {
            recipes,
            hot,
            texts,
            connections,
        }
    }

    fn request(&self, pair: usize) -> ServiceRequest {
        let (ideal, noisy) = &self.texts[pair];
        ServiceRequest {
            ideal: qasm::parse(ideal).expect("generated QASM parses"),
            noisy: qasm::parse(noisy).expect("generated QASM parses"),
            query: ServiceQuery::Check {
                epsilon: self.recipes[pair].epsilon,
            },
            algorithm: None,
        }
    }

    /// A service with every hot pair compiled and answered once.
    fn prewarmed_service(&self) -> Arc<Service> {
        let service = Service::new(ServiceConfig {
            options: options(),
            cache_bytes: Some(CACHE_BYTES),
        });
        for pair in 0..self.hot {
            let response = service.handle(&self.request(pair));
            assert!(
                response.result.is_ok(),
                "hot pair {pair} failed to pre-warm"
            );
        }
        Arc::new(service)
    }
}

/// Drops the timing field from a response line: everything else is
/// deterministic.
fn strip_timing(line: &str) -> String {
    let Some(at) = line.find(", \"wall_ms\": ") else {
        return line.to_string();
    };
    let rest = &line[at + 2..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    format!("{}{}", &line[..at], &rest[end..])
}

/// The raw value of a top-level scalar field of a response line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    if let Some(text) = rest.strip_prefix('"') {
        return text.find('"').map(|end| &text[..end]);
    }
    Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
}

pub struct ServeMixed {
    seed: u64,
    references: References,
    /// Expected response lines (timing stripped), connection by
    /// connection, with the outcome of their reference check.
    expected: Option<Vec<(String, Result<(), String>)>>,
}

impl ServeMixed {
    pub fn new(seed: u64) -> ServeMixed {
        ServeMixed {
            seed,
            references: References::default(),
            expected: None,
        }
    }

    /// The lines the stdin transport answers for the same stream on a
    /// fresh, identically pre-warmed service (the `stats` line is the
    /// batch barrier after the pre-warm requests), each checked against
    /// the reference fidelity of its pair.
    fn expected_lines(&mut self) -> Vec<(String, Result<(), String>)> {
        let streams = Streams::build(self.seed);
        let service = Service::new(ServiceConfig {
            options: options(),
            cache_bytes: Some(CACHE_BYTES),
        });
        let mut input = String::new();
        for pair in 0..streams.hot {
            input.push_str(&check_line(
                0,
                &streams.texts[pair],
                streams.recipes[pair].epsilon,
            ));
            input.push('\n');
        }
        input.push_str("{\"v\": 1, \"op\": \"stats\"}\n");
        for request in streams.connections.iter().flatten() {
            input.push_str(&request.line);
            input.push('\n');
        }
        let mut out = Vec::new();
        let lines = match qaec_cli::serve::serve_batch(&service, input.as_bytes(), &mut out) {
            Ok(()) => String::from_utf8_lossy(&out)
                .lines()
                .map(strip_timing)
                .collect(),
            Err(e) => vec![format!("serve_batch failed: {e}")],
        };
        let requests: Vec<&Request> = streams.connections.iter().flatten().collect();
        requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                let line = lines.get(streams.hot + 1 + i).cloned().unwrap_or_default();
                let check = self.check_response(&streams, request, &line);
                (line, check)
            })
            .collect()
    }

    /// Checks one expected response line: errors for malformed lines,
    /// otherwise the pair's cache key, cache outcome, verdict and
    /// fidelity interval against the reference.
    fn check_response(
        &mut self,
        streams: &Streams,
        request: &Request,
        line: &str,
    ) -> Result<(), String> {
        let Some(pair) = request.pair else {
            return match field(line, "ok") {
                Some("false") => Ok(()),
                _ => Err(format!(
                    "malformed request not answered with one error: {line}"
                )),
            };
        };
        let recipe = &streams.recipes[pair];
        let (ideal, noisy) = recipe.pair();
        let key = format!("{:016x}", pair_hash(&ideal, &noisy));
        let cache = if request.class == HOT { "hit" } else { "miss" };
        if field(line, "ok") != Some("true")
            || field(line, "key") != Some(key.as_str())
            || field(line, "cache") != Some(cache)
        {
            return Err(format!("{}: unexpected response {line}", recipe.name));
        }
        let number = |key: &str| field(line, key).and_then(|v| v.parse::<f64>().ok());
        let (Some(lo), Some(hi)) = (number("fidelity_lower"), number("fidelity_upper")) else {
            return Err(format!("{}: no fidelity in {line}", recipe.name));
        };
        let verdict = [
            Verdict::Equivalent,
            Verdict::NotEquivalent,
            Verdict::Inconclusive,
        ]
        .into_iter()
        .find(|v| field(line, "verdict") == Some(v.to_string().as_str()))
        .ok_or_else(|| format!("{}: no verdict in {line}", recipe.name))?;
        let algorithm = [
            AlgorithmUsed::AlgorithmI,
            AlgorithmUsed::AlgorithmII,
            AlgorithmUsed::Mpo,
        ]
        .into_iter()
        .find(|a| field(line, "algorithm") == Some(a.to_string().as_str()))
        .ok_or_else(|| format!("{}: no algorithm in {line}", recipe.name))?;
        let reference = self.references.get(recipe, recipe.strength);
        check_decision(recipe, reference, verdict, (lo, hi), algorithm)
    }

    /// The socket round: two clients against `serve_unix`.
    fn socket_round(&mut self) -> Round {
        let setup_start = Instant::now();
        let streams = Streams::build(self.seed);
        let service = streams.prewarmed_service();
        let path = format!(".bench_sock_{}", std::process::id());
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind the benchmark socket");
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                qaec_cli::serve::serve_unix(service, listener, Some(CONNECTIONS))
            })
        };
        let clients: Vec<UnixStream> = (0..CONNECTIONS)
            .map(|_| {
                let stream = UnixStream::connect(&path).expect("connect to the benchmark socket");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("set a read timeout");
                stream
            })
            .collect();
        let mut round = Round {
            setup: setup_start.elapsed(),
            ..Round::default()
        };

        let plans_before = build_count();
        let timed_start = Instant::now();
        let replies: Vec<Vec<(usize, Duration, String)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter()
                .zip(&streams.connections)
                .map(|(stream, requests)| scope.spawn(move || replay(stream, requests)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        round.timed = timed_start.elapsed();
        round
            .counters
            .add("plan.builds", build_count() - plans_before);

        for stream in &clients {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        drop(clients);
        let _ = server.join();
        let _ = std::fs::remove_file(&path);
        // The connection threads `serve_unix` spawned hold the service
        // until they see the shutdown; wait for them, so that no round
        // overlaps the next one's service in memory.
        let patience = Instant::now();
        while Arc::strong_count(&service) > 1 && patience.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = service.stats();
        round.counters.add("service.hits", stats.hits);
        round.counters.add("service.misses", stats.misses);
        round.counters.add("service.compiles", stats.compiles);
        round.counters.add("service.evictions", stats.evictions);
        // Algorithm I sessions on two workers share a store whose byte
        // count depends on how the workers interleave.
        round
            .gauges
            .insert("service.store_bytes", stats.store_bytes as f64);
        for (class, latency, line) in replies.into_iter().flatten() {
            round.samples.push(Sample {
                class,
                latency,
                ops: 1,
                lane: 0,
            });
            round.answers.push(Answer::Line(strip_timing(&line)));
        }
        round
    }

    /// The same request stream through direct calls (malformed lines
    /// have no direct-call equivalent and are skipped), alternating
    /// between the two connections' streams.
    fn direct_round(&mut self, tracer: &mut Tracer) -> Round {
        let setup_start = Instant::now();
        let streams = Streams::build(self.seed);
        let service = streams.prewarmed_service();
        let mut round = Round {
            setup: setup_start.elapsed(),
            ..Round::default()
        };
        let longest = streams.connections.iter().map(Vec::len).max().unwrap_or(0);
        let plans_before = build_count();
        let timed_start = Instant::now();
        for position in 0..longest {
            for requests in &streams.connections {
                let Some(request) = requests.get(position) else {
                    continue;
                };
                let Some(pair) = request.pair else { continue };
                tracer.next_op();
                let start = Instant::now();
                let response = tracer.span("op", |t| {
                    let (ideal, noisy) = &streams.texts[pair];
                    let ideal = t
                        .span("circuit.qasm.parse", |_| qasm::parse(ideal))
                        .expect("generated QASM parses");
                    let noisy = t
                        .span("circuit.qasm.parse", |_| qasm::parse(noisy))
                        .expect("generated QASM parses");
                    std::hint::black_box(
                        t.span("circuit.hash.pair_hash", |_| pair_hash(&ideal, &noisy)),
                    );
                    let request = ServiceRequest {
                        ideal,
                        noisy,
                        query: ServiceQuery::Check {
                            epsilon: streams.recipes[pair].epsilon,
                        },
                        algorithm: None,
                    };
                    t.span("core.service.handle", |_| service.handle(&request))
                });
                round.samples.push(Sample {
                    class: request.class,
                    latency: start.elapsed(),
                    ops: 1,
                    lane: 0,
                });
                let answer = match response.result {
                    Ok(ServiceReply::Check(report)) => {
                        if response.cache == CacheOutcome::Miss {
                            count_report(&mut round, &report);
                        }
                        Answer::Report {
                            recipe: pair,
                            strength: streams.recipes[pair].strength,
                            verdict: report.verdict,
                            bounds: report.fidelity_bounds,
                            algorithm: report.algorithm,
                        }
                    }
                    other => Answer::Line(format!("unexpected reply: {other:?}")),
                };
                round.answers.push(answer);
            }
        }
        round.timed = timed_start.elapsed();
        round
            .counters
            .add("plan.builds", build_count() - plans_before);
        // Two workers contracting one miss race on the shared computed
        // tables: these counts move by a few between identical rounds
        // (every other counter, and every answer, repeats exactly).
        for name in ["tdd.add_calls", "tdd.add_hits", "tdd.unique_hits"] {
            if let Some(value) = round.counters.0.remove(name) {
                round.gauges.insert(name, value as f64);
            }
        }
        round
    }
}

/// One connection's closed loop: send a line, wait for its one
/// response line, send the next.
fn replay(stream: &UnixStream, requests: &[Request]) -> Vec<(usize, Duration, String)> {
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(requests.len());
    for request in requests {
        let start = Instant::now();
        let mut response = String::new();
        let sent = writer
            .write_all(request.line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| reader.read_line(&mut response));
        if !matches!(sent, Ok(n) if n > 0) {
            out.push((
                request.class,
                start.elapsed(),
                format!("connection failed: {sent:?}"),
            ));
            break;
        }
        out.push((
            request.class,
            start.elapsed(),
            response.trim_end().to_string(),
        ));
    }
    out
}

impl Workload for ServeMixed {
    fn classes(&self) -> Vec<(String, String)> {
        vec![
            ("hot".into(), "cache hit".into()),
            ("cold".into(), "miss: compile+check".into()),
            ("malformed".into(), "error line".into()),
        ]
    }

    fn options(&self) -> String {
        format!("{:?}; cache_bytes: {CACHE_BYTES}", options())
    }

    fn percentiles(&self) -> bool {
        true
    }

    /// Two connections and two workers need both CPUs.
    fn pinned(&self) -> bool {
        false
    }

    fn schedule(&self, trace: bool) -> Vec<Kind> {
        if trace {
            vec![Kind::Plain, Kind::Direct, Kind::DirectTraced]
        } else {
            vec![Kind::Plain]
        }
    }

    fn round(&mut self, kind: Kind, tracer: &mut Tracer) -> Round {
        let round = match kind {
            Kind::Plain | Kind::Traced => self.socket_round(),
            Kind::Direct | Kind::DirectTraced => self.direct_round(tracer),
        };
        // The round's service (about 20 sessions) is gone by now.
        release_free_memory();
        round
    }

    fn verify(&mut self, answers: &[Answer]) -> Vec<Result<(), String>> {
        if self.expected.is_none() {
            self.expected = Some(self.expected_lines());
        }
        let streams = Streams::build(self.seed);
        let expected = self.expected.clone().unwrap_or_default();
        answers
            .iter()
            .enumerate()
            .map(|(i, answer)| match answer {
                Answer::Line(line) => match expected.get(i) {
                    Some((want, check)) if want == line => check.clone(),
                    Some((want, _)) => {
                        Err(format!("response {line} differs from the expected {want}"))
                    }
                    None => Err(format!("unexpected extra response {line}")),
                },
                Answer::Report {
                    recipe,
                    strength,
                    verdict,
                    bounds,
                    algorithm,
                } => {
                    let recipe = &streams.recipes[*recipe];
                    let reference = self.references.get(recipe, *strength);
                    check_decision(recipe, reference, *verdict, *bounds, *algorithm)
                }
            })
            .collect()
    }

    /// Mean socket latency of a request that reaches the service, minus
    /// the parse and handle time the direct replay measured for it: JSON
    /// decode, rendering and the socket round trip.
    fn serve_self_ms(&self, plain: &[crate::Sample], traced: &BTreeMap<&str, f64>) -> f64 {
        let requests: Vec<f64> = plain
            .iter()
            .filter(|s| s.class != MALFORMED)
            .map(|s| ms(s.latency))
            .collect();
        let mean = requests.iter().sum::<f64>() / requests.len().max(1) as f64;
        let inner = traced.get("circuit.qasm.parse").unwrap_or(&0.0)
            + traced.get("core.service.handle").unwrap_or(&0.0);
        mean - inner
    }
}
