//! The `qaec serve` subcommand: a long-running batch query layer over
//! [`qaec::Service`].
//!
//! Requests are line-delimited JSON objects
//! (`{"v": 1, "id": 7, "op": "check", ...}`), answered one JSON line
//! per request — the normative wire format lives in `docs/PROTOCOL.md`.
//! Three transports share the same request/response shapes:
//!
//! * **stdin (default)** — the whole stream is read, requests landing
//!   on the same circuit pair are grouped onto one cached session and
//!   distinct pairs run concurrently ([`qaec::Service::handle_batch`]);
//!   responses come back in input order, a stats footer goes to stderr;
//! * **`--listen host:port`** — a TCP listener, one thread per
//!   connection, each connection a request/response stream (answered
//!   line by line, so a client can keep the connection open);
//! * **`--unix path`** — the same, on a unix-domain socket.
//!
//! Malformed lines are answered with a structured
//! `{"ok": false, "error": ...}` object — a bad request never takes the
//! service down. The embedded result payloads are built by the same
//! row constructors as `check --json` / `sweep --json`, so the fields
//! mean exactly the same thing in one-shot and serving mode.
//!
//! Requests are decoded and responses rendered by the hand-rolled
//! reader and writer in [`crate::json`].

use crate::json::{self, parse_json, Json};
use crate::{
    check_json, epsilon_point_json, load, noise_point_json, parse_checker_flag, CliOptions, Flags,
};
use qaec::{
    AlgorithmChoice, Service, ServiceConfig, ServiceQuery, ServiceReply, ServiceRequest,
    ServiceResponse, ServiceStats,
};
use qaec_circuit::qasm;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;

/// Parsed `qaec serve` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    /// Checker options every cached session is compiled with;
    /// `threads` doubles as the stdin batch's concurrency.
    pub options: CliOptions,
    /// Warm-store byte budget for the session cache (`--cache-bytes`,
    /// `k`/`m`/`g` suffixes); `None` caches without bound.
    pub cache_bytes: Option<usize>,
    /// Serve on a TCP socket instead of stdin (`--listen host:port`).
    pub listen: Option<String>,
    /// Serve on a unix-domain socket instead of stdin (`--unix path`).
    pub unix: Option<String>,
}

/// Parses a byte count with optional binary `k`/`m`/`g` suffix
/// (`"512"`, `"64k"`, `"256m"`, `"2g"`).
///
/// # Errors
///
/// A human-readable message on malformed input.
pub fn parse_byte_size(text: &str) -> Result<usize, String> {
    let trimmed = text.trim();
    let (digits, shift) = match trimmed.char_indices().last() {
        Some((i, 'k') | (i, 'K')) => (&trimmed[..i], 10),
        Some((i, 'm') | (i, 'M')) => (&trimmed[..i], 20),
        Some((i, 'g') | (i, 'G')) => (&trimmed[..i], 30),
        _ => (trimmed, 0),
    };
    let base = digits
        .parse::<usize>()
        .map_err(|_| format!("bad byte size `{text}` (expected e.g. 512, 64k, 256m, 2g)"))?;
    base.checked_mul(1usize << shift)
        .ok_or_else(|| format!("byte size `{text}` overflows"))
}

/// Checker flags with no serving meaning: rejected, not ignored.
/// Responses are always JSON and carry their own statistics, serve has
/// no Monte-Carlo backend, and a deadline fixed at start-up would
/// expire for sessions compiled later.
const ONE_SHOT_FLAGS: [&str; 5] = ["--timeout", "--samples", "--seed", "--json", "--verbose"];

/// Parses the arguments after `qaec serve`: the checker flags `check`
/// takes, through the same parser, minus `--timeout`, `--samples`,
/// `--seed`, `--json`, `--verbose` and `--algorithm mc`, plus the
/// serve-specific `--cache-bytes`/`--listen`/`--unix`.
///
/// # Errors
///
/// A human-readable message on malformed input.
pub fn parse_serve_args(rest: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        options: CliOptions::default(),
        cache_bytes: None,
        listen: None,
        unix: None,
    };
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--cache-bytes" => args.cache_bytes = Some(parse_byte_size(flags.value(flag)?)?),
            "--listen" => args.listen = Some(flags.value(flag)?.to_string()),
            "--unix" => args.unix = Some(flags.value(flag)?.to_string()),
            name if ONE_SHOT_FLAGS.contains(&name) => {
                return Err(format!("serve: {name} has no serving meaning"))
            }
            name => {
                if !parse_checker_flag(&mut args.options, name, &mut flags)? {
                    return Err(format!("serve: unknown flag `{name}`"));
                }
            }
        }
    }
    if args.options.mc_samples.is_some() {
        return Err("serve: --algorithm mc has no serving meaning".to_string());
    }
    if args.listen.is_some() && args.unix.is_some() {
        return Err("serve: --listen and --unix are exclusive".to_string());
    }
    Ok(args)
}

// ---------------------------------------------------------------------
// Request extraction.
// ---------------------------------------------------------------------

/// A decoded request line: the echo fields plus what to run.
struct Parsed {
    /// The request's `id`, re-rendered for the response echo.
    id: Option<String>,
    /// The `op` string (already validated).
    op: &'static str,
    /// The service request; `None` for `op: "stats"`.
    request: Option<ServiceRequest>,
}

/// A request that could not be decoded — still answered, with whatever
/// echo fields were recovered before the failure.
struct BadRequest {
    id: Option<String>,
    op: Option<String>,
    message: String,
}

/// Renders a scalar `id` back out (numbers as numbers, strings
/// sanitised like every other string field).
fn render_id(value: &Json) -> Option<String> {
    match value {
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(format!("{}", *n as i64)),
        Json::Num(n) => Some(format!("{n}")),
        Json::Str(s) => Some(format!("\"{}\"", json::sanitize(s))),
        _ => None,
    }
}

fn number_field(value: &Json, key: &str) -> Result<f64, String> {
    match value.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(_) => Err(format!("`{key}` must be a number")),
        None => Err(format!("missing `{key}`")),
    }
}

fn number_array_field(value: &Json, key: &str) -> Result<Vec<f64>, String> {
    match value.get(key) {
        Some(Json::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(|item| match item {
                Json::Num(n) => Ok(*n),
                _ => Err(format!("`{key}` must be an array of numbers")),
            })
            .collect(),
        Some(Json::Arr(_)) => Err(format!("`{key}` must not be empty")),
        Some(_) => Err(format!("`{key}` must be an array of numbers")),
        None => Err(format!("missing `{key}`")),
    }
}

/// Loads one of the request's two circuits: inline QASM text under
/// `key`, or a server-side path under `<key>_file` — exactly one.
fn circuit_field(value: &Json, key: &str) -> Result<qaec_circuit::Circuit, String> {
    let file_key = format!("{key}_file");
    match (value.get(key), value.get(&file_key)) {
        (Some(_), Some(_)) => Err(format!("`{key}` and `{file_key}` are exclusive")),
        (Some(Json::Str(text)), None) => qasm::parse(text).map_err(|e| format!("`{key}`: {e}")),
        (Some(_), None) => Err(format!("`{key}` must be a QASM string")),
        (None, Some(Json::Str(path))) => load(path),
        (None, Some(_)) => Err(format!("`{file_key}` must be a path string")),
        (None, None) => Err(format!("missing `{key}` (or `{file_key}`)")),
    }
}

/// Decodes one request line. Unknown fields are ignored (the protocol's
/// forward-compatibility rule); a missing `v` means version 1.
fn parse_request(line: &str) -> Result<Parsed, BadRequest> {
    let fail = |id: &Option<String>, op: Option<String>, message: String| BadRequest {
        id: id.clone(),
        op,
        message,
    };
    let value = parse_json(line).map_err(|e| fail(&None, None, format!("bad JSON: {e}")))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(fail(&None, None, "request must be a JSON object".into()));
    }
    let id = value.get("id").and_then(render_id);
    // A missing `v` means version 1; anything but 1 is rejected.
    if let Some(v) = value.get("v") {
        if *v != Json::Num(1.0) {
            return Err(fail(
                &id,
                None,
                format!("unsupported protocol version {v:?} (this server speaks v 1)"),
            ));
        }
    }
    let op_name = match value.get("op") {
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err(fail(&id, None, "`op` must be a string".into())),
        None => return Err(fail(&id, None, "missing `op`".into())),
    };
    if op_name == "stats" {
        return Ok(Parsed {
            id,
            op: "stats",
            request: None,
        });
    }
    let (op, query) = match op_name.as_str() {
        "check" => {
            let epsilon =
                number_field(&value, "epsilon").map_err(|e| fail(&id, Some(op_name.clone()), e))?;
            ("check", ServiceQuery::Check { epsilon })
        }
        "sweep_epsilon" => {
            let epsilons = number_array_field(&value, "epsilons")
                .map_err(|e| fail(&id, Some(op_name.clone()), e))?;
            ("sweep_epsilon", ServiceQuery::SweepEpsilon { epsilons })
        }
        "sweep_noise" => {
            let epsilon =
                number_field(&value, "epsilon").map_err(|e| fail(&id, Some(op_name.clone()), e))?;
            let strengths = number_array_field(&value, "noise")
                .map_err(|e| fail(&id, Some(op_name.clone()), e))?;
            (
                "sweep_noise",
                ServiceQuery::SweepNoise { epsilon, strengths },
            )
        }
        other => {
            return Err(fail(
                &id,
                None,
                format!("unknown op `{other}` (check | sweep_epsilon | sweep_noise | stats)"),
            ))
        }
    };
    let ideal = circuit_field(&value, "ideal").map_err(|e| fail(&id, Some(op_name.clone()), e))?;
    let noisy = circuit_field(&value, "noisy").map_err(|e| fail(&id, Some(op_name.clone()), e))?;
    // Optional per-request algorithm override (v1-additive; absent means
    // the server's configured options decide).
    let algorithm = match value.get("algorithm") {
        None => None,
        Some(Json::Str(name)) => Some(match name.as_str() {
            "auto" => AlgorithmChoice::Auto,
            "1" => AlgorithmChoice::AlgorithmI,
            "2" => AlgorithmChoice::AlgorithmII,
            "mpo" => AlgorithmChoice::Mpo,
            other => {
                return Err(fail(
                    &id,
                    Some(op_name.clone()),
                    format!("unknown algorithm `{other}` (auto | 1 | 2 | mpo)"),
                ))
            }
        }),
        Some(_) => {
            return Err(fail(
                &id,
                Some(op_name.clone()),
                "`algorithm` must be a string".into(),
            ))
        }
    };
    Ok(Parsed {
        id,
        op,
        request: Some(ServiceRequest {
            ideal,
            noisy,
            query,
            algorithm,
        }),
    })
}

// ---------------------------------------------------------------------
// Response rendering.
// ---------------------------------------------------------------------

/// The common response prefix: `v`, the echoed `id`/`op`, and `ok`.
fn envelope(id: &Option<String>, op: Option<&str>, ok: bool) -> json::Object {
    let mut object = json::Object::new().int("v", 1);
    if let Some(id) = id {
        object = object.raw("id", id.clone());
    }
    if let Some(op) = op {
        object = object.string("op", op);
    }
    object.boolean("ok", ok)
}

/// Renders an error line (`{"v": 1, ..., "ok": false, "error": ...}`).
fn render_error(id: &Option<String>, op: Option<&str>, message: &str) -> String {
    envelope(id, op, false).string("error", message).render()
}

/// Renders the response to a decoded circuit request.
fn render_response(parsed: &Parsed, response: &ServiceResponse) -> String {
    let base = || {
        envelope(&parsed.id, Some(parsed.op), true)
            .string("key", &format!("{:016x}", response.key))
            .string("cache", response.cache.as_str())
    };
    match &response.result {
        Err(error) => render_error(&parsed.id, Some(parsed.op), &error.to_string()),
        Ok(ServiceReply::Check(report)) => base().extend(check_json(report)).render(),
        Ok(ServiceReply::SweepEpsilon(points)) => {
            let rows: Vec<json::Object> = points.iter().map(epsilon_point_json).collect();
            base().raw("points", json::array_inline(&rows)).render()
        }
        Ok(ServiceReply::SweepNoise(points)) => {
            let strengths = match parsed.request.as_ref().map(|r| &r.query) {
                Some(ServiceQuery::SweepNoise { strengths, .. }) => strengths.as_slice(),
                _ => &[],
            };
            let rows: Vec<json::Object> = strengths
                .iter()
                .zip(points)
                .map(|(&p, point)| noise_point_json(p, point))
                .collect();
            base().raw("points", json::array_inline(&rows)).render()
        }
    }
}

/// Renders the `op: "stats"` response from the service counters.
fn render_stats(id: &Option<String>, stats: &ServiceStats) -> String {
    envelope(id, Some("stats"), true)
        .int("hits", stats.hits)
        .int("misses", stats.misses)
        .int("compiles", stats.compiles)
        .int("evictions", stats.evictions)
        .int("sessions", stats.sessions as u64)
        .int("store_bytes", stats.store_bytes)
        .int("peak_store_bytes", stats.peak_store_bytes)
        .render()
}

// ---------------------------------------------------------------------
// Serving loops.
// ---------------------------------------------------------------------

/// Serves a complete request stream in batch mode (the stdin
/// transport): every line is decoded, runs of circuit requests between
/// `stats` barriers go through [`qaec::Service::handle_batch`] (repeats
/// hit the session cache, distinct pairs run concurrently on
/// `options.threads` workers), and responses are written in input
/// order — error lines for the requests that failed to decode.
///
/// # Errors
///
/// Only I/O failures on `input`/`out`; request-level problems are
/// answered in-band.
pub fn serve_batch(
    service: &Service,
    input: impl BufRead,
    out: &mut impl Write,
) -> Result<(), String> {
    enum Item {
        Bad(BadRequest),
        Stats(Parsed),
        Request(Parsed),
    }
    let mut items: Vec<Item> = Vec::new();
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading requests: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        items.push(match parse_request(&line) {
            Err(bad) => Item::Bad(bad),
            Ok(parsed) if parsed.request.is_none() => Item::Stats(parsed),
            Ok(parsed) => Item::Request(parsed),
        });
    }

    let mut lines: Vec<Option<String>> = items.iter().map(|_| None).collect();
    // `stats` is a barrier: it reports the counters after every request
    // before it in the stream, so flush the accumulated batch first.
    let mut pending: Vec<usize> = Vec::new();
    let flush = |pending: &mut Vec<usize>, lines: &mut Vec<Option<String>>| {
        if pending.is_empty() {
            return;
        }
        let requests: Vec<ServiceRequest> = pending
            .iter()
            .map(|&index| match &items[index] {
                Item::Request(parsed) => parsed.request.clone().expect("request items carry one"),
                _ => unreachable!("only requests are pending"),
            })
            .collect();
        let responses = service.handle_batch(&requests);
        for (&index, response) in pending.iter().zip(&responses) {
            let Item::Request(parsed) = &items[index] else {
                unreachable!("only requests are pending")
            };
            lines[index] = Some(render_response(parsed, response));
        }
        pending.clear();
    };
    for index in 0..items.len() {
        match &items[index] {
            Item::Bad(bad) => {
                lines[index] = Some(render_error(&bad.id, bad.op.as_deref(), &bad.message));
            }
            Item::Request(_) => pending.push(index),
            Item::Stats(parsed) => {
                flush(&mut pending, &mut lines);
                lines[index] = Some(render_stats(&parsed.id, &service.stats()));
            }
        }
    }
    flush(&mut pending, &mut lines);
    for line in lines {
        writeln!(out, "{}", line.expect("every item answered")).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Serves one open connection line by line: each request is answered
/// (and flushed) before the next is read, so interactive clients see
/// responses immediately.
fn serve_connection(service: &Service, input: impl BufRead, mut out: impl Write) {
    for line in input.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let rendered = match parse_request(&line) {
            Err(bad) => render_error(&bad.id, bad.op.as_deref(), &bad.message),
            Ok(parsed) => match &parsed.request {
                None => render_stats(&parsed.id, &service.stats()),
                Some(request) => render_response(&parsed, &service.handle(request)),
            },
        };
        if writeln!(out, "{rendered}")
            .and_then(|()| out.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Accept loop for the TCP transport: one thread per connection, all
/// connections sharing one [`Service`] (and therefore one session
/// cache). `max_connections` bounds the loop for tests; pass `None` to
/// serve forever.
///
/// # Errors
///
/// Propagates listener accept failures.
pub fn serve_tcp(
    service: Arc<Service>,
    listener: TcpListener,
    max_connections: Option<usize>,
) -> Result<(), String> {
    for (accepted, stream) in listener.incoming().enumerate() {
        let stream = stream.map_err(|e| format!("accept: {e}"))?;
        let service = Arc::clone(&service);
        let reader = stream.try_clone().map_err(|e| format!("connection: {e}"))?;
        std::thread::spawn(move || {
            serve_connection(&service, BufReader::new(reader), stream);
        });
        if max_connections.is_some_and(|max| accepted + 1 >= max) {
            return Ok(());
        }
    }
    Ok(())
}

/// Accept loop for the unix-socket transport — same per-connection
/// behaviour as [`serve_tcp`].
///
/// # Errors
///
/// Propagates listener accept failures.
#[cfg(unix)]
pub fn serve_unix(
    service: Arc<Service>,
    listener: std::os::unix::net::UnixListener,
    max_connections: Option<usize>,
) -> Result<(), String> {
    for (accepted, stream) in listener.incoming().enumerate() {
        let stream = stream.map_err(|e| format!("accept: {e}"))?;
        let service = Arc::clone(&service);
        let reader = stream.try_clone().map_err(|e| format!("connection: {e}"))?;
        std::thread::spawn(move || {
            serve_connection(&service, BufReader::new(reader), stream);
        });
        if max_connections.is_some_and(|max| accepted + 1 >= max) {
            return Ok(());
        }
    }
    Ok(())
}

/// Runs the `serve` subcommand: builds the [`Service`] from the parsed
/// arguments and enters the selected transport's loop. The stdin
/// transport returns once the stream is exhausted (stats footer on
/// stderr); the socket transports serve until killed.
///
/// # Errors
///
/// Transport setup and I/O failures (a bad *request* is answered
/// in-band, never an error here).
pub fn run_serve(args: &ServeArgs, out: &mut impl Write) -> Result<i32, String> {
    let service = Service::new(ServiceConfig {
        options: args.options.to_check_options(),
        cache_bytes: args.cache_bytes,
    });
    if let Some(addr) = &args.listen {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("serve: cannot listen on {addr}: {e}"))?;
        eprintln!(
            "qaec serve: listening on {}",
            listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.clone())
        );
        serve_tcp(Arc::new(service), listener, None)?;
        return Ok(0);
    }
    #[cfg(unix)]
    if let Some(path) = &args.unix {
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| format!("serve: cannot listen on {path}: {e}"))?;
        eprintln!("qaec serve: listening on {path}");
        serve_unix(Arc::new(service), listener, None)?;
        return Ok(0);
    }
    #[cfg(not(unix))]
    if args.unix.is_some() {
        return Err("serve: --unix is not supported on this platform".to_string());
    }
    let stdin = std::io::stdin();
    serve_batch(&service, stdin.lock(), out)?;
    eprintln!("qaec serve: {}", service.stats());
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    const IDEAL: &str = "OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0], q[1];\\n";
    const NOISY: &str = "OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\n\
                         // qaec.noise: depolarizing(0.999) q[0];\\ncx q[0], q[1];\\n";

    fn service() -> Service {
        Service::new(ServiceConfig::default())
    }

    fn batch(service: &Service, input: &str) -> Vec<String> {
        let mut out = Vec::new();
        serve_batch(service, input.as_bytes(), &mut out).expect("serve_batch");
        String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn json_reader_round_trips_request_shapes() {
        let value = parse_json(
            r#"{"v": 1, "id": 7, "op": "check", "epsilon": 0.05, "noise": [0.999, 0.99],
                "note": "a\tbA\nψ→ε", "flag": true, "none": null}"#,
        )
        .expect("parse");
        assert_eq!(value.get("v"), Some(&Json::Num(1.0)));
        assert_eq!(value.get("op"), Some(&Json::Str("check".into())));
        assert_eq!(
            value.get("noise"),
            Some(&Json::Arr(vec![Json::Num(0.999), Json::Num(0.99)]))
        );
        assert_eq!(value.get("note"), Some(&Json::Str("a\tbA\nψ→ε".into())));
        assert_eq!(value.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(value.get("none"), Some(&Json::Null));
        assert_eq!(parse_json("[]").expect("empty array"), Json::Arr(vec![]));
        assert_eq!(parse_json("{}").expect("empty object"), Json::Obj(vec![]));

        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "{\"a\": 1e}",
            "nul",
        ] {
            assert!(parse_json(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("512").unwrap(), 512);
        assert_eq!(parse_byte_size("64k").unwrap(), 64 << 10);
        assert_eq!(parse_byte_size("256M").unwrap(), 256 << 20);
        assert_eq!(parse_byte_size("2g").unwrap(), 2 << 30);
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("k").is_err());
        assert!(parse_byte_size("12x").is_err());
        assert!(parse_byte_size("-1").is_err());
    }

    #[test]
    fn serve_args_parse_and_reject() {
        let args = parse_serve_args(&[
            "--cache-bytes".into(),
            "64m".into(),
            "--threads=4".into(),
            "--algorithm".into(),
            "2".into(),
            "--store-reclaim=on".into(),
        ])
        .expect("parse");
        assert_eq!(args.cache_bytes, Some(64 << 20));
        assert_eq!(args.options.threads, 4);
        assert_eq!(args.options.algorithm, AlgorithmChoice::AlgorithmII);
        assert_eq!(args.options.store_reclaim, qaec::StoreReclaimMode::On);
        assert_eq!(args.listen, None);

        // Algorithm III and its knobs parse like the one-shot frontend.
        let mpo = parse_serve_args(&[
            "--algorithm=mpo".into(),
            "--svd-threshold=1e-6".into(),
            "--max-bond".into(),
            "32".into(),
        ])
        .expect("parse mpo");
        assert_eq!(mpo.options.algorithm, AlgorithmChoice::Mpo);
        assert_eq!(mpo.options.svd_threshold, 1e-6);
        assert_eq!(mpo.options.max_bond, 32);

        // Flags that have no serving meaning are rejected, not ignored.
        for bad in [
            "--timeout",
            "--json",
            "--samples",
            "--seed",
            "--verbose",
            "--epsilon",
            "--noise",
        ] {
            assert!(
                parse_serve_args(&[bad.to_string(), "1".to_string()]).is_err(),
                "{bad} must be rejected"
            );
        }
        assert!(parse_serve_args(&["--algorithm=mc".into()]).is_err());
        assert!(parse_serve_args(&[
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--unix".into(),
            "/tmp/x".into()
        ])
        .is_err());
    }

    #[test]
    fn batch_answers_check_sweeps_stats_and_errors_in_order() {
        let service = service();
        let input = format!(
            concat!(
                "{{\"v\": 1, \"id\": 1, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05}}\n",
                "this is not json\n",
                "{{\"v\": 1, \"id\": 2, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05}}\n",
                "{{\"id\": 3, \"op\": \"sweep_epsilon\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilons\": [0.2, 0.01, 0.0001]}}\n",
                "{{\"id\": 4, \"op\": \"sweep_noise\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.01, \"noise\": [0.999, 0.9]}}\n",
                "{{\"id\": 5, \"op\": \"stats\"}}\n",
            ),
            i = IDEAL,
            n = NOISY,
        );
        let lines = batch(&service, &input);
        assert_eq!(lines.len(), 6);

        // Line 1: cold check.
        assert!(lines[0].contains("\"id\": 1"), "{}", lines[0]);
        assert!(lines[0].contains("\"ok\": true"), "{}", lines[0]);
        assert!(lines[0].contains("\"cache\": \"miss\""), "{}", lines[0]);
        assert!(
            lines[0].contains("\"verdict\": \"equivalent\""),
            "{}",
            lines[0]
        );
        // Line 2: the malformed line is answered in place, not fatal.
        assert!(lines[1].contains("\"ok\": false"), "{}", lines[1]);
        assert!(lines[1].contains("\"error\""), "{}", lines[1]);
        // Line 3: the repeated pair is a cache hit with identical bounds.
        assert!(lines[2].contains("\"cache\": \"hit\""), "{}", lines[2]);
        let bound = |line: &str| {
            line.split("\"fidelity_lower\": ")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .map(str::to_string)
                .expect("fidelity_lower present")
        };
        assert_eq!(bound(&lines[0]), bound(&lines[2]));
        // Line 4: an ε sweep carries one row per threshold.
        assert!(
            lines[3].contains("\"op\": \"sweep_epsilon\""),
            "{}",
            lines[3]
        );
        assert_eq!(lines[3].matches("\"epsilon\":").count(), 3, "{}", lines[3]);
        // Line 5: a noise sweep echoes the strengths.
        assert!(lines[4].contains("\"noise\": 0.999000"), "{}", lines[4]);
        assert_eq!(lines[4].matches("\"fidelity\":").count(), 2, "{}", lines[4]);
        // Line 6: the stats barrier reflects the four circuit requests
        // (one distinct pair: 1 miss + 3 hits, 1 compile).
        assert!(lines[5].contains("\"op\": \"stats\""), "{}", lines[5]);
        assert!(lines[5].contains("\"hits\": 3"), "{}", lines[5]);
        assert!(lines[5].contains("\"misses\": 1"), "{}", lines[5]);
        assert!(lines[5].contains("\"compiles\": 1"), "{}", lines[5]);

        // Each response line is itself valid JSON for our reader.
        for line in &lines {
            assert!(parse_json(line).is_ok(), "unparseable response `{line}`");
        }
    }

    #[test]
    fn per_request_algorithm_overrides_key_separately() {
        let service = service();
        let input = format!(
            concat!(
                "{{\"id\": 1, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05}}\n",
                "{{\"id\": 2, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05, \"algorithm\": \"mpo\"}}\n",
                "{{\"id\": 3, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05, \"algorithm\": \"2\"}}\n",
                "{{\"id\": 4, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05, \"algorithm\": \"warp\"}}\n",
            ),
            i = IDEAL,
            n = NOISY,
        );
        let lines = batch(&service, &input);
        assert_eq!(lines.len(), 4);
        let key = |line: &str| {
            line.split("\"key\": \"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .map(str::to_string)
                .expect("key present")
        };
        // Three distinct sessions: default, mpo override, exact override.
        assert!(lines[0].contains("\"cache\": \"miss\""), "{}", lines[0]);
        assert!(lines[1].contains("\"cache\": \"miss\""), "{}", lines[1]);
        assert!(lines[2].contains("\"cache\": \"miss\""), "{}", lines[2]);
        assert_ne!(key(&lines[0]), key(&lines[1]));
        assert_ne!(key(&lines[0]), key(&lines[2]));
        assert_ne!(key(&lines[1]), key(&lines[2]));
        // The MPO response reports its method and interval metadata; the
        // exact ones say so too, without the MPO-only fields.
        assert!(lines[1].contains("\"method\": \"mpo\""), "{}", lines[1]);
        assert!(lines[1].contains("\"trunc_error\":"), "{}", lines[1]);
        assert!(lines[1].contains("\"bond_max\":"), "{}", lines[1]);
        assert!(lines[2].contains("\"method\": \"2\""), "{}", lines[2]);
        assert!(!lines[2].contains("\"trunc_error\""), "{}", lines[2]);
        // All three backends agree on this easy pair.
        for line in &lines[..3] {
            assert!(line.contains("\"verdict\": \"equivalent\""), "{line}");
        }
        // An unknown override is a structured error, not a crash.
        assert!(lines[3].contains("\"ok\": false"), "{}", lines[3]);
        assert!(lines[3].contains("unknown algorithm"), "{}", lines[3]);
    }

    #[test]
    fn request_level_failures_are_structured_errors() {
        let service = service();
        let cases: Vec<(String, &str)> = vec![
            // Unknown op.
            (r#"{"id": 1, "op": "frobnicate"}"#.to_string(), "unknown op"),
            // Wrong protocol version.
            (r#"{"v": 2, "id": 2, "op": "stats"}"#.to_string(), "version"),
            // Missing epsilon.
            (
                format!(r#"{{"id": 3, "op": "check", "ideal": "{IDEAL}", "noisy": "{NOISY}"}}"#),
                "missing `epsilon`",
            ),
            // Missing circuits.
            (
                r#"{"id": 4, "op": "check", "epsilon": 0.1}"#.to_string(),
                "missing `ideal`",
            ),
            // Both inline and file.
            (
                format!(
                    "{{\"id\": 5, \"op\": \"check\", \"epsilon\": 0.1, \"ideal\": \"{IDEAL}\", \
                     \"ideal_file\": \"/tmp/x.qasm\", \"noisy\": \"{NOISY}\"}}"
                ),
                "exclusive",
            ),
            // QASM that does not parse.
            (
                format!(
                    "{{\"id\": 6, \"op\": \"check\", \"epsilon\": 0.1, \"ideal\": \"garbage\", \
                     \"noisy\": \"{NOISY}\"}}"
                ),
                "`ideal`",
            ),
            // Bad epsilons array.
            (
                format!(
                    "{{\"id\": 7, \"op\": \"sweep_epsilon\", \"ideal\": \"{IDEAL}\", \
                     \"noisy\": \"{NOISY}\", \"epsilons\": []}}"
                ),
                "must not be empty",
            ),
        ];
        for (line, needle) in cases {
            let lines = batch(&service, &format!("{line}\n"));
            assert_eq!(lines.len(), 1, "{line}");
            assert!(lines[0].contains("\"ok\": false"), "{}", lines[0]);
            assert!(
                lines[0].contains(needle),
                "`{}` should mention `{needle}`",
                lines[0]
            );
        }
        // Nothing was cached by any of those.
        assert_eq!(service.stats().sessions, 0);

        // A checker-level error (ε out of range) reports in-band too —
        // and still caches the compiled pair for later valid queries.
        let line = format!(
            r#"{{"id": 8, "op": "check", "epsilon": 1.5, "ideal": "{IDEAL}", "noisy": "{NOISY}"}}"#
        );
        let lines = batch(&service, &format!("{line}\n"));
        assert!(lines[0].contains("\"ok\": false"), "{}", lines[0]);
        assert!(lines[0].contains("epsilon"), "{}", lines[0]);
        assert_eq!(service.stats().sessions, 1);
    }

    #[test]
    fn tcp_transport_streams_responses() {
        let service = Arc::new(service());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve_tcp(service, listener, Some(1)))
        };
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let request = format!(
            "{{\"v\": 1, \"id\": 9, \"op\": \"check\", \"ideal\": \"{IDEAL}\", \
             \"noisy\": \"{NOISY}\", \"epsilon\": 0.05}}\n"
        );
        // Two requests written separately: the second must be answered
        // from the session the first compiled.
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for expected in ["\"cache\": \"miss\"", "\"cache\": \"hit\""] {
            stream.write_all(request.as_bytes()).expect("write");
            stream.flush().expect("flush");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert!(line.contains("\"ok\": true"), "{line}");
            assert!(line.contains(expected), "{line}");
        }
        drop(stream);
        server.join().expect("join").expect("serve_tcp");
        assert_eq!(service.stats().compiles, 1);
    }
}
