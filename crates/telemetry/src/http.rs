//! A dependency-free, single-threaded HTTP endpoint exposing one
//! [`Registry`] in Prometheus text exposition format — the server behind
//! `zfgan serve-metrics`. The caller hands [`serve_on`] the registry; the
//! loop runs under a [`crate::scope`] of it, so its own self-metrics land
//! there too, and anything another thread records into a scope of the same
//! registry rides the same `/metrics` page.
//!
//! The server is deliberately minimal: one `std::net::TcpListener`, one
//! request per connection, `GET /metrics` (the [`export::prometheus`]
//! rendering of a live snapshot), `GET /health`, 404 for anything else.
//! It serves its own observability too — every scrape increments
//! `serve_requests_total{path=...}` *before* the snapshot is taken (so
//! the scrape you are reading includes itself) and the previous request's
//! handling latency lands in the `serve_request_seconds` histogram.
//!
//! A bounded request budget (`max_requests`) lets the serving loop exit
//! cleanly, which is what the CI smoke uses: start the server, hit it
//! with the built-in [`scrape`] client over a plain `TcpStream`, and let
//! it stop on its own.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{export, Registry};

/// Histogram bounds for request-handling latency, in seconds.
const LATENCY_BOUNDS: [f64; 4] = [1e-4, 1e-3, 1e-2, 1e-1];

/// The serving loop over an already-bound listener (callers bind the
/// address themselves, so tests and the CLI can both use ephemeral
/// ports), exposing `reg` and recording its self-metrics into it.
///
/// # Errors
///
/// Never errors today; the `Result` keeps the CLI signature uniform.
pub fn serve_on(
    listener: TcpListener,
    reg: Arc<Registry>,
    max_requests: Option<u64>,
) -> Result<String, String> {
    let _scope = crate::scope(Arc::clone(&reg));
    let mut served = 0u64;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let started = Instant::now();
        handle(stream, &reg);
        crate::observe_wall(
            "serve_request_seconds",
            &[],
            &LATENCY_BOUNDS,
            started.elapsed().as_secs_f64(),
        );
        served += 1;
        if max_requests.is_some_and(|max| served >= max) {
            break;
        }
    }
    Ok(format!("served {served} requests\n"))
}

/// Parses the request line and writes the matching response.
fn handle(mut stream: TcpStream, reg: &Registry) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let Some(path) = read_request_path(&stream) else {
        respond(&mut stream, "400 Bad Request", "bad request\n");
        return;
    };
    crate::count_wall("serve_requests_total", &[("path", &path)], 1);
    match path.as_str() {
        "/metrics" => {
            let body = export::prometheus(&reg.snapshot());
            respond(&mut stream, "200 OK", &body);
        }
        "/health" => respond(&mut stream, "200 OK", "ok\n"),
        _ => respond(
            &mut stream,
            "404 Not Found",
            "not found (try /metrics or /health)\n",
        ),
    }
}

/// Reads the HTTP request head and returns the request path of a GET.
fn read_request_path(stream: &TcpStream) -> Option<String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next()?, parts.next()?);
    if method != "GET" {
        return None;
    }
    // Drain the headers so the client sees a clean close (bounded: a
    // scraper's head is tiny; give up after 8 KiB either way).
    let mut drained = 0usize;
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(n) => {
                drained += n;
                if header == "\r\n" || header == "\n" || drained > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    Some(path.to_string())
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// One-shot scrape client over a plain `TcpStream`: fetches `path` from
/// `addr` and returns the response body. This is what the CI smoke runs
/// against a backgrounded `serve-metrics`.
///
/// # Errors
///
/// Returns an error when the connection fails, the response is not HTTP,
/// or the status is not 200.
pub fn scrape(addr: &str, path: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("--scrape {addr}: connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("--scrape {addr}: write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("--scrape {addr}: read: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("--scrape {addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("--scrape {addr}{path}: {status}"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_server(
        reg: &Arc<Registry>,
        max: u64,
    ) -> (String, std::thread::JoinHandle<Result<String, String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let reg = Arc::clone(reg);
        let handle = std::thread::spawn(move || serve_on(listener, reg, Some(max)));
        (addr, handle)
    }

    #[test]
    fn metrics_health_and_404_round_trip() {
        // The served registry is the caller's: what this thread records
        // under a scope of it shows on the page beside the self-metrics.
        let reg = Arc::new(Registry::new());
        let _scope = crate::scope(Arc::clone(&reg));
        crate::count("cells_total", &[], 7);
        let (addr, handle) = spawn_server(&reg, 4);

        let body = scrape(&addr, "/health").unwrap();
        assert_eq!(body, "ok\n");

        // The scrape counter is incremented before the snapshot, so the
        // very first /metrics scrape already exposes itself.
        let body = scrape(&addr, "/metrics").unwrap();
        assert!(
            body.contains("serve_requests_total{path=\"/metrics\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("serve_requests_total{path=\"/health\"} 1"),
            "{body}"
        );
        assert!(body.contains("cells_total 7"), "{body}");

        let err = scrape(&addr, "/nope").unwrap_err();
        assert!(err.contains("404"), "{err}");

        // The latency histogram appears once at least one earlier request
        // finished.
        let body = scrape(&addr, "/metrics").unwrap();
        assert!(body.contains("serve_request_seconds_bucket"), "{body}");
        assert!(body.contains("le=\"+Inf\""), "{body}");

        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary, "served 4 requests\n");
    }

    #[test]
    fn scrape_rejects_unreachable_addresses() {
        // A port nothing listens on: connect must fail with context.
        let err = scrape("127.0.0.1:1", "/metrics").unwrap_err();
        assert!(err.contains("connect"), "{err}");
    }
}
