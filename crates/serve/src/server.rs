//! The `mcpm serve` server: a TCP accept loop feeding a bounded
//! [`WorkerPool`], with the on-disk cache
//! and the coalescer in front of the compute path.
//!
//! Request lifecycle for the four compute endpoints:
//!
//! 1. parse + validate (`400` on any problem),
//! 2. content-addressed disk-cache lookup (`serve.cache.hit` → respond),
//! 3. coalesce: identical in-flight requests share one compute
//!    (`serve.coalesced`),
//! 4. the leader runs the flow, appends the CLI's trailing newline,
//!    writes the cache entry, then publishes (see [`crate::coalesce`] for
//!    why that order makes "one flow run" deterministic).

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mc_bench::harness::JsonObj;
use mc_core::cache::{fnv1a, DiskCache};
use mc_explore::pool::{default_threads, WorkerPool};

use crate::api::{self, FlowPool};
use crate::coalesce::Coalescer;
use crate::http::{read_request, write_response, Request};

/// Server configuration (the `mcpm serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 → ephemeral).
    pub addr: String,
    /// On-disk cache root.
    pub cache_dir: PathBuf,
    /// Worker-pool width.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_owned(),
            cache_dir: PathBuf::from("target/mcpm-serve-cache"),
            threads: default_threads(),
        }
    }
}

/// Typed server failures, each with an actionable message — bind errors
/// in particular must exit non-zero with a hint, never panic.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind {
        /// The address that could not be bound.
        addr: String,
        /// The OS error.
        source: io::Error,
    },
    /// The cache directory could not be opened/created.
    Cache {
        /// The cache root in question.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// Any other server I/O failure.
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => {
                write!(f, "cannot bind `{addr}`: {source}")?;
                match source.kind() {
                    io::ErrorKind::AddrInUse => {
                        write!(f, " — is another `mcpm serve` already running there?")
                    }
                    io::ErrorKind::PermissionDenied => {
                        write!(f, " — ports below 1024 need elevated privileges")
                    }
                    _ => Ok(()),
                }
            }
            ServeError::Cache { path, source } => {
                write!(
                    f,
                    "cannot open cache directory `{}`: {source}",
                    path.display()
                )
            }
            ServeError::Io(e) => write!(f, "server I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Aggregate request counters, readable at `GET /stats`.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests accepted (all endpoints).
    pub requests: AtomicU64,
    /// Compute requests answered from the disk cache.
    pub cache_hits: AtomicU64,
    /// Compute requests that missed the disk cache.
    pub cache_misses: AtomicU64,
    /// Requests that piggybacked on an identical in-flight compute.
    pub coalesced: AtomicU64,
    /// Cold computes actually performed (cache-miss leaders).
    pub flow_runs: AtomicU64,
    /// Requests answered with a 4xx/5xx.
    pub errors: AtomicU64,
}

struct ServerCtx {
    cache: DiskCache,
    coalescer: Coalescer,
    flows: FlowPool,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Where the listener actually lives; `/shutdown` dials it to wake
    /// the (blocking) accept loop.
    addr: SocketAddr,
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    threads: usize,
}

impl Server {
    /// Binds the listen socket and opens the cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] / [`ServeError::Cache`] with actionable
    /// messages.
    pub fn bind(config: &ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        let cache = DiskCache::open(&config.cache_dir).map_err(|source| ServeError::Cache {
            path: config.cache_dir.clone(),
            source,
        })?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;
        Ok(Server {
            listener,
            ctx: Arc::new(ServerCtx {
                cache,
                coalescer: Coalescer::new(),
                flows: FlowPool::new(),
                stats: ServerStats::default(),
                shutdown: AtomicBool::new(false),
                addr,
            }),
            threads: config.threads.max(1),
        })
    }

    /// The actually bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS lookup failure.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(ServeError::Io)
    }

    /// The server's aggregate counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.ctx.stats
    }

    /// Runs the accept loop until a `POST /shutdown` arrives, then drains
    /// every in-flight connection (graceful: queued work finishes, the
    /// shutdown response itself is written) and returns.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures.
    pub fn run(self) -> Result<(), ServeError> {
        // Blocking accept: zero idle CPU and no polling-induced latency
        // floor. The `/shutdown` handler sets the flag and then dials the
        // listener itself, so the loop always wakes to observe it.
        let pool = WorkerPool::new(self.threads);
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.ctx.shutdown.load(Ordering::SeqCst) {
                        // Likely the wake-up connection; either way we
                        // are draining — close it unanswered.
                        drop(stream);
                        break;
                    }
                    let ctx = Arc::clone(&self.ctx);
                    pool.submit(move || handle_connection(stream, &ctx));
                }
                // Transient accept errors (connection reset during
                // handshake, fd pressure): keep serving.
                Err(_) => {
                    if self.ctx.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        // Graceful drain: every accepted connection runs to completion.
        pool.join();
        Ok(())
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &ServerCtx) {
    // A stuck client must not wedge a worker forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nonblocking(false);
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(e) => {
            ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(&mut stream, e.status, &error_body(&e.message));
            return;
        }
    };
    let (status, body) = respond(&request, ctx);
    if status >= 400 {
        ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    let _ = write_response(&mut stream, status, &body);
}

fn error_body(message: &str) -> String {
    format!("{}\n", JsonObj::new().str("error", message).finish())
}

fn respond(request: &Request, ctx: &ServerCtx) -> (u16, String) {
    ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}\n".to_owned()),
        ("GET", "/stats") => (200, stats_body(ctx)),
        ("POST", "/shutdown") => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            // Wake the blocking accept loop so it notices the flag; the
            // throwaway connection is closed unanswered.
            drop(TcpStream::connect(ctx.addr));
            (200, "{\"status\":\"shutting down\"}\n".to_owned())
        }
        ("POST", "/eval") => compute(ctx, "eval", &request.body),
        ("POST", "/sweep") => compute(ctx, "sweep", &request.body),
        ("POST", "/explore") => compute(ctx, "explore", &request.body),
        ("POST", "/retrofit") => compute(ctx, "retrofit", &request.body),
        (
            _,
            "/healthz" | "/stats" | "/shutdown" | "/eval" | "/sweep" | "/explore" | "/retrofit",
        ) => (
            405,
            error_body(&format!(
                "method {} not allowed for {}",
                request.method, request.path
            )),
        ),
        (_, path) => (404, error_body(&format!("no such endpoint `{path}`"))),
    }
}

fn stats_body(ctx: &ServerCtx) -> String {
    let s = &ctx.stats;
    format!(
        "{}\n",
        JsonObj::new()
            .str("status", "ok")
            .num("requests", s.requests.load(Ordering::Relaxed))
            .num("cache_hits", s.cache_hits.load(Ordering::Relaxed))
            .num("cache_misses", s.cache_misses.load(Ordering::Relaxed))
            .num("coalesced", s.coalesced.load(Ordering::Relaxed))
            .num("flow_runs", s.flow_runs.load(Ordering::Relaxed))
            .num("errors", s.errors.load(Ordering::Relaxed))
            .num("cache_entries", ctx.cache.len())
            .num("cache_evictions", ctx.cache.evictions())
            .num("flows", ctx.flows.len())
            .finish()
    )
}

/// The cache → coalesce → compute path shared by the four endpoints.
fn compute(ctx: &ServerCtx, kind: &str, body: &str) -> (u16, String) {
    let _span = mc_trace::span(format!("serve.request.{kind}"));
    let request = match api::parse_request(kind, body) {
        Ok(request) => request,
        Err(message) => return (400, error_body(&message)),
    };
    let canonical = match request.canonical() {
        Ok(canonical) => canonical,
        Err(message) => return (400, error_body(&message)),
    };
    // The coalescer keys on the hash; the disk cache keys on the full
    // canonical text so hash collisions degrade to recomputation, never
    // to a wrong response.
    let key = fnv1a(canonical.as_bytes());
    if let Some(cached) = ctx.cache.get(&canonical) {
        ctx.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        mc_trace::count_runtime("serve.cache.hit", 1);
        return (200, cached);
    }
    ctx.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    mc_trace::count_runtime("serve.cache.miss", 1);
    let outcome = ctx.coalescer.run(key, || {
        let _span = mc_trace::span("serve.compute");
        ctx.stats.flow_runs.fetch_add(1, Ordering::Relaxed);
        // The CLI prints the document with `println!`; the stored body
        // carries the same trailing newline so responses are
        // byte-identical to CLI stdout.
        let response = format!("{}\n", request.run_json(&ctx.flows)?);
        // Best-effort persist *before* publishing: a later identical
        // request either coalesces onto this one or hits the disk cache.
        let _ = ctx.cache.put(&canonical, &response);
        Ok(Arc::new(response))
    });
    if outcome.coalesced {
        ctx.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        mc_trace::count_runtime("serve.coalesced", 1);
    }
    match outcome.result {
        Ok(response) => (200, (*response).clone()),
        Err(message) => (500, error_body(&message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_request;

    fn temp_config(tag: &str) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: std::env::temp_dir()
                .join(format!("mc-serve-server-test-{tag}-{}", std::process::id())),
            threads: 2,
        }
    }

    fn start(config: &ServeConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    #[test]
    fn healthz_stats_and_shutdown() {
        let config = temp_config("health");
        let (addr, handle) = start(&config);
        let (status, body) = http_request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}\n"));
        let (status, body) = http_request(addr, "GET", "/stats", "").unwrap();
        assert_eq!(status, 200);
        let stats = mc_trace::json::parse(&body).unwrap();
        assert_eq!(stats.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(stats.get("flow_runs").and_then(|v| v.as_f64()), Some(0.0));
        let (status, _) = http_request(addr, "POST", "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn unknown_paths_and_methods_are_typed_errors() {
        let config = temp_config("errors");
        let (addr, handle) = start(&config);
        let (status, body) = http_request(addr, "GET", "/nonesuch", "").unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("no such endpoint"));
        let (status, _) = http_request(addr, "GET", "/eval", "").unwrap();
        assert_eq!(status, 405);
        let (status, body) =
            http_request(addr, "POST", "/eval", r#"{"benchmark":"nonesuch"}"#).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("unknown benchmark"));
        let (status, _) = http_request(addr, "POST", "/eval", "{not json").unwrap();
        assert_eq!(status, 400);
        http_request(addr, "POST", "/shutdown", "").unwrap();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn bind_conflict_is_a_typed_error() {
        let config = temp_config("bind");
        let first = Server::bind(&config).unwrap();
        let taken = ServeConfig {
            addr: first.local_addr().unwrap().to_string(),
            ..config.clone()
        };
        let Err(err) = Server::bind(&taken) else {
            panic!("second bind on the same port must fail");
        };
        assert!(matches!(err, ServeError::Bind { .. }));
        assert!(err.to_string().contains("already running"), "{err}");
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn eval_misses_then_hits_the_cache() {
        let config = temp_config("cache");
        let (addr, handle) = start(&config);
        let body = r#"{"benchmark":"facet","computations":30}"#;
        let (status, first) = http_request(addr, "POST", "/eval", body).unwrap();
        assert_eq!(status, 200, "{first}");
        assert!(first.ends_with('\n'));
        let (status, second) = http_request(addr, "POST", "/eval", body).unwrap();
        assert_eq!(status, 200);
        assert_eq!(first, second, "cached response must be byte-identical");
        let (_, stats) = http_request(addr, "GET", "/stats", "").unwrap();
        let stats = mc_trace::json::parse(&stats).unwrap();
        assert_eq!(stats.get("cache_hits").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(stats.get("flow_runs").and_then(|v| v.as_f64()), Some(1.0));
        http_request(addr, "POST", "/shutdown", "").unwrap();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }
}
