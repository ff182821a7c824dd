//! A served request's trace events reach the collector when the request
//! is done, not when the server shuts down: the worker pool flushes each
//! worker's trace buffer after every job.
//!
//! This lives in its own test binary on purpose — `mc_trace` counters
//! are process-global, and any other test recording spans in parallel
//! would pollute the totals asserted here.

use std::time::{Duration, Instant};

use mc_serve::http::http_request;
use mc_serve::{ServeConfig, Server};

#[test]
fn served_eval_counters_are_visible_before_shutdown() {
    mc_trace::enable();
    let cache_dir = std::env::temp_dir().join(format!(
        "mcpm-serve-test-{}-trace-flush",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: cache_dir.clone(),
        threads: 1,
    };
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let run = std::thread::spawn(move || server.run().expect("server run"));

    let body = r#"{"benchmark":"hal","computations":20}"#;
    let (status, text) = http_request(&addr, "POST", "/eval", body).expect("eval request");
    assert_eq!(status, 200, "{text}");

    // The response is written before the job returns, so the flush may
    // trail it by a moment; the long-lived worker never exits meanwhile.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut sim_runs = 0;
    while sim_runs == 0 && Instant::now() < deadline {
        sim_runs += mc_trace::take()
            .counters
            .get("sim.runs")
            .copied()
            .unwrap_or(0);
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, _) = http_request(&addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    run.join().expect("server thread");
    mc_trace::disable();
    let _ = std::fs::remove_dir_all(&cache_dir);
    assert!(
        sim_runs > 0,
        "the served /eval's simulation counters stayed in the worker's buffer"
    );
}
