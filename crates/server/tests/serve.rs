//! End-to-end serving tests: served rankings are bit-identical to an
//! in-process session over the same configuration, a second tenant runs
//! fully warm (0 artifact misses), the bounded admission queue answers
//! `busy`, and graceful shutdown writes a validating per-tenant
//! metrics export.

use sdd_core::inject::{CampaignConfig, ClockPolicy};
use sdd_core::metrics::MetricsExport;
use sdd_core::session::{ArtifactLayer, Design};
use sdd_core::testutil::TestDir;
use sdd_netlist::profiles;
use sdd_server::{Client, Request, Server, ServerConfig};
use std::net::SocketAddr;
use std::time::Duration;

fn start(
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<MetricsExport>>,
) {
    let server = Server::bind(config).expect("bind");
    let addr = server.addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_with_retry(&addr.to_string(), Duration::from_secs(5)).expect("connect")
}

fn submit_request(tenant: &str, chips: Vec<u64>, config: &CampaignConfig) -> Request {
    let mut r = Request::new("submit");
    r.tenant = tenant.into();
    r.circuit = "s27".into();
    r.chips = chips;
    r.config = Some(config.clone());
    r
}

fn tenant_metrics(client: &mut Client, tenant: &str) -> sdd_core::metrics::MetricsReport {
    let mut r = Request::new("metrics");
    r.tenant = tenant.into();
    let response = client.request(&r).expect("metrics");
    assert_eq!(response.op, "metrics", "{response:?}");
    response.metrics.expect("metrics payload")
}

#[test]
fn served_rankings_match_an_in_process_session_bit_for_bit() {
    // The per-session sweep clock, and circuit-level clocks the served
    // design memoizes: each must answer like an in-process session. At
    // the 0.95 quantile every defect of these s27 chips escapes (all
    // three are undetected both ways); the 0.05 quantile diagnoses some.
    let sweep = CampaignConfig::quick(5);
    let quantile = |q| sweep.clone().with_clock(ClockPolicy::CircuitQuantile(q));
    let (addr, handle) = start(ServerConfig::default());
    let mut client = connect(addr);
    for (config, ranks) in [
        (sweep.clone(), true),
        (quantile(0.95), false),
        (quantile(0.05), true),
    ] {
        let responses = client
            .submit(&submit_request("alpha", vec![0, 1, 2], &config))
            .expect("submit");
        assert_eq!(responses.len(), 3, "one outcome per chip: {responses:?}");

        // Replicate the design the server serves, freshly generated.
        let design = Design::generate(&profiles::S27, config.seed, config.variation).unwrap();
        let session = ArtifactLayer::new().session("local");

        let mut compared = 0;
        for (chip, response) in responses.iter().enumerate() {
            assert_eq!(response.op, "outcome");
            assert_eq!(response.chip, chip as u64);
            let local = session.diagnose_instance(&design, &config, chip).unwrap();
            match local {
                Some(local) => {
                    assert_eq!(response.injected, Some(local.injected.index() as u64));
                    assert_eq!(
                        response.rankings, local.rankings,
                        "served rankings for chip {chip} must be bit-identical ({:?})",
                        config.clock
                    );
                    compared += 1;
                }
                None => assert_eq!(
                    response.injected, None,
                    "chip {chip} undetectable both ways"
                ),
            }
        }
        if ranks {
            assert!(compared > 0, "at least one chip must produce a ranking");
        }
    }
    client.request(&Request::new("shutdown")).expect("shutdown");
    handle.join().unwrap().expect("clean shutdown");
}

#[test]
fn repeated_submits_share_one_design_and_match_a_fresh_design() {
    let config = CampaignConfig::quick(6);
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let layer = server.layer().clone();
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = connect(addr);

    // An unknown profile is refused before the memo is touched.
    let mut unknown = submit_request("alpha", vec![0], &config);
    unknown.circuit = "no-such-profile".into();
    let refused = client.submit(&unknown).expect("submit");
    assert_eq!(refused.len(), 1, "{refused:?}");
    assert_eq!(refused[0].op, "error");
    assert!(
        refused[0].error.contains("unknown circuit profile"),
        "{refused:?}"
    );
    assert_eq!(layer.num_designs(), 0, "an unknown name inserted a key");

    // Two submits of one design, from two tenants: one design is built,
    // and the second submit reads the same `Arc`.
    let chips = vec![0, 1, 2];
    let first = client
        .submit(&submit_request("alpha", chips.clone(), &config))
        .expect("first submit");
    assert_eq!(layer.num_designs(), 1);
    let held = layer
        .design("s27", config.seed, config.variation)
        .expect("design");
    let second = client
        .submit(&submit_request("beta", chips.clone(), &config))
        .expect("second submit");
    let again = layer
        .design("s27", config.seed, config.variation)
        .expect("design");
    assert!(
        std::sync::Arc::ptr_eq(&held, &again),
        "the design was rebuilt"
    );
    assert_eq!(layer.num_designs(), 1);

    // Both answers equal an in-process session's on a freshly generated
    // design.
    let fresh = Design::generate(&profiles::S27, config.seed, config.variation).unwrap();
    let session = ArtifactLayer::new().session("local");
    let mut compared = 0;
    for chip in 0..chips.len() {
        let local = session.diagnose_instance(&fresh, &config, chip).unwrap();
        for served in [&first[chip], &second[chip]] {
            assert_eq!(served.op, "outcome", "{served:?}");
            let injected = local.as_ref().map(|l| l.injected.index() as u64);
            assert_eq!(served.injected, injected, "chip {chip}");
            let rankings = local
                .as_ref()
                .map(|l| l.rankings.clone())
                .unwrap_or_default();
            assert_eq!(served.rankings, rankings, "chip {chip}");
        }
        compared += usize::from(local.is_some_and(|l| !l.rankings.is_empty()));
    }
    assert!(compared > 0, "at least one chip must produce a ranking");
    client.request(&Request::new("shutdown")).expect("shutdown");
    handle.join().unwrap().expect("clean shutdown");
}

#[test]
fn second_tenant_runs_fully_warm_with_zero_misses() {
    let store = TestDir::new("server-warm");
    let config = CampaignConfig::quick(7);
    let (addr, handle) = start(ServerConfig {
        store_dir: Some(store.path().to_path_buf()),
        ..ServerConfig::default()
    });

    let mut alpha = connect(addr);
    alpha
        .submit(&submit_request("alpha", vec![0, 1], &config))
        .expect("alpha submit");

    let mut beta = connect(addr);
    beta.submit(&submit_request("beta", vec![0, 1], &config))
        .expect("beta submit");

    let warm = tenant_metrics(&mut beta, "beta");
    assert_eq!(warm.counters.dict_cache_misses, 0, "beta dictionary misses");
    assert_eq!(warm.counters.pattern_cache_misses, 0, "beta pattern misses");
    assert!(
        warm.counters.dict_cache_hits > 0,
        "beta must hit the shared pool"
    );
    assert_eq!(warm.circuit, "tenant:beta");

    let cold = tenant_metrics(&mut alpha, "alpha");
    assert!(
        cold.counters.dict_cache_misses > 0,
        "alpha populated the pool"
    );

    alpha.request(&Request::new("shutdown")).expect("shutdown");
    handle.join().unwrap().expect("clean shutdown");
}

#[test]
fn full_admission_queue_answers_busy_instead_of_blocking() {
    let (addr, handle) = start(ServerConfig {
        queue_capacity: 1,
        workers: 1,
        ..ServerConfig::default()
    });
    let config = CampaignConfig::quick(3);
    let mut client = connect(addr);
    let total = 12;
    for _ in 0..total {
        client
            .send(&submit_request("alpha", vec![0, 1, 2, 3], &config))
            .expect("send");
    }
    let mut done = 0;
    let mut busy = 0;
    while done + busy < total {
        let response = client.recv().expect("recv").expect("response");
        match response.op.as_str() {
            "done" => done += 1,
            "busy" => {
                busy += 1;
                assert!(!response.error.is_empty(), "busy carries a hint");
            }
            "outcome" => {}
            other => panic!("unexpected op {other:?}: {response:?}"),
        }
    }
    assert!(
        busy > 0,
        "a 1-deep queue under {total} rapid submits must shed load"
    );
    assert!(done > 0, "admitted work still completes");
    client.request(&Request::new("shutdown")).expect("shutdown");
    handle.join().unwrap().expect("clean shutdown");
}

#[test]
fn stalled_connection_is_timed_out_while_others_are_served() {
    let (addr, handle) = start(ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });

    // A slow-loris client: connects, sends nothing (not even a partial
    // line), and just holds the connection open.
    let mut staller = connect(addr);

    // A well-behaved client on a second connection keeps being served
    // while the staller idles.
    let mut client = connect(addr);
    let pong = client.request(&Request::new("ping")).expect("ping");
    assert_eq!(pong.op, "pong");

    // The staller is answered with a structured idle-timeout error and
    // then disconnected (recv yields the error, then EOF).
    let response = staller
        .recv()
        .expect("timeout error is sent before the disconnect")
        .expect("a response line, not EOF");
    assert_eq!(response.op, "error", "{response:?}");
    assert!(
        response.error.contains("idle timeout"),
        "error names the cause: {:?}",
        response.error
    );
    assert!(
        staller.recv().expect("read after error").is_none(),
        "connection is closed after the timeout error"
    );

    // The server keeps accepting and serving after the eviction (the
    // first healthy connection has idled past the timeout too by now,
    // so demonstrate liveness with a fresh one).
    let mut after = connect(addr);
    let pong = after.request(&Request::new("ping")).expect("ping again");
    assert_eq!(pong.op, "pong");
    after.request(&Request::new("shutdown")).expect("shutdown");
    handle.join().unwrap().expect("clean shutdown");
}

#[test]
fn shutdown_flushes_a_validating_per_tenant_export() {
    let store = TestDir::new("server-export");
    let export_path = store.path().join("metrics.json");
    let config = CampaignConfig::quick(11);
    let (addr, handle) = start(ServerConfig {
        store_dir: Some(store.path().join("store")),
        metrics_json: Some(export_path.clone()),
        ..ServerConfig::default()
    });

    let mut client = connect(addr);
    client
        .submit(&submit_request("beta", vec![0], &config))
        .expect("beta submit");
    client
        .submit(&submit_request("alpha", vec![0, 1], &config))
        .expect("alpha submit");
    client.request(&Request::new("shutdown")).expect("shutdown");

    let export = handle.join().unwrap().expect("clean shutdown");
    export.validate().expect("returned export validates");
    let tenants: Vec<&str> = export.reports.iter().map(|r| r.circuit.as_str()).collect();
    assert_eq!(
        tenants,
        ["tenant:alpha", "tenant:beta"],
        "sorted per-tenant reports"
    );
    assert!(export
        .reports
        .iter()
        .all(|r| r.counters.session_latency.count > 0));

    let written: MetricsExport =
        serde_json::from_str(&std::fs::read_to_string(&export_path).expect("export file"))
            .expect("export parses");
    written.validate().expect("written export validates");
    assert_eq!(written.reports.len(), 2);
}
