//! Protocol-robustness regression tests: malformed, oversized or
//! garbage request lines, and retired kernel names, must each produce a
//! structured `error` response and leave the connection serving
//! follow-up requests. Also
//! pins the screened-kernel protocol surface: `"kernel": "screened"` +
//! `top_k` submits serve rankings bit-identical to an in-process
//! screened session, and behaviour submits under a circuit-quantile
//! clock policy answer exactly like the in-process `diagnose_behavior`.

use sdd_core::defect::SingleDefectModel;
use sdd_core::dictionary::SimKernel;
use sdd_core::inject::{tested_delay_samples, CampaignConfig, ClockPolicy};
use sdd_core::session::ArtifactLayer;
use sdd_core::BehaviorMatrix;
use sdd_server::{
    Client, Request, Response, Server, ServerConfig, WireBehavior, WirePattern, MAX_LINE_BYTES,
};
use sdd_timing::{CellLibrary, CircuitTiming};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn start_server() -> SocketAddr {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr();
    std::thread::spawn(move || server.run());
    addr
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_with_retry(&addr.to_string(), Duration::from_secs(5)).expect("connect")
}

/// The connection must answer a ping after whatever abuse preceded it.
fn assert_alive(client: &mut Client) {
    let pong = client.request(&Request::new("ping")).expect("ping");
    assert_eq!(pong.op, "pong", "connection must stay alive: {pong:?}");
}

#[test]
fn screened_submit_is_bit_identical_to_in_process_screened_session() {
    let config = CampaignConfig::quick(5);
    let mut client = connect(start_server());
    let mut request = Request::new("submit");
    request.tenant = "screened-t".into();
    request.circuit = "s27".into();
    request.chips = vec![0, 1, 2];
    request.config = Some(config.clone());
    request.kernel = "screened".into();
    request.top_k = Some(3);
    let responses = client.submit(&request).expect("screened submit");
    assert_eq!(responses.len(), 3, "one outcome per chip: {responses:?}");

    // The in-process twin: same layer shape (cold, store-less), same
    // kernel + top_k pinned on the session.
    let profile = sdd_netlist::profiles::by_name("s27").unwrap();
    let circuit = sdd_netlist::generator::generate(&profile.to_config(config.seed))
        .unwrap()
        .to_combinational()
        .unwrap();
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, config.variation);
    let model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
    let session = ArtifactLayer::new()
        .session("local")
        .with_kernel(SimKernel::Screened)
        .with_screen_top_k(3);

    let mut compared = 0;
    for (chip, response) in responses.iter().enumerate() {
        assert_eq!(response.op, "outcome", "{response:?}");
        let local = session.diagnose_instance(&circuit, &timing, &model, None, &config, chip);
        match local {
            Some(local) => {
                assert_eq!(response.injected, Some(local.injected.index() as u64));
                assert_eq!(
                    response.rankings, local.rankings,
                    "screened-served rankings for chip {chip} must be bit-identical"
                );
                compared += 1;
            }
            None => assert_eq!(
                response.injected, None,
                "chip {chip} undetectable both ways"
            ),
        }
    }
    assert!(compared > 0, "at least one chip must produce a ranking");

    // The pin is sticky: re-submitting under the same tenant with a
    // different kernel or top_k is a request error.
    let mut conflict = request.clone();
    conflict.kernel = "batched".into();
    conflict.top_k = None;
    client.send(&conflict).expect("send");
    let response = client.recv().expect("recv").expect("response");
    assert_eq!(response.op, "error", "{response:?}");
    assert!(response.error.contains("pinned"), "{response:?}");
    let mut retopk = request.clone();
    retopk.top_k = Some(7);
    client.send(&retopk).expect("send");
    let response = client.recv().expect("recv").expect("response");
    assert_eq!(response.op, "error", "{response:?}");
    assert!(response.error.contains("top_k"), "{response:?}");
    assert_alive(&mut client);
}

#[test]
fn behavior_submit_under_circuit_quantile_matches_in_process_diagnose_behavior() {
    // The circuit-level clock is a chip-submit concern: a behaviour
    // carries its own clk, so the policy must not change the answer.
    let config = CampaignConfig::quick(3).with_clock(ClockPolicy::CircuitQuantile(0.95));
    let profile = sdd_netlist::profiles::by_name("s27").unwrap();
    let circuit = sdd_netlist::generator::generate(&profile.to_config(config.seed))
        .unwrap()
        .to_combinational()
        .unwrap();
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, config.variation);
    let model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
    let patterns = sdd_atpg::PatternSet::random(&circuit, 6, 11);
    let clk = tested_delay_samples(&circuit, &timing, &patterns, 100, 2).quantile(0.5);
    // The first arc whose injected defect makes some output fail.
    let behavior = circuit
        .edge_ids()
        .map(|site| {
            let chip = timing
                .sample_instance_indexed(4, 0)
                .with_extra_delay(site, 0.5);
            BehaviorMatrix::observe(&circuit, &patterns, &chip, clk)
        })
        .find(|b| (0..b.num_patterns()).any(|j| !b.failing_outputs(j).is_empty()))
        .expect("some arc's defect is observable");

    let mut request = Request::new("submit");
    request.tenant = "behavior-t".into();
    request.circuit = "s27".into();
    request.config = Some(config);
    request.behavior = Some(WireBehavior {
        patterns: patterns
            .iter()
            .map(|p| WirePattern {
                v1: p.v1.clone(),
                v2: p.v2.clone(),
            })
            .collect(),
        fails: (0..behavior.num_outputs())
            .map(|i| {
                (0..behavior.num_patterns())
                    .map(|j| behavior.fails(i, j))
                    .collect()
            })
            .collect(),
        clk,
    });
    let mut client = connect(start_server());
    let responses = client.submit(&request).expect("behaviour submit");
    assert_eq!(responses.len(), 1, "{responses:?}");
    let served = &responses[0];
    assert_eq!(served.op, "outcome", "{served:?}");
    assert!(served.detected, "the injected defect must be detected");

    let local = ArtifactLayer::new()
        .session("local")
        .diagnose_behavior(&circuit, &timing, &patterns, &model.size_dist(), &behavior)
        .expect("local diagnosis");
    assert_eq!(
        served.rankings, local,
        "served behaviour rankings must be bit-identical"
    );
    assert_alive(&mut client);
}

#[test]
fn retired_scalar_kernel_name_yields_error_and_connection_survives() {
    // The scalar reference kernel is test code, not a wire name: a
    // submit naming it gets one structured error listing the kernels a
    // tenant can pin, and the connection keeps serving — including a
    // valid submit under the same tenant, which was never pinned.
    let mut client = connect(start_server());
    let mut request = Request::new("submit");
    request.tenant = "retired-t".into();
    request.circuit = "s27".into();
    request.chips = vec![0];
    request.config = Some(CampaignConfig::quick(2));
    for name in ["scalar", "Scalar"] {
        request.kernel = name.into();
        client.send(&request).expect("send");
        let response = client.recv().expect("recv").expect("response");
        assert_eq!(response.op, "error", "{response:?}");
        assert_eq!(response.tenant, "retired-t", "{response:?}");
        for kernel in ["batched", "analytic", "screened"] {
            assert!(response.error.contains(kernel), "{response:?}");
        }
    }
    assert_alive(&mut client);
    request.kernel = "batched".into();
    let responses = client.submit(&request).expect("batched submit");
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert_eq!(responses[0].op, "outcome", "{responses:?}");
    assert_alive(&mut client);
}

#[test]
fn malformed_json_yields_error_and_connection_survives() {
    let mut client = connect(start_server());
    for bad in [
        "{not json",
        "[1, 2, 3]",
        "42",
        "\"just a string\"",
        "{\"v\": 1}",                      // missing mandatory `op`
        "{\"op\": 7}",                     // op of the wrong type
        "{\"op\": \"no-such-op\"}",        // unknown op
        "{\"op\": \"submit\", \"v\": 99}", // unsupported protocol version
        "null",
    ] {
        client.send_raw(bad).expect("send");
        let response = client.recv().expect("recv").expect("response");
        assert_eq!(response.op, "error", "for line {bad:?}: {response:?}");
        assert!(!response.error.is_empty(), "error text for {bad:?}");
    }
    assert_alive(&mut client);
}

#[test]
fn oversized_line_is_drained_not_fatal() {
    let mut client = connect(start_server());
    let huge = format!(
        "{{\"op\": \"ping\", \"tenant\": \"{}\"}}",
        "x".repeat(MAX_LINE_BYTES)
    );
    client.send_raw(&huge).expect("send");
    let response = client.recv().expect("recv").expect("response");
    assert_eq!(response.op, "error");
    assert!(response.error.contains("exceeds"), "{response:?}");
    assert_alive(&mut client);
}

#[test]
fn invalid_utf8_yields_error_not_disconnect() {
    let addr = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&[0xff, 0xfe, 0x80, b'{', b'}', b'\n'])
        .expect("write");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response: Response = serde_json::from_str(&line).expect("structured response");
    assert_eq!(response.op, "error");
    assert!(response.error.contains("UTF-8"), "{response:?}");

    // Follow-up on the same socket still works.
    stream.write_all(b"{\"op\": \"ping\"}\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    let response: Response = serde_json::from_str(&line).expect("structured response");
    assert_eq!(response.op, "pong");
}

/// Deterministic fuzz sweep: every garbage line gets exactly one
/// structured response and never kills the connection.
#[test]
fn garbage_lines_always_get_one_structured_response() {
    let mut client = connect(start_server());
    let alphabet: &[u8] = b"{}[]\",:xyz0189 \\ttrue";
    let mut state: u64 = 0x5DD_CAFE;
    for round in 0..64 {
        let len = 1 + (state % 97) as usize;
        let line: String = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                alphabet[(state >> 33) as usize % alphabet.len()] as char
            })
            .collect();
        if line.trim().is_empty() {
            continue; // blank lines are legitimately ignored
        }
        client.send_raw(&line).expect("send");
        let response = client.recv().expect("recv").expect("response");
        // Random bytes never form a valid request, so every line must
        // come back as a structured error (round {round}).
        assert_eq!(
            response.op, "error",
            "round {round}, line {line:?}: {response:?}"
        );
    }
    assert_alive(&mut client);
}
