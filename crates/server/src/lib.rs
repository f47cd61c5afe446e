//! Diagnosis-as-a-service: a JSON-lines TCP server over the shared
//! [`ArtifactLayer`], plus the matching blocking [`Client`].
//!
//! ## Wire protocol (version 1)
//!
//! One JSON object per line, both directions, UTF-8, `\n`-terminated.
//! Requests carry an `op`:
//!
//! * `submit` — diagnose through a per-tenant [`DiagnosisSession`].
//!   Either `chips` (campaign chip indices to inject, observe and
//!   diagnose — the Section I flow, bit-identical to an in-process
//!   [`DiagnosisSession`] run) or `behavior` (an externally
//!   observed behaviour matrix plus its applied patterns). The server
//!   streams one `outcome` response per chip/behaviour, then `done`.
//! * `metrics` — the tenant's [`MetricsReport`] (schema v1: counters,
//!   per-phase and session-latency histograms, tenant-tagged traces).
//! * `ping` — liveness probe, answered inline with `pong`.
//! * `shutdown` — graceful shutdown: drains the admission queue, syncs
//!   the dictionary store, writes the per-tenant metrics export, answers
//!   `bye`.
//!
//! Malformed, oversized (> [`MAX_LINE_BYTES`]) or unparseable requests
//! yield a structured `error` response and the connection stays alive.
//! When the bounded admission queue is full, `submit` is answered with
//! an explicit `busy` response instead of blocking — backpressure is the
//! client's to handle.

use sdd_core::defect::SingleDefectModel;
use sdd_core::diagnoser::RankedSite;
use sdd_core::dictionary::SimKernel;
use sdd_core::inject::{CampaignConfig, ClockPolicy};
use sdd_core::metrics::{MetricsExport, MetricsReport};
use sdd_core::session::{ArtifactLayer, DiagnosisSession};
use sdd_core::{BehaviorMatrix, ErrorFunction};
use sdd_netlist::profiles;
use sdd_timing::{sta, CellLibrary, CircuitTiming};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wire protocol version spoken (and stamped into every response).
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one request line in bytes; longer lines are drained
/// and answered with a structured `error` response.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A client request: one JSON object per line. `op` is mandatory; every
/// other field defaults so clients send only what the op needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version the client speaks (0 is read as "don't care").
    #[serde(default)]
    pub v: u32,
    /// `submit` | `metrics` | `ping` | `shutdown`.
    pub op: String,
    /// Tenant id; sessions (and their metrics) are keyed by it.
    #[serde(default)]
    pub tenant: String,
    /// Benchmark profile name for `submit` (e.g. `s27`, `s1196`).
    #[serde(default)]
    pub circuit: String,
    /// Campaign configuration; defaults to `CampaignConfig::quick(1)`.
    ///
    /// A behaviour submit reads only the circuit-generation fields
    /// (`seed`, `variation`): it ignores `config.dictionary` and builds
    /// its dictionary under the session's dictionary and kernel
    /// overrides, starting from `DictionaryConfig::default()` (200
    /// samples) when no dictionary override is set — exactly like the
    /// in-process `DiagnosisSession::diagnose_behavior`.
    #[serde(default)]
    pub config: Option<CampaignConfig>,
    /// Kernel the tenant's session is pinned to: `""` (request/config
    /// choice), `batched`, `analytic` or `screened`.
    #[serde(default)]
    pub kernel: String,
    /// Survivor budget of the analytic screen (screened kernel only);
    /// pinned to the tenant's session at first use like the kernel.
    #[serde(default)]
    pub top_k: Option<usize>,
    /// Campaign chip indices to inject + diagnose (`submit`).
    #[serde(default)]
    pub chips: Vec<u64>,
    /// Externally observed behaviour to diagnose (`submit`).
    #[serde(default)]
    pub behavior: Option<WireBehavior>,
}

impl Request {
    /// A request of the given op with everything else defaulted.
    pub fn new(op: impl Into<String>) -> Request {
        Request {
            v: PROTOCOL_VERSION,
            op: op.into(),
            tenant: String::new(),
            circuit: String::new(),
            config: None,
            kernel: String::new(),
            top_k: None,
            chips: Vec::new(),
            behavior: None,
        }
    }
}

/// An applied two-vector pattern on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WirePattern {
    /// Initialization vector, ordered like the circuit's primary inputs.
    pub v1: Vec<bool>,
    /// Launch vector.
    pub v2: Vec<bool>,
}

/// An externally observed behaviour matrix plus the patterns that
/// produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireBehavior {
    /// The applied pattern set, in application order.
    pub patterns: Vec<WirePattern>,
    /// `fails[i][j]`: did primary output `i` fail pattern `j`?
    pub fails: Vec<Vec<bool>>,
    /// The cut-off period the behaviour was recorded at.
    pub clk: f64,
}

/// A server response: one JSON object per line. `op` discriminates:
/// `outcome`, `done`, `error`, `busy`, `metrics`, `pong`, `bye`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Response kind (see type docs).
    pub op: String,
    /// Tenant the response belongs to (echoed from the request).
    #[serde(default)]
    pub tenant: String,
    /// Chip index an `outcome` covers (0 for behaviour submissions).
    #[serde(default)]
    pub chip: u64,
    /// Whether diagnosis produced a ranking (an undetectable chip or an
    /// unexplainable behaviour sets this false).
    #[serde(default)]
    pub detected: bool,
    /// Ground-truth injected arc index for campaign-chip outcomes.
    #[serde(default)]
    pub injected: Option<u64>,
    /// Error-function names, one per entry of `rankings`.
    #[serde(default)]
    pub functions: Vec<String>,
    /// Ranked suspects per error function, best first.
    #[serde(default)]
    pub rankings: Vec<Vec<RankedSite>>,
    /// Human-readable error (op `error`; also a hint on `busy`).
    #[serde(default)]
    pub error: String,
    /// The tenant's metrics report (op `metrics`).
    #[serde(default)]
    pub metrics: Option<MetricsReport>,
}

impl Default for Response {
    fn default() -> Self {
        Response {
            v: PROTOCOL_VERSION,
            op: String::new(),
            tenant: String::new(),
            chip: 0,
            detected: false,
            injected: None,
            functions: Vec::new(),
            rankings: Vec::new(),
            error: String::new(),
            metrics: None,
        }
    }
}

impl Response {
    fn kind(op: &str) -> Response {
        Response {
            op: op.into(),
            ..Response::default()
        }
    }

    fn error(message: impl Into<String>) -> Response {
        Response {
            op: "error".into(),
            error: message.into(),
            ..Response::default()
        }
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port.
    pub addr: String,
    /// Dictionary-store directory shared by every tenant (in-memory
    /// cache only when `None`).
    pub store_dir: Option<PathBuf>,
    /// Bounded admission-queue capacity; a full queue answers `busy`.
    pub queue_capacity: usize,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Where to write the per-tenant [`MetricsExport`] on shutdown.
    pub metrics_json: Option<PathBuf>,
    /// Per-connection idle read timeout. A client that holds a
    /// connection open without sending a complete line for this long is
    /// answered with a structured `error` response and disconnected, so
    /// a stalled (or malicious slow-loris) client cannot pin its reader
    /// thread forever. `None` disables the timeout.
    pub idle_timeout: Option<Duration>,
}

/// Default per-connection idle read timeout (see
/// [`ServerConfig::idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: None,
            queue_capacity: 64,
            workers: 4,
            metrics_json: None,
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
        }
    }
}

struct TenantSessions {
    layer: ArtifactLayer,
    sessions: Mutex<HashMap<String, Arc<DiagnosisSession>>>,
}

impl TenantSessions {
    /// Get-or-create the tenant's session. A tenant is pinned to the
    /// kernel (and screen top-K) named at first use; naming a different
    /// one later is a request error (open another tenant instead).
    fn session(
        &self,
        tenant: &str,
        kernel: Option<SimKernel>,
        top_k: Option<usize>,
    ) -> Result<Arc<DiagnosisSession>, String> {
        let mut sessions = self.sessions.lock().expect("session map poisoned");
        if let Some(existing) = sessions.get(tenant) {
            if kernel.is_some() && existing.kernel() != kernel {
                return Err(format!(
                    "tenant {tenant:?} is pinned to kernel {:?}; open a new tenant for {:?}",
                    existing.kernel(),
                    kernel
                ));
            }
            if top_k.is_some() && existing.screen_top_k() != top_k {
                return Err(format!(
                    "tenant {tenant:?} is pinned to top_k {:?}; open a new tenant for {:?}",
                    existing.screen_top_k(),
                    top_k
                ));
            }
            return Ok(Arc::clone(existing));
        }
        let mut session = self.layer.session(tenant);
        if let Some(kernel) = kernel {
            session = session.with_kernel(kernel);
        }
        if let Some(top_k) = top_k {
            session = session.with_screen_top_k(top_k);
        }
        let session = Arc::new(session);
        sessions.insert(tenant.to_string(), Arc::clone(&session));
        Ok(session)
    }

    /// One report per tenant, sorted by tenant id (deterministic export
    /// order).
    fn reports(&self) -> Vec<MetricsReport> {
        let sessions = self.sessions.lock().expect("session map poisoned");
        let mut tenants: Vec<&String> = sessions.keys().collect();
        tenants.sort();
        tenants
            .into_iter()
            .map(|t| sessions[t].metrics_report())
            .collect()
    }
}

struct ServerState {
    tenants: TenantSessions,
    queue: SyncSender<Job>,
    shutting_down: AtomicBool,
    idle_timeout: Option<Duration>,
}

enum Job {
    Submit {
        request: Box<Request>,
        writer: SharedWriter,
    },
    Poison,
}

type SharedWriter = Arc<Mutex<TcpStream>>;

fn write_response(writer: &SharedWriter, response: &Response) {
    let line = serde_json::to_string(response).expect("response serializes");
    let mut stream = writer.lock().expect("writer poisoned");
    // A vanished client is not a server error; drop the response.
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

fn parse_kernel(name: &str) -> Result<Option<SimKernel>, String> {
    match name.to_ascii_lowercase().as_str() {
        "" => Ok(None),
        "batched" => Ok(Some(SimKernel::Batched)),
        "analytic" => Ok(Some(SimKernel::Analytic)),
        "screened" => Ok(Some(SimKernel::Screened)),
        other => Err(format!(
            "unknown kernel {other:?} (expected batched, analytic or screened)"
        )),
    }
}

/// The Section I campaign environment for a profile + configuration,
/// recomputed per submit (cheap and deterministic — the expensive
/// artifacts live in the shared layer).
struct CampaignEnv {
    circuit: sdd_netlist::Circuit,
    timing: CircuitTiming,
    model: SingleDefectModel,
}

fn campaign_env(profile_name: &str, config: &CampaignConfig) -> Result<CampaignEnv, String> {
    let profile = profiles::by_name(profile_name)
        .ok_or_else(|| format!("unknown circuit profile {profile_name:?}"))?;
    let circuit = sdd_netlist::generator::generate(&profile.to_config(config.seed))
        .map_err(|e| format!("circuit generation: {e}"))?
        .to_combinational()
        .map_err(|e| format!("scan cut: {e}"))?;
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, config.variation);
    let model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
    Ok(CampaignEnv {
        circuit,
        timing,
        model,
    })
}

/// The campaign's circuit-level clock under
/// [`ClockPolicy::CircuitQuantile`] (a `sta_samples`-sized static
/// Monte-Carlo run), `None` under the other policies. Only chip submits
/// need it: a behaviour submit carries its own `clk`.
fn circuit_clk(env: &CampaignEnv, config: &CampaignConfig) -> Result<Option<f64>, String> {
    match config.clock {
        ClockPolicy::CircuitQuantile(q) => Ok(Some(
            sta::static_mc(&env.circuit, &env.timing, config.sta_samples, config.seed)
                .map_err(|e| format!("static timing: {e}"))?
                .clock_at_quantile(q),
        )),
        ClockPolicy::TestedQuantile(_) | ClockPolicy::Sweep => Ok(None),
    }
}

fn function_names() -> Vec<String> {
    ErrorFunction::EXTENDED
        .into_iter()
        .map(|f| f.name().to_string())
        .collect()
}

fn handle_submit(state: &ServerState, request: Request, writer: &SharedWriter) {
    let tenant = request.tenant.clone();
    let kernel = match parse_kernel(&request.kernel) {
        Ok(k) => k,
        Err(e) => {
            let mut r = Response::error(e);
            r.tenant = tenant;
            return write_response(writer, &r);
        }
    };
    let session = match state.tenants.session(&tenant, kernel, request.top_k) {
        Ok(s) => s,
        Err(e) => {
            let mut r = Response::error(e);
            r.tenant = tenant;
            return write_response(writer, &r);
        }
    };
    let config = request
        .config
        .clone()
        .unwrap_or_else(|| CampaignConfig::quick(1));
    // The session's overrides decide what actually runs; derive the
    // campaign environment from the same effective configuration so the
    // served outcomes are bit-identical to an in-process run.
    let config = session.effective_config(&config);

    if let Some(behavior) = &request.behavior {
        let outcome = diagnose_wire_behavior(&session, &request.circuit, &config, behavior);
        let mut r = match outcome {
            Ok(rankings) => {
                let mut r = Response::kind("outcome");
                r.detected = !rankings.is_empty();
                r.functions = function_names();
                r.rankings = rankings;
                r
            }
            Err(e) => Response::error(e),
        };
        r.tenant = tenant.clone();
        write_response(writer, &r);
    } else if !request.chips.is_empty() {
        let env = campaign_env(&request.circuit, &config)
            .and_then(|env| Ok((circuit_clk(&env, &config)?, env)));
        let (clk, env) = match env {
            Ok(pair) => pair,
            Err(e) => {
                let mut r = Response::error(e);
                r.tenant = tenant;
                return write_response(writer, &r);
            }
        };
        for &chip in &request.chips {
            let outcome = session.diagnose_instance(
                &env.circuit,
                &env.timing,
                &env.model,
                clk,
                &config,
                chip as usize,
            );
            let mut r = Response::kind("outcome");
            r.tenant = tenant.clone();
            r.chip = chip;
            if let Some(o) = outcome {
                r.detected = !o.rankings.is_empty();
                r.injected = Some(o.injected.index() as u64);
                r.functions = function_names();
                r.rankings = o.rankings;
            }
            write_response(writer, &r);
        }
    } else {
        let mut r = Response::error("submit carries neither chips nor behavior");
        r.tenant = tenant;
        return write_response(writer, &r);
    }
    let mut done = Response::kind("done");
    done.tenant = tenant;
    write_response(writer, &done);
}

fn diagnose_wire_behavior(
    session: &DiagnosisSession,
    circuit_name: &str,
    config: &CampaignConfig,
    wire: &WireBehavior,
) -> Result<Vec<Vec<RankedSite>>, String> {
    let env = campaign_env(circuit_name, config)?;
    let n_in = env.circuit.primary_inputs().len();
    let n_out = env.circuit.primary_outputs().len();
    if wire.patterns.is_empty() {
        return Err("behavior carries no patterns".into());
    }
    let mut patterns = sdd_atpg::PatternSet::new();
    for (j, p) in wire.patterns.iter().enumerate() {
        if p.v1.len() != n_in || p.v2.len() != n_in {
            return Err(format!(
                "pattern {j} has width {}/{} but the circuit has {n_in} inputs",
                p.v1.len(),
                p.v2.len()
            ));
        }
        patterns.push(sdd_atpg::TestPattern::new(p.v1.clone(), p.v2.clone()));
    }
    if wire.fails.len() != n_out {
        return Err(format!(
            "fails has {} rows but the circuit has {n_out} outputs",
            wire.fails.len()
        ));
    }
    let n_patterns = patterns.len();
    let mut bits = sdd_atpg::dictionary::BitMatrix::zeros(n_out, n_patterns);
    for (i, row) in wire.fails.iter().enumerate() {
        if row.len() != n_patterns {
            return Err(format!(
                "fails row {i} has {} columns but {n_patterns} (deduplicated) patterns were given",
                row.len()
            ));
        }
        for (j, &fail) in row.iter().enumerate() {
            if fail {
                bits.set(i, j, true);
            }
        }
    }
    if !wire.clk.is_finite() || wire.clk <= 0.0 {
        return Err(format!("clk {} is not a positive finite period", wire.clk));
    }
    let behavior = BehaviorMatrix::from_bits(bits, wire.clk);
    match session.diagnose_behavior(
        &env.circuit,
        &env.timing,
        &patterns,
        &env.model.size_dist(),
        &behavior,
    ) {
        Ok(rankings) => Ok(rankings),
        // An unexplainable behaviour is a negative answer, not a
        // protocol error: report it as an undetected outcome.
        Err(sdd_core::DiagnosisError::NoSuspects) => Ok(Vec::new()),
        Err(e) => Err(format!("diagnosis: {e}")),
    }
}

enum LineRead {
    Line(Vec<u8>),
    Overflow,
    Eof,
}

/// Reads one `\n`-terminated line, enforcing [`MAX_LINE_BYTES`]. An
/// over-long line is drained to its newline (so the connection stays
/// usable) and reported as [`LineRead::Overflow`].
fn read_line_capped(reader: &mut impl BufRead) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if overflowed {
                LineRead::Overflow
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(buf)
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflowed && buf.len() + pos <= MAX_LINE_BYTES {
                    buf.extend_from_slice(&chunk[..pos]);
                    reader.consume(pos + 1);
                    return Ok(LineRead::Line(buf));
                }
                reader.consume(pos + 1);
                return Ok(LineRead::Overflow);
            }
            None => {
                let n = chunk.len();
                if !overflowed {
                    if buf.len() + n > MAX_LINE_BYTES {
                        overflowed = true;
                        buf.clear();
                    } else {
                        buf.extend_from_slice(chunk);
                    }
                }
                reader.consume(n);
            }
        }
    }
}

fn handle_connection(state: Arc<ServerState>, stream: TcpStream) {
    // The accept loop only makes the *listener* nonblocking; each
    // accepted stream reverts to blocking reads, so without a deadline a
    // silent client would pin this reader thread forever.
    if let Some(timeout) = state.idle_timeout {
        if stream.set_read_timeout(Some(timeout)).is_err() {
            return;
        }
    }
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_capped(&mut reader) {
            Ok(LineRead::Line(line)) => line,
            Ok(LineRead::Overflow) => {
                write_response(
                    &writer,
                    &Response::error(format!(
                        "request exceeds {MAX_LINE_BYTES} bytes; line dropped"
                    )),
                );
                continue;
            }
            // A read deadline expiring surfaces as WouldBlock (unix) or
            // TimedOut (windows): tell the client why, then hang up.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let secs = state
                    .idle_timeout
                    .map(|t| t.as_secs_f64())
                    .unwrap_or_default();
                write_response(
                    &writer,
                    &Response::error(format!(
                        "idle timeout: no request received for {secs:.1}s; disconnecting"
                    )),
                );
                return;
            }
            Ok(LineRead::Eof) | Err(_) => return,
        };
        if line.iter().all(|b| b.is_ascii_whitespace()) {
            continue;
        }
        let text = match String::from_utf8(line) {
            Ok(t) => t,
            Err(_) => {
                write_response(&writer, &Response::error("request is not valid UTF-8"));
                continue;
            }
        };
        let request: Request = match serde_json::from_str(&text) {
            Ok(r) => r,
            Err(e) => {
                write_response(&writer, &Response::error(format!("malformed request: {e}")));
                continue;
            }
        };
        if request.v != 0 && request.v != PROTOCOL_VERSION {
            write_response(
                &writer,
                &Response::error(format!(
                    "protocol version {} unsupported (server speaks {PROTOCOL_VERSION})",
                    request.v
                )),
            );
            continue;
        }
        match request.op.as_str() {
            "ping" => {
                let mut r = Response::kind("pong");
                r.tenant = request.tenant;
                write_response(&writer, &r);
            }
            "metrics" => {
                let sessions = state.tenants.sessions.lock().expect("session map poisoned");
                let mut r = match sessions.get(&request.tenant) {
                    Some(session) => {
                        let mut r = Response::kind("metrics");
                        r.metrics = Some(session.metrics_report());
                        r
                    }
                    None => Response::error(format!("unknown tenant {:?}", request.tenant)),
                };
                drop(sessions);
                r.tenant = request.tenant;
                write_response(&writer, &r);
            }
            "submit" => {
                if state.shutting_down.load(Ordering::SeqCst) {
                    let mut r = Response::kind("busy");
                    r.error = "server is shutting down".into();
                    r.tenant = request.tenant;
                    write_response(&writer, &r);
                    continue;
                }
                let tenant = request.tenant.clone();
                match state.queue.try_send(Job::Submit {
                    request: Box::new(request),
                    writer: Arc::clone(&writer),
                }) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        let mut r = Response::kind("busy");
                        r.error = "admission queue full; retry later".into();
                        r.tenant = tenant;
                        write_response(&writer, &r);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        let mut r = Response::kind("busy");
                        r.error = "server is shutting down".into();
                        r.tenant = tenant;
                        write_response(&writer, &r);
                    }
                }
            }
            "shutdown" => {
                state.shutting_down.store(true, Ordering::SeqCst);
                let mut r = Response::kind("bye");
                r.tenant = request.tenant;
                write_response(&writer, &r);
            }
            other => {
                write_response(&writer, &Response::error(format!("unknown op {other:?}")));
            }
        }
    }
}

/// A running diagnosis server. Bind with [`Server::bind`], then drive
/// with [`Server::run`] (blocks until a `shutdown` request completes).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    layer: ArtifactLayer,
    queue_capacity: usize,
    workers: usize,
    metrics_json: Option<PathBuf>,
    idle_timeout: Option<Duration>,
}

impl Server {
    /// Binds the listen socket and opens the artifact layer (and its
    /// store, when configured).
    ///
    /// # Errors
    ///
    /// Socket or store-directory failures.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut layer = ArtifactLayer::builder();
        if let Some(dir) = &config.store_dir {
            layer = layer.store_dir(dir);
        }
        let layer = layer.build().map_err(io::Error::other)?;
        Ok(Server {
            listener,
            addr,
            layer,
            queue_capacity: config.queue_capacity.max(1),
            workers: config.workers.max(1),
            metrics_json: config.metrics_json,
            idle_timeout: config.idle_timeout,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's shared artifact layer (open extra in-process
    /// sessions over the same pool, e.g. for differential tests).
    pub fn layer(&self) -> &ArtifactLayer {
        &self.layer
    }

    /// Serves until a `shutdown` request arrives, then drains the
    /// admission queue, joins the workers, syncs the store and writes
    /// the per-tenant metrics export. Returns the export.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failures and metrics-export write failures.
    pub fn run(self) -> io::Result<MetricsExport> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(self.queue_capacity);
        let state = Arc::new(ServerState {
            tenants: TenantSessions {
                layer: self.layer.clone(),
                sessions: Mutex::new(HashMap::new()),
            },
            queue: tx.clone(),
            shutting_down: AtomicBool::new(false),
            idle_timeout: self.idle_timeout,
        });
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(state, rx))
            })
            .collect();

        self.listener.set_nonblocking(true)?;
        while !state.shutting_down.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || handle_connection(state, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }

        // Drain: poison pills queue *behind* every admitted job, so each
        // worker finishes real work before exiting.
        for _ in 0..workers.len() {
            let _ = tx.send(Job::Poison);
        }
        for worker in workers {
            let _ = worker.join();
        }
        self.layer.sync_store();
        let export = MetricsExport::new(state.tenants.reports());
        if let Some(path) = &self.metrics_json {
            let json = serde_json::to_string(&export).expect("export serializes");
            std::fs::write(path, json)?;
        }
        Ok(export)
    }
}

fn worker_loop(state: Arc<ServerState>, rx: Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let rx = rx.lock().expect("job queue poisoned");
            rx.recv()
        };
        match job {
            Ok(Job::Submit { request, writer }) => handle_submit(&state, *request, &writer),
            Ok(Job::Poison) | Err(_) => return,
        }
    }
}

/// A blocking JSON-lines client for [`Server`] (used by the example
/// client, the CI drive and the protocol tests).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connects, retrying until `timeout` elapses — for drivers that
    /// race a just-spawned server process.
    ///
    /// # Errors
    ///
    /// The last connection failure once the deadline passes.
    pub fn connect_with_retry(addr: &str, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let line = serde_json::to_string(request).expect("request serializes");
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// Sends a raw line verbatim (protocol tests).
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// Receives one response line; `None` on clean EOF.
    ///
    /// # Errors
    ///
    /// Socket failures or an unparseable response line.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        serde_json::from_str(&line)
            .map(Some)
            .map_err(|e| io::Error::other(format!("bad response line: {e}")))
    }

    /// [`send`](Self::send) + one [`recv`](Self::recv), erroring on EOF.
    ///
    /// # Errors
    ///
    /// Socket failures, an unparseable response, or EOF.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()?
            .ok_or_else(|| io::Error::other("server closed the connection"))
    }

    /// Collects the streamed responses of one `submit`: every `outcome`
    /// until the matching `done` (a `busy` or `error` response is
    /// returned alone).
    ///
    /// # Errors
    ///
    /// Socket failures, an unparseable response, or EOF mid-stream.
    pub fn submit(&mut self, request: &Request) -> io::Result<Vec<Response>> {
        self.send(request)?;
        let mut out = Vec::new();
        loop {
            let Some(response) = self.recv()? else {
                return Err(io::Error::other("server closed mid-stream"));
            };
            match response.op.as_str() {
                "done" => return Ok(out),
                "busy" | "error" => {
                    out.push(response);
                    return Ok(out);
                }
                _ => out.push(response),
            }
        }
    }
}
