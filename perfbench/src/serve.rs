//! `serve_stream`: a closed loop of behaviour submissions against
//! `sdd-server --workers 2`, started as a child process.
//!
//! Set-up builds a fixed lot of behaviours on s1423 with the campaign's
//! own steps: ATPG site patterns through `DictionaryCache::patterns_for_site`,
//! sampled chips with an injected defect at the site, and sweep-clock
//! observation. Several chips share each site.
//!
//! One pass boots a fresh server (so every pass meets the same cache
//! misses), opens two client connections — tenant `mc` pinned to the
//! batched kernel, tenant `screen` to the screened kernel — and each
//! submits the whole lot, sending the next request only after the
//! previous answer arrived. The sites arrive in an order drawn from the
//! seed and the pass number; after each site comes a retest of the first
//! behaviour of the site before it, so the dictionary cache sees misses
//! and hits. The pass then reads the server's peak RSS, shuts it down and
//! requires a clean exit with one metrics report per tenant. Passes
//! repeat until `--seconds` have passed; throughput comes from the
//! fastest pass and latency from each request's fastest round trip.

use crate::trace::Tracer;
use crate::{stats, sys, Args, Report};
use sdd_atpg::PatternSet;
use sdd_core::defect::InjectedDefect;
use sdd_core::diagnoser::RankedSite;
use sdd_core::inject::{tested_delay_samples, AtpgConfig, CampaignConfig, SWEEP_QUANTILES};
use sdd_core::metrics::{CampaignMetrics, MetricsExport};
use sdd_core::session::ArtifactLayer;
use sdd_core::{
    BehaviorMatrix, DictionaryCache, ErrorFunction, ObservedBehavior, SimKernel, SingleDefectModel,
};
use sdd_netlist::generator::generate;
use sdd_netlist::profiles::{self, BenchmarkProfile};
use sdd_netlist::{Circuit, EdgeId};
use sdd_server::{Client, Request, WireBehavior, WirePattern};
use sdd_timing::{CellLibrary, CircuitTiming, Samples, TimingInstance};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CIRCUIT: &str = "s1423";
/// Seeds the lot: the netlist, sites and chips every run serves.
const LOT_SEED: u64 = 2;
const SITES: usize = 8;
const CHIPS_PER_SITE: usize = 3;
const SETUP_REPEATS: usize = 3;
/// Enough that a run answers well over 100 requests.
const MIN_PASSES: usize = 4;
/// (tenant, kernel) of the two client connections.
const TENANTS: [(&str, &str); 2] = [("mc", "batched"), ("screen", "screened")];
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);
const LISTENING: &str = "sdd-server listening on ";

/// One behaviour of the lot.
#[derive(Debug, Clone, Serialize)]
pub struct Item {
    /// The arc carrying the injected defect.
    pub site: u64,
    pub behavior: WireBehavior,
}

/// The fixed lot every pass submits, plus what the in-process check
/// needs. Items are site-major: `chips_per_site` items per site.
pub struct Lot {
    pub config: CampaignConfig,
    pub items: Vec<Item>,
    pub chips_per_site: usize,
    circuit: Circuit,
    timing: CircuitTiming,
    model: SingleDefectModel,
    /// Patterns and behaviour of item 0.
    first: (PatternSet, BehaviorMatrix),
}

impl Lot {
    /// The lot as bytes: equal bytes mean identical requests.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(&(&self.config, &self.items))
            .expect("lot serializes")
            .into_bytes()
    }
}

/// One submission of a pass: a lot item, first time or as a retest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    pub item: usize,
    pub retest: bool,
}

/// The submissions of one pass. Sites arrive in an order drawn from
/// `seed`; after each site comes a retest of the first item of the site
/// before it, and the last site's first item closes the pass. Every
/// pass submits the same items and retests, only in another order.
pub fn pass_order(n_sites: usize, chips_per_site: usize, seed: u64) -> Vec<Submission> {
    let mut order = Vec::new();
    let mut previous: Option<usize> = None;
    for site in stats::permutation(n_sites, seed) {
        let first = site * chips_per_site;
        order.extend((first..first + chips_per_site).map(|item| Submission {
            item,
            retest: false,
        }));
        if let Some(item) = previous {
            order.push(Submission { item, retest: true });
        }
        previous = Some(first);
    }
    order.extend(previous.map(|item| Submission { item, retest: true }));
    order
}

/// Builds `sites × chips_per_site` behaviours on `profile` from `seed`.
pub fn build_lot(
    profile: &BenchmarkProfile,
    seed: u64,
    sites: usize,
    chips_per_site: usize,
    tracer: &Tracer,
    parent: Option<usize>,
) -> Result<Lot, String> {
    let config = CampaignConfig::paper(seed);
    let circuit = tracer.span("netlist.generate", parent, 0, |_| {
        generate(&profile.to_config(seed))
            .map_err(|e| format!("generate: {e}"))?
            .to_combinational()
            .map_err(|e| format!("scan cut: {e}"))
    })?;
    let library = CellLibrary::default_025um();
    let timing = tracer.span("timing.characterize", parent, 0, |_| {
        CircuitTiming::characterize(&circuit, &library, config.variation)
    });
    let model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
    let cache = DictionaryCache::new();
    let atpg = AtpgConfig::from_campaign(&config);
    let n_delay_samples = config.sta_samples.min(150);

    let mut items: Vec<Item> = Vec::new();
    let mut used: Vec<EdgeId> = Vec::new();
    let mut first = None;
    for draw in 0..(sites * 40) as u64 {
        if used.len() == sites {
            break;
        }
        let site = model
            .sample_defect(&circuit, seed.wrapping_add(1 + draw * 7919))
            .edge;
        if used.contains(&site) {
            continue;
        }
        // The campaign's per-site pattern seed.
        let site_seed = seed
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(site.index() as u64);
        let patterns = tracer.span("atpg.patterns_for_site", parent, 0, |_| {
            cache.patterns_for_site(&circuit, &timing, site, &atpg, site_seed, None)
        });
        if patterns.is_empty() {
            continue;
        }
        let delays = tracer.span("observe.tested_delay_samples", parent, 0, |_| {
            tested_delay_samples(&circuit, &timing, &patterns, n_delay_samples, seed)
        });
        let mut behaviors = Vec::new();
        for chip_ix in 0..(chips_per_site * 4) as u64 {
            if behaviors.len() == chips_per_site {
                break;
            }
            let key = draw * 1000 + chip_ix;
            let chip = timing.sample_instance_indexed(seed ^ 0xC41F, key);
            let delta = model
                .sample_defect(&circuit, seed ^ key.wrapping_mul(0x2545_F491))
                .delta;
            let failing = InjectedDefect { edge: site, delta }.apply(&chip);
            let observed = tracer.span("observe.sweep", parent, 0, |_| {
                sweep(&circuit, &patterns, &failing, &delays, &config)
            });
            behaviors.extend(observed);
        }
        if behaviors.len() < chips_per_site {
            continue;
        }
        if first.is_none() {
            first = Some(((*patterns).clone(), behaviors[0].clone()));
        }
        items.extend(behaviors.iter().map(|b| Item {
            site: site.index() as u64,
            behavior: to_wire(&patterns, b),
        }));
        used.push(site);
    }
    let Some(first) = first.filter(|_| used.len() == sites) else {
        return Err(format!(
            "found only {} of {sites} sites with {chips_per_site} observable chips",
            used.len()
        ));
    };
    Ok(Lot {
        config,
        items,
        chips_per_site,
        circuit,
        timing,
        model,
        first,
    })
}

/// The campaign's batched sweep-clock observation: tighten along the
/// tested-delay quantile ladder until the chip fails, then go
/// `sweep_extra_steps` further.
fn sweep(
    circuit: &Circuit,
    patterns: &PatternSet,
    failing_chip: &TimingInstance,
    delays: &Samples,
    config: &CampaignConfig,
) -> Option<BehaviorMatrix> {
    let observed = ObservedBehavior::capture(circuit, patterns, failing_chip, config.capture);
    let level = SWEEP_QUANTILES
        .iter()
        .position(|&q| !observed.matrix_at(delays.quantile(q)).all_pass())?;
    let level = (level + config.sweep_extra_steps).min(SWEEP_QUANTILES.len() - 1);
    Some(observed.matrix_at(delays.quantile(SWEEP_QUANTILES[level])))
}

fn to_wire(patterns: &PatternSet, b: &BehaviorMatrix) -> WireBehavior {
    WireBehavior {
        patterns: patterns
            .iter()
            .map(|p| WirePattern {
                v1: p.v1.clone(),
                v2: p.v2.clone(),
            })
            .collect(),
        fails: (0..b.num_outputs())
            .map(|i| (0..b.num_patterns()).map(|j| b.fails(i, j)).collect())
            .collect(),
        clk: b.clk(),
    }
}

type Answer = Option<Vec<Vec<RankedSite>>>;

/// What one tenant connection saw in one pass, in submission order.
struct TenantPass {
    /// The answered submissions with their round trips in milliseconds.
    answered: Vec<(Submission, f64)>,
    answers: Vec<Answer>,
    errors: Vec<String>,
    span_ids: Vec<Option<usize>>,
}

/// What one pass measured.
struct Pass {
    order: Vec<Submission>,
    loop_s: f64,
    tenants: Vec<TenantPass>,
    server_rss_mb: Option<f64>,
    /// Per-tenant server counters from the shutdown export.
    server: Vec<CampaignMetrics>,
}

impl TenantPass {
    fn round_trips_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.answered.iter().map(|&(_, ms)| ms)
    }
}

impl Pass {
    /// Tenant `t`'s first answer for each lot item.
    fn first_answers(&self, t: usize, n_items: usize) -> Vec<Answer> {
        let mut out = vec![None; n_items];
        for (s, a) in self.order.iter().zip(&self.tenants[t].answers) {
            if !s.retest {
                out[s.item] = a.clone();
            }
        }
        out
    }
}

pub fn run(args: &Args, tracer: &Tracer, scratch: &sys::Scratch) -> Report {
    let mut report = Report::default();
    let profile = profiles::by_name(CIRCUIT).expect("s1423 profile exists");
    let mut setup_s = Vec::new();
    let mut lots = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let built = tracer.span("bench.setup", None, 0, |id| {
            build_lot(&profile, LOT_SEED, SITES, CHIPS_PER_SITE, tracer, id)
        });
        setup_s.push(t.elapsed().as_secs_f64());
        match built {
            Ok(lot) => lots.push(lot),
            Err(e) => {
                report.op(Err(format!("building the lot: {e}")));
                return report;
            }
        }
    }
    let lot = lots.pop().expect("lot built");
    let bytes = lot.to_bytes();
    for other in &lots {
        report.check(other.to_bytes() == bytes, || {
            "one seed built two different lots".into()
        });
    }
    drop(lots);
    // One request per (tenant, lot item).
    let requests: Vec<Vec<Request>> = TENANTS
        .iter()
        .map(|&(tenant, kernel)| {
            lot.items
                .iter()
                .map(|item| {
                    let mut r = Request::new("submit");
                    r.tenant = tenant.into();
                    r.kernel = kernel.into();
                    r.circuit = CIRCUIT.into();
                    r.config = Some(lot.config.clone());
                    r.behavior = Some(item.behavior.clone());
                    r
                })
                .collect()
        })
        .collect();

    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    while passes.len() < MIN_PASSES
        || Instant::now() + start.elapsed() / (passes.len() as u32 * 2) < deadline
    {
        let pass_ix = passes.len();
        let order = pass_order(
            SITES,
            lot.chips_per_site,
            stats::mix(args.seed, pass_ix as u64),
        );
        match run_pass(
            args,
            tracer,
            scratch,
            &requests,
            order,
            pass_ix,
            &mut report,
        ) {
            Ok(p) => passes.push(p),
            Err(e) => {
                report.op(Err(format!("pass {pass_ix}: {e}")));
                break;
            }
        }
    }
    if passes.is_empty() {
        return report;
    }
    check_answers(&mut report, &lot, &passes);

    // For the reason `stats::best` gives, throughput comes from the
    // fastest pass and latency from each request's fastest round trip:
    // every pass submits the same requests (tenant, item, retest).
    let fastest = passes
        .iter()
        .min_by(|a, b| a.loop_s.total_cmp(&b.loop_s))
        .expect("at least one pass");
    let answered: usize = fastest.tenants.iter().map(|t| t.answered.len()).sum();
    let mut best_ms: BTreeMap<(usize, usize, bool), f64> = BTreeMap::new();
    for p in &passes {
        for (t, tenant) in p.tenants.iter().enumerate() {
            for &(s, ms) in &tenant.answered {
                best_ms
                    .entry((t, s.item, s.retest))
                    .and_modify(|best| *best = best.min(ms))
                    .or_insert(ms);
            }
        }
    }
    let latencies: Vec<f64> = best_ms.values().copied().collect();
    let retest_ms: Vec<f64> = best_ms
        .iter()
        .filter(|((_, _, retest), _)| *retest)
        .map(|(_, &ms)| ms)
        .collect();
    let alg_rev = ErrorFunction::EXTENDED
        .iter()
        .position(|&f| f == ErrorFunction::Euclidean)
        .expect("Alg_rev is ranked");
    let first = &passes[0];
    let mut top3 = 0u64;
    let mut submitted = 0u64;
    for t in &first.tenants {
        for (s, answer) in first.order.iter().zip(&t.answers) {
            submitted += 1;
            let injected = lot.items[s.item].site;
            let hit = answer
                .as_ref()
                .and_then(|a| a.get(alg_rev))
                .is_some_and(|r| r.iter().take(3).any(|x| x.edge.index() as u64 == injected));
            top3 += u64::from(hit);
        }
    }
    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", stats::median(&setup_s));
    let rss: Vec<f64> = passes.iter().filter_map(|p| p.server_rss_mb).collect();
    e2e.insert("peak_rss_mb", stats::median(&rss));
    e2e.insert("ops_per_s", answered as f64 / fastest.loop_s);
    // Retests meet a warm dictionary cache: answered per second of their
    // own round trips.
    e2e.insert(
        "warm_ops_per_s",
        1e3 * retest_ms.len() as f64 / retest_ms.iter().sum::<f64>(),
    );
    e2e.insert("latency_p50_ms", stats::percentile(&latencies, 50.0));
    e2e.insert("latency_p90_ms", stats::percentile(&latencies, 90.0));
    e2e.insert("accuracy_pct", 100.0 * stats::ratio(top3, submitted));

    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    use stats::secs;
    let sum = |p: &Pass, f: fn(&CampaignMetrics) -> u64| p.server.iter().map(f).sum::<u64>();
    let hit_ratio = |m: &CampaignMetrics| {
        stats::ratio(m.dict_cache_hits, m.dict_cache_hits + m.dict_cache_misses)
    };
    let layer = &mut report.per_layer;
    layer.insert(
        "dictionary.cpu_s",
        per_pass(&|p| secs(sum(p, |m| m.dictionary_nanos))),
    );
    layer.insert(
        "dictionary.kernel_cpu_s",
        per_pass(&|p| secs(sum(p, |m| m.kernel_nanos))),
    );
    layer.insert(
        "dictionary.cone_evals",
        per_pass(&|p| sum(p, |m| m.cone_evals) as f64),
    );
    layer.insert(
        "dictionary.screen_cpu_s",
        per_pass(&|p| secs(p.server[1].screen_nanos)),
    );
    layer.insert(
        "dictionary.survivor_ratio",
        per_pass(&|p| stats::ratio(p.server[1].suspects_refined, p.server[1].suspects_screened)),
    );
    layer.insert("rank.cpu_s", per_pass(&|p| secs(sum(p, |m| m.rank_nanos))));
    layer.insert(
        "cache.dict_hit_ratio",
        per_pass(&|p| {
            let hits = sum(p, |m| m.dict_cache_hits);
            stats::ratio(hits, hits + sum(p, |m| m.dict_cache_misses))
        }),
    );
    layer.insert(
        "cache.dict_hit_ratio.mc",
        per_pass(&|p| hit_ratio(&p.server[0])),
    );
    layer.insert(
        "cache.dict_hit_ratio.screen",
        per_pass(&|p| hit_ratio(&p.server[1])),
    );
    layer.insert(
        "serve.overhead_ms.mc",
        per_pass(&|p| overhead_ms(&p.tenants[0], &p.server[0])),
    );
    layer.insert(
        "serve.overhead_ms.screen",
        per_pass(&|p| overhead_ms(&p.tenants[1], &p.server[1])),
    );
    report
}

/// Mean client round trip minus the server's own session latency, per
/// request: JSON, TCP, queueing and the server's per-submit circuit
/// rebuild.
fn overhead_ms(t: &TenantPass, server: &CampaignMetrics) -> f64 {
    let client_ms: f64 = t.round_trips_ms().sum();
    let session_ms = server.session_latency.sum as f64 / 1e6;
    (client_ms - session_ms) / t.answered.len().max(1) as f64
}

/// Retests must match their first answer, every pass must answer every
/// item as the first pass did, and the first `mc` answer for item 0 must
/// equal an in-process session's.
fn check_answers(report: &mut Report, lot: &Lot, passes: &[Pass]) {
    let n = lot.items.len();
    let reference: Vec<Vec<Answer>> = (0..TENANTS.len())
        .map(|t| passes[0].first_answers(t, n))
        .collect();
    for (k, pass) in passes.iter().enumerate() {
        for (t, (tenant, _)) in TENANTS.iter().enumerate() {
            let firsts = pass.first_answers(t, n);
            for (s, answer) in pass.order.iter().zip(&pass.tenants[t].answers) {
                if s.retest {
                    report.check(answer.is_some() && *answer == firsts[s.item], || {
                        format!(
                            "tenant {tenant}: pass {k}: retest of item {} ranked differently",
                            s.item
                        )
                    });
                }
            }
            if k > 0 {
                report.check(firsts == reference[t], || {
                    format!("tenant {tenant}: pass {k} answered differently from pass 0")
                });
            }
        }
    }
    let session = ArtifactLayer::new()
        .session("in-process")
        .with_kernel(SimKernel::Batched);
    let (patterns, behavior) = &lot.first;
    let expected = match session.diagnose_behavior(
        &lot.circuit,
        &lot.timing,
        patterns,
        &lot.model.size_dist(),
        behavior,
    ) {
        Ok(r) => Some(r),
        Err(sdd_core::DiagnosisError::NoSuspects) => Some(Vec::new()),
        Err(_) => None,
    };
    report.check(expected.is_some() && reference[0][0] == expected, || {
        "served mc answer for item 0 differs from in-process diagnose_behavior".into()
    });
}

fn run_pass(
    args: &Args,
    tracer: &Tracer,
    scratch: &sys::Scratch,
    requests: &[Vec<Request>],
    order: Vec<Submission>,
    pass_ix: usize,
    report: &mut Report,
) -> Result<Pass, String> {
    let dir = scratch.fresh_dir("server");
    let (mut server, addr) = tracer.span("bench.lifecycle", None, 0, |id| {
        tracer.span("serve.boot", id, 0, |_| {
            ServerChild::spawn(&args.server_bin, &dir)
        })
    })?;
    let mut clients = Vec::new();
    for _ in TENANTS {
        clients.push(
            Client::connect_with_retry(&addr, BOOT_TIMEOUT)
                .map_err(|e| format!("connecting to {addr}: {e}"))?,
        );
    }
    let barrier = Barrier::new(TENANTS.len() + 1);
    let (tenants, loop_s) = tracer.span("bench.pass", None, 0, |pass_span| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(t, client)| {
                    let barrier = &barrier;
                    let sequence: Vec<(&Request, Submission)> =
                        order.iter().map(|&s| (&requests[t][s.item], s)).collect();
                    scope.spawn(move || {
                        barrier.wait();
                        closed_loop(tracer, pass_span, pass_ix, t, client, &sequence)
                    })
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            let tenants: Vec<(Client, TenantPass)> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (tenants, t0.elapsed().as_secs_f64())
        })
    });
    let (mut clients, tenants): (Vec<Client>, Vec<TenantPass>) = tenants.into_iter().unzip();
    for (t, tp) in tenants.iter().enumerate() {
        report.attempted += order.len() as u64;
        report.failed += (order.len() - tp.answered.len()) as u64;
        for e in &tp.errors {
            eprintln!("perfbench: failed: tenant {}: {e}", TENANTS[t].0);
        }
    }

    // Lifecycle: the control ops go over the `mc` connection once the
    // `screen` connection has closed, so at most two are ever open.
    clients.truncate(1);
    let mut control = clients.pop().expect("the mc connection");
    if tracer.enabled() {
        let t = Instant::now();
        for (tenant, _) in TENANTS {
            let mut r = Request::new("metrics");
            r.tenant = tenant.into();
            let snapshot = control
                .request(&r)
                .map_err(|e| format!("metrics op: {e}"))?;
            report.counters.push(crate::object(vec![
                ("pass", pass_ix.to_value()),
                ("tenant", tenant.to_value()),
                ("via", "metrics op".to_value()),
                ("report", snapshot.metrics.to_value()),
            ]));
        }
        tracer.add_overhead(t.elapsed());
    }
    let server_rss_mb = sys::peak_rss_mb(Some(server.pid()));
    let export = tracer.span("bench.lifecycle", None, 0, |id| {
        tracer.span("serve.shutdown", id, 0, |_| server.shutdown(&mut control))
    });
    report.op(export.as_ref().map(|_| ()).map_err(Clone::clone));
    let export = export?;
    let mut server_metrics = Vec::new();
    for (t, (tenant, _)) in TENANTS.iter().enumerate() {
        let label = format!("tenant:{tenant}");
        let found = export.reports.iter().find(|r| r.circuit == label);
        report.check(found.is_some(), || format!("shutdown export lacks {label}"));
        let m = found.map(|r| r.counters.clone()).unwrap_or_default();
        let rt_ns: f64 = tenants[t].round_trips_ms().sum::<f64>() * 1e6;
        for &id in &tenants[t].span_ids {
            tracer.set_split(id, round_trip_split(&m, rt_ns));
        }
        server_metrics.push(m);
    }
    Ok(Pass {
        order,
        loop_s,
        tenants,
        server_rss_mb,
        server: server_metrics,
    })
}

/// Shares of a tenant's round trips spent in the server's dictionary
/// build, ranking, and the rest of its session call; the remainder is
/// `serve` (protocol, queueing, per-submit circuit rebuild).
fn round_trip_split(m: &CampaignMetrics, round_trips_ns: f64) -> Vec<(String, f64)> {
    let total = round_trips_ns.max(1.0);
    let session = m
        .session_latency
        .sum
        .saturating_sub(m.dictionary_nanos + m.rank_nanos);
    vec![
        (
            "dictionary".into(),
            (m.dictionary_nanos as f64 / total).min(1.0),
        ),
        ("rank".into(), (m.rank_nanos as f64 / total).min(1.0)),
        ("session".into(), (session as f64 / total).min(1.0)),
    ]
}

fn closed_loop(
    tracer: &Tracer,
    pass_span: Option<usize>,
    pass_ix: usize,
    tenant: usize,
    mut client: Client,
    requests: &[(&Request, Submission)],
) -> (Client, TenantPass) {
    let mut out = TenantPass {
        answered: Vec::new(),
        answers: Vec::new(),
        errors: Vec::new(),
        span_ids: Vec::new(),
    };
    for (i, &(request, submission)) in requests.iter().enumerate() {
        let request_id = ((pass_ix as u64) << 24) | ((tenant as u64) << 20) | i as u64;
        let t = Instant::now();
        let (response, id) = tracer.span("serve.round_trip", pass_span, request_id, |id| {
            (client.submit(request), id)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.span_ids.push(id);
        match response.as_deref() {
            Ok([r]) if r.op == "outcome" => {
                out.answered.push((submission, ms));
                out.answers.push(Some(r.rankings.clone()));
            }
            Ok(other) => {
                let what = other
                    .iter()
                    .map(|r| format!("{} {}", r.op, r.error))
                    .collect::<Vec<_>>()
                    .join("; ");
                out.errors.push(format!("request {i}: {what}"));
                out.answers.push(None);
            }
            Err(e) => {
                out.errors
                    .push(format!("request {i}: dropped connection: {e}"));
                out.answers.resize(requests.len(), None);
                break;
            }
        }
    }
    (client, out)
}

/// The server child process. Dropping it kills a server that is still
/// running, waits for it and removes its store directory.
struct ServerChild {
    child: Child,
    dir: PathBuf,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl ServerChild {
    /// Starts `sdd-server` on a free port and returns it with the
    /// address parsed from its `listening on` line.
    fn spawn(bin: &Path, dir: &Path) -> Result<(ServerChild, String), String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--store"])
            .arg(dir.join("store"))
            .arg("--metrics-json")
            .arg(dir.join("metrics.json"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let server = ServerChild {
            child,
            dir: dir.to_owned(),
            lines,
            reader: Some(reader),
        };
        let line = server
            .lines
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| "server printed no listening line".to_string())?;
        let addr = line
            .strip_prefix(LISTENING)
            .ok_or_else(|| format!("unexpected first server line {line:?}"))?
            .trim()
            .to_owned();
        Ok((server, addr))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown`, waits for a clean exit (killing the server on
    /// timeout) and returns its per-tenant metrics export.
    fn shutdown(&mut self, control: &mut Client) -> Result<MetricsExport, String> {
        let bye = control
            .request(&Request::new("shutdown"))
            .map_err(|e| format!("shutdown op: {e}"))?;
        if bye.op != "bye" {
            return Err(format!("shutdown answered {:?}", bye.op));
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after shutdown; killed".into());
                }
            }
        };
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        let tail: Vec<String> = self.lines.try_iter().collect();
        let clean = tail.iter().any(|l| {
            l.contains("shut down cleanly") && l.contains(&format!("({} tenant", TENANTS.len()))
        });
        if !clean {
            return Err(format!("server did not report a clean exit: {tail:?}"));
        }
        let path = self.dir.join("metrics.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lot(seed: u64) -> Lot {
        build_lot(&profiles::S27, seed, 3, 2, &Tracer::new(false), None).expect("s27 lot builds")
    }

    #[test]
    fn same_seed_gives_a_byte_identical_lot_and_order() {
        let (a, b) = (lot(5), lot(5));
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.items.len(), 6);
        assert_eq!(pass_order(3, 2, 9), pass_order(3, 2, 9));
    }

    #[test]
    fn different_seed_gives_a_different_lot_and_order() {
        assert_ne!(lot(5).to_bytes(), lot(6).to_bytes());
        let orders: Vec<_> = (0..4).map(|seed| pass_order(8, 3, seed)).collect();
        assert!(orders.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn every_order_submits_each_item_once_and_each_site_first_item_again() {
        for seed in 0..5 {
            let order = pass_order(4, 3, seed);
            let mut firsts: Vec<usize> =
                order.iter().filter(|s| !s.retest).map(|s| s.item).collect();
            firsts.sort_unstable();
            assert_eq!(firsts, (0..12).collect::<Vec<_>>());
            let mut retests: Vec<usize> =
                order.iter().filter(|s| s.retest).map(|s| s.item).collect();
            retests.sort_unstable();
            assert_eq!(retests, vec![0, 3, 6, 9]);
            for (i, s) in order.iter().enumerate().filter(|(_, s)| s.retest) {
                let first = order
                    .iter()
                    .position(|o| o.item == s.item && !o.retest)
                    .unwrap();
                assert!(first < i, "a retest follows its first submission");
            }
        }
    }
}
