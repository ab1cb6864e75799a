//! `serve-steady` and `serve-chaos`: seeded open-loop request streams
//! through `serving::serve`, plus the operator pipeline over each run's
//! distinct GEMM shapes.
//!
//! Every layer runs inside the one `serving::serve` call, so the traced
//! run spans that call and then replays the run's recorded work through
//! each layer's public function: the plan-cache lookups in each
//! replica's dispatch order, every reported chain through
//! `execute_sequence`, its attribution, and the report's `to_json`.
//! Serve time the replay does not cover is `serve.unattributed_s`.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use flashoverlap::{
    execute_sequence, CommPattern, FaultPlan, Instrumentation, OverlapPlan, SequenceOptions,
    SystemSpec, WatchdogConfig,
};
use gpu_sim::gemm::GemmDims;
use serving::{ArrivalProcess, BatchRecord, PlanCache, RouterPolicy, ServeConfig, ServeReport};
use telemetry::{attribute_makespan, Category, Telemetry, TelemetryRecord};

use crate::harness::{self, Args, Metrics, Outcome, Pass};
use crate::operators::{self, OpResult, Operator, PlanTimes, Verdict};
use crate::trace::Tracer;

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 500 rps Poisson, 4 replicas of 8-GPU RTX4090 on one node,
    /// round-robin, no chaos.
    Steady,
    /// 100 rps Poisson with per-batch fault plans, 4 replicas of 8-GPU
    /// spread over 2 nodes, locality routing.
    Chaos,
}

/// Requests per serve call. Chaos latencies depend on when replicas get
/// quarantined, which varies with the seed; 12000 requests keep their
/// seed-to-seed spread under a tenth.
const STEADY_REQUESTS: usize = 8000;
const CHAOS_REQUESTS: usize = 12000;

/// Plan re-timings of every mix shape after each serve pass.
const PROBE_ROUNDS: usize = 10;

/// The workload's serve configuration. Everything not set here is
/// `ServeConfig::new`'s default (default mix, 20 ms SLO, 64-deep queue,
/// 32-plan caches, pipelined 4-batch chains, serial engines).
pub fn config(kind: Kind, seed: u64) -> ServeConfig {
    let system = match kind {
        Kind::Steady => SystemSpec::rtx4090(8),
        Kind::Chaos => SystemSpec::rtx4090(8).with_nodes(2),
    };
    let mut c = ServeConfig::new(system);
    c.seed = seed;
    c.replicas = 4;
    match kind {
        Kind::Steady => {
            c.requests = STEADY_REQUESTS;
            c.process = ArrivalProcess::Poisson { rate_rps: 500.0 };
        }
        Kind::Chaos => {
            c.requests = CHAOS_REQUESTS;
            c.process = ArrivalProcess::Poisson { rate_rps: 100.0 };
            c.chaos = true;
            c.nodes = 2;
            c.router = RouterPolicy::Locality;
        }
    }
    c
}

/// The GEMM shape a batch record executed.
fn dims_of(b: &BatchRecord, config: &ServeConfig) -> Result<GemmDims, String> {
    let tp = config.system.n_gpus as u32;
    let entry = config
        .mix
        .entries()
        .iter()
        .find(|e| e.model.name == b.model)
        .ok_or_else(|| format!("batch {} names model {} outside the mix", b.id, b.model))?;
    Ok(GemmDims::new(
        b.padded_tokens,
        entry.model.hidden,
        entry.model.intermediate / tp,
    ))
}

/// The run's distinct shapes as AllReduce operators on the replica system.
fn distinct_operators(report: &ServeReport, config: &ServeConfig) -> Result<Vec<Operator>, String> {
    let mut shapes = BTreeSet::new();
    for b in &report.batch_records {
        let d = dims_of(b, config)?;
        shapes.insert((d.m, d.n, d.k));
    }
    Ok(shapes
        .into_iter()
        .map(|(m, n, k)| Operator {
            label: format!("serve AR x{} {m}x{n}x{k}", config.system.n_gpus),
            dims: GemmDims::new(m, n, k),
            pattern: CommPattern::AllReduce,
            system: config.system.clone(),
        })
        .collect())
}

/// Every GEMM shape the deployment can be asked to tune: each mix
/// model at each padded batch size its requests can form (token-bucket
/// multiples from its smallest request up to the larger of the batch
/// budget and its largest request). Independent of the seed, so the
/// operator metrics of the serve workloads compare across seeds.
fn mix_operators(config: &ServeConfig) -> Vec<Operator> {
    let tp = config.system.n_gpus as u32;
    let bucket = config.batch.token_bucket;
    let mut ops = Vec::new();
    for e in config.mix.entries() {
        let lo = workloads::quantize_tokens(e.min_tokens, bucket);
        let hi =
            workloads::quantize_tokens(e.max_tokens.max(config.batch.max_batch_tokens), bucket);
        for m in (lo..=hi).step_by(bucket as usize) {
            let dims = GemmDims::new(m, e.model.hidden, e.model.intermediate / tp);
            ops.push(Operator {
                label: format!(
                    "{} AR x{} {}x{}x{}",
                    e.model.name, tp, dims.m, dims.n, dims.k
                ),
                dims,
                pattern: CommPattern::AllReduce,
                system: config.system.clone(),
            });
        }
    }
    ops
}

/// The report's accounting identities. Returns every violation.
fn check(report: &ServeReport, config: &ServeConfig, trace_ids: &[u64]) -> Vec<String> {
    let mut v = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            v.push(what);
        }
    };
    expect(
        report.offered == config.requests as u64 && report.offered == trace_ids.len() as u64,
        format!(
            "offered {} != requested {}",
            report.offered, config.requests
        ),
    );
    expect(
        report.offered == report.completed + report.shed,
        format!(
            "offered {} != completed {} + shed {}",
            report.offered, report.completed, report.shed
        ),
    );
    let mut ids: Vec<u64> = report.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    expect(
        ids == trace_ids,
        "request records do not cover the generated trace exactly once".into(),
    );
    expect(
        report.attribution.sum() == report.makespan_ns,
        format!(
            "attribution sums to {} ns, makespan is {} ns",
            report.attribution.sum(),
            report.makespan_ns
        ),
    );
    let per = &report.replica_stats;
    let sum = |f: fn(&serving::ReplicaStats) -> u64| per.iter().map(f).sum::<u64>();
    for (what, got, want) in [
        ("batches", sum(|r| r.batches), report.batches),
        ("requests", sum(|r| r.requests), report.completed),
        ("cache hits", sum(|r| r.cache.hits), report.cache.hits),
        ("cache misses", sum(|r| r.cache.misses), report.cache.misses),
        (
            "cache evictions",
            sum(|r| r.cache.evictions),
            report.cache.evictions,
        ),
        (
            "quarantined",
            per.iter().filter(|r| r.quarantined).count() as u64,
            report.replicas_quarantined,
        ),
        (
            "node batches",
            report.node_stats.iter().map(|n| n.batches).sum(),
            report.batches,
        ),
        (
            "node requests",
            report.node_stats.iter().map(|n| n.requests).sum(),
            report.completed,
        ),
        (
            "batch-record requests",
            report.batch_records.iter().map(|b| b.requests).sum(),
            report.completed,
        ),
        (
            "batch records",
            report.batch_records.len() as u64,
            report.batches,
        ),
    ] {
        expect(
            got == want,
            format!("per-replica {what} sum to {got}, run total is {want}"),
        );
    }
    for b in &report.batch_records {
        if let Some(a) = &b.attribution {
            expect(
                a.sum() == b.exec_ns,
                format!(
                    "batch {} attribution {} != exec {}",
                    b.id,
                    a.sum(),
                    b.exec_ns
                ),
            );
        }
    }
    v
}

/// Fingerprint of everything virtual a serve run reports.
fn digest(json: &str) -> u64 {
    let mut h = DefaultHasher::new();
    json.hash(&mut h);
    h.finish()
}

/// The serve loop's per-batch fault-plan seed (`serving::server`), so
/// replayed chaos chains arm the faults the run armed.
fn fault_seed(seed: u64, batch_id: u64) -> u64 {
    seed ^ (batch_id.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What the replay measured beyond span times.
#[derive(Debug, Default)]
struct Replay {
    chains: u64,
    distinct_chains: u64,
    spans: u64,
    mismatches: Vec<String>,
}

/// Replays a serve run's recorded work through each layer's public
/// function, recording a span per call.
fn replay(report: &ServeReport, config: &ServeConfig, tr: &mut Tracer) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut per_replica: Vec<Vec<&BatchRecord>> = vec![Vec::new(); config.replicas];
    for b in &report.batch_records {
        per_replica
            .get_mut(b.replica)
            .ok_or_else(|| format!("batch {} on unknown replica {}", b.id, b.replica))?
            .push(b);
    }
    let mut distinct = BTreeSet::new();
    let watchdog = WatchdogConfig::default();
    let mut scratch = TelemetryRecord::default();
    for batches in &mut per_replica {
        batches.sort_by_key(|b| (b.start_ns, b.id));
        // Plan-cache lookups in dispatch order, on a cold cache.
        let mut cache = PlanCache::new(config.cache_capacity);
        let mut plans: Vec<Rc<OverlapPlan>> = Vec::with_capacity(batches.len());
        for b in batches.iter() {
            let dims = dims_of(b, config)?;
            let name = if b.cache_hit {
                "cache.hit"
            } else {
                "cache.miss"
            };
            let (plan, hit) = tr
                .span(name, |_| {
                    cache.get_or_tune(dims, &CommPattern::AllReduce, &config.system)
                })
                .map_err(|e| format!("replayed lookup of batch {}: {e}", b.id))?;
            if hit != b.cache_hit {
                out.mismatches
                    .push(format!("batch {}: replayed cache hit {hit}", b.id));
            }
            plans.push(plan);
        }
        // Chains: consecutive dispatches of one replica, `chain_len` long.
        let mut i = 0;
        while i < batches.len() {
            let len = batches[i].chain_len.max(1) as usize;
            let chain = batches.get(i..i + len).ok_or_else(|| {
                format!(
                    "replica chain at batch {} runs past the record",
                    batches[i].id
                )
            })?;
            let chain_plans: Vec<&OverlapPlan> =
                plans[i..i + len].iter().map(|p| p.as_ref()).collect();
            i += len;
            // Recycled recorder buffers, as the replica engines run them.
            let telemetry = Telemetry::recycling(std::mem::take(&mut scratch));
            let faults: Vec<FaultPlan> = chain
                .iter()
                .zip(&chain_plans)
                .map(|(b, p)| {
                    FaultPlan::random(
                        fault_seed(config.seed, b.id),
                        config.system.n_gpus,
                        p.partition.num_groups(),
                    )
                })
                .collect();
            let probe_instr = telemetry.instrumentation();
            let monitor_instr = Instrumentation {
                monitor: Some(telemetry.monitor()),
                probe: None,
                mutation: None,
            };
            let options = SequenceOptions::new().trace();
            let options = if config.chaos {
                options
                    .instrument(&monitor_instr)
                    .resilient(&faults, &watchdog)
            } else {
                options.instrument(&probe_instr)
            };
            let outcome = tr
                .span("exec.chain", |_| execute_sequence(&chain_plans, &options))
                .map_err(|e| format!("replayed chain at batch {}: {e}", chain[0].id))?;
            let record = telemetry.take_record();
            let total = outcome.total.as_nanos();
            tr.span("attribution.attribute", |_| {
                attribute_makespan(&outcome.spans, &record, total)
            });
            scratch = record;
            out.chains += 1;
            out.spans += outcome.spans.len() as u64;
            let mut key: Vec<u64> = chain_plans
                .iter()
                .flat_map(|p| {
                    [
                        u64::from(p.dims.m),
                        u64::from(p.dims.n),
                        u64::from(p.dims.k),
                    ]
                })
                .collect();
            if config.chaos {
                // Fault plans make a chaos chain a function of its batch ids.
                key.extend(chain.iter().map(|b| b.id));
            }
            distinct.insert(key);
            // Fidelity: the replay must reproduce the run's per-batch
            // windows (they tile the chain's clamped completion times) and
            // outcomes.
            let windows: u64 = chain.iter().map(|b| b.exec_ns).sum();
            let last = outcome
                .reports
                .iter()
                .map(|r| r.latency.as_nanos())
                .max()
                .unwrap_or(0);
            let labels_match = chain
                .iter()
                .zip(&outcome.outcomes)
                .all(|(b, o)| b.outcome == o.label());
            if windows != last || !labels_match {
                out.mismatches.push(format!(
                    "chain at batch {}: replayed windows {last} ns vs recorded {windows} ns",
                    chain[0].id
                ));
            }
        }
    }
    out.distinct_chains = distinct.len() as u64;
    Ok(out)
}

/// One pass of the operator pipeline over `ops`: records the plan times
/// in `plans` and checks the virtual results against the first pass.
fn op_pass(
    ops: &[Operator],
    plans: &mut PlanTimes,
    first: &mut Option<Vec<OpResult>>,
    violations: &mut Vec<String>,
) {
    let timed: Vec<operators::Timed> = ops
        .iter()
        .map(|op| operators::run(op, &mut Tracer::off()))
        .collect();
    for (i, t) in timed.iter().enumerate() {
        plans.record(i, t.plan_s);
    }
    let results: Vec<OpResult> = timed.into_iter().map(|t| t.result).collect();
    match first {
        None => *first = Some(results),
        Some(f) if *f != results => {
            violations.push("virtual operator results differ between passes".to_string())
        }
        Some(_) => {}
    }
}

/// Runs one serve workload.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut tr = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let setup = |tr: &mut Tracer| {
        let config = config(kind, args.seed);
        let trace = tr.span("traffic.generate", |_| {
            serving::generate(&config.mix, config.process, config.requests, config.seed)
        });
        let mut ids: Vec<u64> = trace.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        (config, ids)
    };
    let (mut setups, (config, trace_ids)) = harness::timed_setup(setup, &mut tr);

    let mix_ops = mix_operators(&config);
    let mut violations = Vec::new();
    let mut first_digest: Option<u64> = None;
    let mut report_kept: Option<ServeReport> = None;
    let mut plans = PlanTimes::new(mix_ops.len());
    let mut first_results: Option<Vec<OpResult>> = None;
    let passes = harness::measure(args, |traced| {
        let timer = Pass::start()?;
        let report = if traced {
            tr.span("serve", |_| serving::serve(&config))
        } else {
            serving::serve(&config)
        }
        .map_err(|e| format!("serve: {e}"))?;
        let host = timer.stop()?;
        // Outside the timed phase: accounting checks, determinism, and
        // (untraced) one operator pass and plan re-timings, so each
        // shape has plan timings from all through the run.
        let d = digest(&report.to_json().to_json());
        match first_digest {
            None => {
                violations.extend(check(&report, &config, &trace_ids));
                first_digest = Some(d);
            }
            Some(fd) if fd != d => {
                violations.push("virtual serve reports differ between passes".to_string())
            }
            Some(_) => {}
        }
        if !traced {
            op_pass(&mix_ops, &mut plans, &mut first_results, &mut violations);
            plans.probe(&mix_ops, PROBE_ROUNDS);
            setups.again(setup);
        }
        if report_kept.is_none() || traced {
            report_kept = Some(report);
        }
        Ok(host)
    })?;
    let report = report_kept.ok_or("no serve pass ran")?;
    if first_results.is_none() {
        op_pass(&mix_ops, &mut plans, &mut first_results, &mut violations);
    }
    let results = first_results.ok_or("no operator pass ran")?;
    let summary = operators::summarize(&results);
    for r in &results {
        if let Verdict::Error(e) = &r.verdict {
            violations.push(format!("operator failed: {e}"));
        }
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let lat = report.latency.ok_or("serve completed no request")?;
    let mut notes = vec![
        format!(
            "serve    : {} {} requests at {:.1} rps offered on {} x{} ({} replicas, {} nodes, \
             {} router{})",
            report.offered,
            report.arrival,
            report.offered_rps,
            report.platform,
            report.gpus,
            report.replicas,
            report.nodes,
            report.router,
            if report.chaos { ", chaos" } else { "" },
        ),
        format!(
            "virtual  : completed {}, shed {}, p50 {:.3} ms, p99 {:.3} ms, mean {:.3} ms, \
             goodput {:.3} rps (SLO {} ms), quarantined {}",
            report.completed,
            report.shed,
            ms(lat.p50),
            ms(lat.p99),
            report.mean_latency_ns / 1e6,
            report.goodput_rps,
            report.slo_ns as f64 / 1e6,
            report.replicas_quarantined,
        ),
        format!(
            "shapes   : {} in the mix's shape space; FlashOverlap speedup mean {:.3}x, max {:.3}x; \
             predictor error {:.2}%",
            summary.attempted,
            summary.speedup_mean,
            summary.speedup_max,
            summary.pred_err_mean * 100.0
        ),
        harness::PAPER_BANDS.to_string(),
    ];

    let mut m = Metrics::default();
    if args.trace {
        // Replay, outside the timed passes: the operator pipeline over
        // the distinct shapes (cold tune + verify), probes, the cache
        // lookups, chains and attribution, then the report's to_json.
        let mark = tr.spans().len();
        let run_ops = distinct_operators(&report, &config)?;
        let mut cold = Vec::with_capacity(run_ops.len());
        for op in &run_ops {
            let r = operators::run(op, &mut tr).result;
            operators::probe(op, r.verdict == Verdict::Executed, &mut tr);
            cold.push(r);
        }
        let rep = replay(&report, &config, &mut tr)?;
        violations.extend(rep.mismatches.iter().map(|s| format!("replay: {s}")));
        let json = tr.span("report.to_json", |_| report.to_json().to_json());
        let layers = tr.layer_times(mark);
        let self_ms = |name: &str| layers.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
        let calls = |name: &str| layers.get(name).map_or(0, |t| t.calls);
        let share =
            |c: Category| report.attribution.get(c) as f64 / report.makespan_ns.max(1) as f64;
        let setup_layers = tr.layer_times(0);
        let gen = setup_layers
            .get("traffic.generate")
            .copied()
            .unwrap_or_default();
        let tokens: u64 = report
            .batch_records
            .iter()
            .map(|b| u64::from(b.tokens))
            .sum();
        let padded: u64 = report
            .batch_records
            .iter()
            .map(|b| u64::from(b.padded_tokens))
            .sum();
        let serve_s = passes.median_traced_wall();
        let covered_ms = self_ms("cache.hit")
            + self_ms("cache.miss")
            + self_ms("exec.chain")
            + self_ms("attribution.attribute");
        let values: [(&'static str, f64); 44] = [
            (
                "traffic.generate_ms",
                gen.self_ns as f64 / 1e6 / gen.calls.max(1) as f64,
            ),
            ("batch.count", report.batches as f64),
            ("batch.fill", tokens as f64 / padded.max(1) as f64),
            (
                "batch.form_wait_p50_ms",
                report.form_wait.map_or(0.0, |p| ms(p.p50)),
            ),
            (
                "router.queue_wait_p99_ms",
                report.queue_wait.map_or(0.0, |p| ms(p.p99)),
            ),
            (
                "router.cross_node_share",
                report.cross_node_batches as f64 / report.batches.max(1) as f64,
            ),
            ("router.migration_ms", ms(report.migration_ns)),
            (
                "cache.lookups",
                (report.cache.hits + report.cache.misses) as f64,
            ),
            ("cache.hit_rate", report.cache.hit_rate()),
            ("cache.tunes", report.cache.misses as f64),
            ("cache.evictions", report.cache.evictions as f64),
            (
                "cache.lookup_us",
                self_ms("cache.hit") * 1e3 / calls("cache.hit").max(1) as f64,
            ),
            ("cache.miss_ms", self_ms("cache.miss")),
            ("predictor.build_ms", self_ms("predictor.build")),
            ("tuner.search_ms", self_ms("tuner.search")),
            (
                "tuner.candidates",
                cold.iter().map(|r| r.candidates).sum::<u64>() as f64,
            ),
            ("plan.new_ms", self_ms("plan.new")),
            ("verify.lower_ms", self_ms("verify.lower")),
            ("verify.check_ms", self_ms("verify.check")),
            (
                "verify.waits",
                cold.iter().map(|r| r.waits).sum::<u64>() as f64,
            ),
            (
                "verify.tiles",
                cold.iter().map(|r| r.tiles).sum::<u64>() as f64,
            ),
            (
                "verify.rejects",
                cold.iter()
                    .filter(|r| matches!(r.verdict, Verdict::Rejected(_)))
                    .count() as f64,
            ),
            ("exec.plan_ms", self_ms("exec.plan")),
            ("exec.chain_ms", self_ms("exec.chain")),
            ("exec.chains", rep.chains as f64),
            ("exec.distinct_chains", rep.distinct_chains as f64),
            (
                "exec.repeat_share",
                1.0 - rep.distinct_chains as f64 / rep.chains.max(1) as f64,
            ),
            ("exec.spans", rep.spans as f64),
            (
                "exec.ns_per_span",
                self_ms("exec.chain") * 1e6 / rep.spans.max(1) as f64,
            ),
            ("baseline.nonoverlap_ms", self_ms("baseline.nonoverlap")),
            ("resilience.recovered", report.recovered as f64),
            ("resilience.degraded", report.degraded as f64),
            ("resilience.quarantined", report.replicas_quarantined as f64),
            ("resilience.recovery_share", share(Category::Recovery)),
            ("attribution.attribute_ms", self_ms("attribution.attribute")),
            ("attr.gemm_share", share(Category::GemmCompute)),
            ("attr.transfer_share", share(Category::CollectiveTransfer)),
            ("attr.signal_wait_share", share(Category::SignalWait)),
            ("attr.queue_share", share(Category::QueueWait)),
            ("attr.idle_share", share(Category::Idle)),
            (
                "collectives.inter_bytes_hier",
                report.inter_bytes_hierarchical as f64,
            ),
            (
                "collectives.inter_bytes_flat",
                report.inter_bytes_flat as f64,
            ),
            ("report.to_json_ms", self_ms("report.to_json")),
            ("report.bytes", json.len() as f64),
        ];
        for (name, value) in values {
            m.set(name, value);
        }
        m.set("serve.call_s", serve_s);
        m.set("serve.unattributed_s", serve_s - covered_ms / 1e3);
        m.set(
            "trace.overhead",
            passes
                .trace_overhead()
                .ok_or("traced run needs both pass kinds")?,
        );
        notes.push(format!(
            "replay   : {} chains ({} distinct), {} simulated ops; covers {:.3} of {:.3} s serve",
            rep.chains,
            rep.distinct_chains,
            rep.spans,
            covered_ms / 1e3,
            serve_s
        ));
        notes.push(format!("trace    : {}", harness::write_trace(args, &tr)?));
    } else {
        harness::host_metrics(
            &mut m,
            passes.median_wall(),
            passes.median_cpu(),
            setups.median(),
            report.completed as f64,
        )?;
        notes.push(passes.note());
        notes.push(harness::plan_metrics(&mut m, &plans));
        m.set("lat_mean_ms", report.mean_latency_ns / 1e6);
        // 8000+ requests leave at least 80 beyond the p99: it is the
        // supported tail on both serve workloads.
        m.set("lat_tail_ms", ms(lat.p99));
        m.set(
            "throughput_rps",
            report.completed as f64 / (report.makespan_ns as f64 / 1e9),
        );
        m.set(
            "success_rate",
            report.completed as f64 / report.offered.max(1) as f64,
        );
        harness::speedup_metrics(&mut m, &summary);
    }
    Ok(Outcome {
        attempted: report.offered,
        failed: report.shed,
        violations,
        notes,
        metrics: m,
    })
}
