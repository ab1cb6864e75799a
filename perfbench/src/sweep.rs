//! `operator-sweep`: the Fig. 9 operator grid, one operator after
//! another, each tuned, statically verified, executed and compared with
//! the non-overlap baseline.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use collectives::Primitive;
use workloads::{table3_shapes, GpuKind};

use crate::harness::{self, Args, Metrics, Outcome, Pass, SetupTimes};
use crate::host;
use crate::operators::{self, OpResult, Operator, PlanTimes, Verdict};
use crate::trace::Tracer;

/// The 13 platform × primitive × GPU-count cells of Fig. 9.
const CELLS: [(GpuKind, Primitive, &[usize]); 5] = [
    (GpuKind::A800, Primitive::AllReduce, &[2, 4]),
    (GpuKind::A800, Primitive::ReduceScatter, &[2, 4]),
    (GpuKind::Rtx4090, Primitive::AllReduce, &[2, 4, 8]),
    (GpuKind::Rtx4090, Primitive::ReduceScatter, &[2, 4, 8]),
    (GpuKind::Rtx4090, Primitive::AllToAll, &[2, 4, 8]),
];

/// Least time between two rounds of plan re-timings in an untraced run.
const PROBE_EVERY: Duration = Duration::from_secs(2);

/// Operators sampled for the functional check.
const FUNCTIONAL_SAMPLE: usize = 3;

/// Builds the grid: every AllReduce and All-to-All operator, and of the
/// ReduceScatter ones, for each cell and each `(m, n)` pair, the one `k`
/// the seed picks. Verification cost depends on the output tile grid
/// (`m`, `n`), not on `k`, so every seed verifies the same amount of
/// work while the executed shapes vary. All-to-All routing tables use
/// the Fig. 9 reproduction's seeds, so the grid's known verifier
/// rejections are always in it.
pub fn grid(seed: u64) -> Vec<Operator> {
    let mut ops = Vec::new();
    for (gpu, primitive, gpu_counts) in CELLS {
        let shapes = table3_shapes(primitive, gpu);
        for &n_gpus in gpu_counts {
            let system = bench::system_for(gpu, n_gpus);
            let mut chosen = shapes.clone();
            if primitive == Primitive::ReduceScatter {
                let mut by_pair: BTreeMap<(u64, u32, u32), Vec<_>> = BTreeMap::new();
                for d in &shapes {
                    by_pair
                        .entry((u64::from(d.m) * u64::from(d.n), d.m, d.n))
                        .or_default()
                        .push(*d);
                }
                chosen = by_pair
                    .values()
                    .enumerate()
                    .map(|(i, ks)| ks[(seed as usize).wrapping_add(i) % ks.len()])
                    .collect();
            }
            for dims in chosen {
                ops.push(Operator {
                    label: format!(
                        "{gpu} {primitive:?} x{n_gpus} {}x{}x{}",
                        dims.m, dims.n, dims.k
                    ),
                    pattern: bench::pattern_for(primitive, dims, n_gpus, 0xA2A + u64::from(dims.k)),
                    dims,
                    system: system.clone(),
                });
            }
        }
    }
    ops
}

/// Each operator's best host time over an untraced run.
struct BestTimes {
    /// Best wall-clock seconds of each operator's pipeline.
    wall: Vec<f64>,
    /// Best CPU seconds of each operator's pipeline.
    cpu: Vec<f64>,
    /// Each operator's virtual result (the same on every run of it).
    results: Vec<OpResult>,
    /// Operator pipelines run.
    runs: usize,
    /// Wall-clock seconds of the first pass over the grid, plan
    /// re-timings included.
    first_pass_s: f64,
}

/// The untraced measurement. One pass over the grid takes a third of
/// the budget or more, too long to take the median of passes, and the
/// host's memory system is shared with other tenants whose load makes
/// the same operator up to twice as slow for seconds or minutes (see
/// `PlanTimes`). So after one pass in grid order the operators run
/// again, dearest first, round after round until the budget is spent,
/// and each keeps its best time; every [`PROBE_EVERY`] the plans are
/// re-timed and the set-up runs again as well. Every run of an operator
/// must repeat its first virtual result.
fn best_times(
    ops: &[Operator],
    args: &Args,
    plans: &mut PlanTimes,
    setups: &mut SetupTimes,
    violations: &mut Vec<String>,
) -> Result<BestTimes, String> {
    let started = Instant::now();
    let n = ops.len();
    let mut wall = vec![f64::INFINITY; n];
    let mut cpu = vec![f64::INFINITY; n];
    let mut results: Vec<Option<OpResult>> = vec![None; n];
    let mut order: Vec<usize> = (0..n).collect();
    let (mut runs, mut first_pass_s) = (0, None);
    let mut last_probe = Instant::now();
    'budget: loop {
        for &i in &order {
            let timer = Pass::start()?;
            let timed = operators::run(&ops[i], &mut Tracer::off());
            let host = timer.stop()?;
            runs += 1;
            wall[i] = wall[i].min(host.wall_s);
            cpu[i] = cpu[i].min(host.cpu_s);
            plans.record(i, timed.plan_s);
            match &results[i] {
                None => results[i] = Some(timed.result),
                Some(r) if *r != timed.result => violations.push(format!(
                    "{}: virtual results differ between runs",
                    ops[i].label
                )),
                Some(_) => {}
            }
            if last_probe.elapsed() >= PROBE_EVERY {
                plans.probe(ops, 1);
                setups.again(|_| grid(args.seed));
                last_probe = Instant::now();
            }
            if first_pass_s.is_some() && started.elapsed().as_secs_f64() >= args.seconds {
                break 'budget;
            }
        }
        first_pass_s.get_or_insert(started.elapsed().as_secs_f64());
        order.sort_by(|&a, &b| wall[b].total_cmp(&wall[a]));
    }
    Ok(BestTimes {
        wall,
        cpu,
        results: results
            .into_iter()
            .map(|r| r.expect("every operator ran"))
            .collect(),
        runs,
        first_pass_s: first_pass_s.unwrap_or(0.0),
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tr = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let (mut setups, ops) = harness::timed_setup(|_| grid(args.seed), &mut tr);
    let mut first: Option<Vec<OpResult>> = None;
    let mut violations = Vec::new();
    let mut plans = PlanTimes::new(ops.len());
    let mut traced_passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut verifier_sizes = (0u64, 0u64);
    let mut best = None;
    let mut passes = None;
    if args.trace {
        passes = Some(harness::measure(args, |traced| {
            let mark = tr.spans().len();
            let mut off = Tracer::off();
            let t = if traced { &mut tr } else { &mut off };
            let timer = Pass::start()?;
            let timed: Vec<operators::Timed> = ops.iter().map(|op| operators::run(op, t)).collect();
            let host = timer.stop()?;
            let results: Vec<OpResult> = timed.into_iter().map(|t| t.result).collect();
            if traced {
                traced_passes.push(
                    tr.layer_times(mark)
                        .into_iter()
                        .map(|(name, t)| (name, t.self_ns as f64 / 1e6))
                        .collect(),
                );
                verifier_sizes = (
                    results.iter().map(|r| r.waits).sum(),
                    results.iter().map(|r| r.tiles).sum(),
                );
            }
            // Virtual results are deterministic: every pass must repeat the
            // first exactly (the verifier statistics are traced-only).
            let virtual_only: Vec<OpResult> = results
                .into_iter()
                .map(|r| OpResult {
                    waits: 0,
                    tiles: 0,
                    ..r
                })
                .collect();
            match &first {
                None => first = Some(virtual_only),
                Some(f) if *f != virtual_only => {
                    violations.push("virtual operator results differ between passes".to_string())
                }
                Some(_) => {}
            }
            Ok(host)
        })?);
    } else {
        let b = best_times(&ops, args, &mut plans, &mut setups, &mut violations)?;
        first = Some(b.results.clone());
        best = Some(b);
    }
    let results = first.ok_or("no pass ran")?;
    let summary = operators::summarize(&results);
    for r in &results {
        if let Verdict::Error(e) = &r.verdict {
            violations.push(format!("operator failed: {e}"));
        }
    }
    let executed: Vec<&Operator> = ops
        .iter()
        .zip(&results)
        .filter(|(_, r)| r.verdict == Verdict::Executed)
        .map(|(op, _)| op)
        .collect();
    // A plan executes only after passing check_static, so an executed
    // operator must carry both latencies.
    for (op, r) in ops.iter().zip(&results) {
        if r.verdict == Verdict::Executed && (r.flash_ns == 0 || r.base_ns == 0) {
            violations.push(format!("{}: executed without a latency", op.label));
        }
    }
    let sample = harness::seeded_sample(&executed, FUNCTIONAL_SAMPLE, args.seed);
    let checked = match operators::functional_check(&sample, args.seed) {
        Ok(0) => {
            violations.push("functional check ran no operator".to_string());
            0
        }
        Ok(n) => n,
        Err(e) => {
            violations.push(format!("functional check: {e}"));
            0
        }
    };

    let mut notes = vec![
        format!(
            "grid     : {} operators ({} executed, {} rejected by the static verifier, {} errors)",
            summary.attempted, summary.executed, summary.rejected, summary.errors
        ),
        format!(
            "virtual  : FlashOverlap speedup mean {:.3}x, max {:.3}x; predictor error {:.2}%",
            summary.speedup_mean,
            summary.speedup_max,
            summary.pred_err_mean * 100.0
        ),
        harness::PAPER_BANDS.to_string(),
        format!(
            "checked  : {checked} of {} sampled operators run functionally at reduced size \
             and match the tensor reference",
            sample.len()
        ),
    ];
    for (op, r) in ops.iter().zip(&results) {
        if let Verdict::Rejected(why) = &r.verdict {
            notes.push(format!("rejected : {} -- {why}", op.label));
        }
    }

    let mut m = Metrics::default();
    if args.trace {
        let layer = |name: &str| {
            host::median(
                &traced_passes
                    .iter()
                    .map(|p| p.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        let mark = tr.spans().len();
        let spans: u64 = ops
            .iter()
            .zip(&results)
            .map(|(op, r)| operators::probe(op, r.verdict == Verdict::Executed, &mut tr))
            .sum();
        let probed = tr.layer_times(mark);
        let exec_ms = layer("exec.plan");
        m.set(
            "predictor.build_ms",
            probed
                .get("predictor.build")
                .map_or(0.0, |t| t.self_ns as f64 / 1e6),
        );
        for (metric, span) in [
            ("tuner.search_ms", "tuner.search"),
            ("plan.new_ms", "plan.new"),
            ("verify.lower_ms", "verify.lower"),
            ("verify.check_ms", "verify.check"),
            ("exec.plan_ms", "exec.plan"),
            ("baseline.nonoverlap_ms", "baseline.nonoverlap"),
        ] {
            m.set(metric, layer(span));
        }
        m.set(
            "tuner.candidates",
            results.iter().map(|r| r.candidates).sum::<u64>() as f64,
        );
        m.set("verify.waits", verifier_sizes.0 as f64);
        m.set("verify.tiles", verifier_sizes.1 as f64);
        m.set("verify.rejects", summary.rejected as f64);
        // Each executed operator is a chain of one plan; no two repeat.
        m.set("exec.chains", summary.executed as f64);
        m.set("exec.distinct_chains", summary.executed as f64);
        m.set("exec.repeat_share", 0.0);
        m.set("exec.spans", spans as f64);
        m.set("exec.ns_per_span", exec_ms * 1e6 / spans.max(1) as f64);
        m.set(
            "trace.overhead",
            passes
                .as_ref()
                .and_then(|p| p.trace_overhead())
                .ok_or("traced run needs both pass kinds")?,
        );
        notes.push(format!("trace    : {}", harness::write_trace(args, &tr)?));
    } else {
        let lat: Vec<f64> = results
            .iter()
            .filter(|r| r.verdict == Verdict::Executed)
            .map(|r| r.flash_ns as f64 / 1e6)
            .collect();
        let best = best.ok_or("untraced run without operator times")?;
        let (wall_s, cpu_s) = (best.wall.iter().sum::<f64>(), best.cpu.iter().sum::<f64>());
        harness::host_metrics(
            &mut m,
            wall_s,
            cpu_s,
            setups.median(),
            summary.attempted as f64,
        )?;
        notes.push(format!(
            "host     : {} operator runs; best-time pass {wall_s:.4} s, first pass {:.4} s",
            best.runs, best.first_pass_s
        ));
        notes.push(harness::plan_metrics(&mut m, &plans));
        m.set("lat_mean_ms", host::mean(&lat));
        // Of ~225 executed operators only the p95 has ten beyond it.
        m.set("lat_tail_ms", host::supported_tail(&lat).1);
        m.set(
            "throughput_rps",
            lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3),
        );
        m.set(
            "success_rate",
            summary.executed as f64 / summary.attempted as f64,
        );
        harness::speedup_metrics(&mut m, &summary);
    }
    Ok(Outcome {
        attempted: summary.attempted as u64,
        failed: summary.errors as u64,
        violations,
        notes,
        metrics: m,
    })
}
