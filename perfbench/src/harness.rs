//! What every workload shares: arguments, the timed-pass loop, set-up
//! timing, the metric catalogue and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;
use crate::operators::PlanTimes;
use crate::trace::Tracer;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (or `all`).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 14] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("plan_mean_ms", "ms"),
    ("plan_tail_ms", "ms"),
    ("lat_mean_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("success_rate", "share"),
    ("speedup_mean", "x"),
    ("speedup_max", "x"),
    ("pred_err_mean", "share"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer a workload does not run reports zero.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("traffic.generate_ms", "ms"),
    ("batch.count", "count"),
    ("batch.fill", "share"),
    ("batch.form_wait_p50_ms", "ms"),
    ("router.queue_wait_p99_ms", "ms"),
    ("router.cross_node_share", "share"),
    ("router.migration_ms", "ms"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "share"),
    ("cache.tunes", "count"),
    ("cache.evictions", "count"),
    ("cache.lookup_us", "us"),
    ("cache.miss_ms", "ms"),
    ("predictor.build_ms", "ms"),
    ("tuner.search_ms", "ms"),
    ("tuner.candidates", "count"),
    ("plan.new_ms", "ms"),
    ("verify.lower_ms", "ms"),
    ("verify.check_ms", "ms"),
    ("verify.waits", "count"),
    ("verify.tiles", "count"),
    ("verify.rejects", "count"),
    ("exec.plan_ms", "ms"),
    ("exec.chain_ms", "ms"),
    ("exec.chains", "count"),
    ("exec.distinct_chains", "count"),
    ("exec.repeat_share", "share"),
    ("exec.spans", "count"),
    ("exec.ns_per_span", "ns"),
    ("baseline.nonoverlap_ms", "ms"),
    ("resilience.recovered", "count"),
    ("resilience.degraded", "count"),
    ("resilience.quarantined", "count"),
    ("resilience.recovery_share", "share"),
    ("attribution.attribute_ms", "ms"),
    ("attr.gemm_share", "share"),
    ("attr.transfer_share", "share"),
    ("attr.signal_wait_share", "share"),
    ("attr.queue_share", "share"),
    ("attr.idle_share", "share"),
    ("collectives.inter_bytes_hier", "bytes"),
    ("collectives.inter_bytes_flat", "bytes"),
    ("report.to_json_ms", "ms"),
    ("report.bytes", "bytes"),
    ("serve.call_s", "s"),
    ("serve.unattributed_s", "s"),
    ("trace.overhead", "share"),
];

/// Metric values by name; [`Metrics::render`] orders and checks them
/// against the catalogue.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The catalogue this run reports and its values: every end-to-end
    /// metric untraced, every per-layer metric traced (absent layers
    /// read zero). Errors on a value that is not finite, on a missing
    /// end-to-end metric, and on a name outside the catalogue.
    pub fn render(&self, traced: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        if let Some(unknown) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {unknown} is not in the catalogue"));
        }
        let mut out = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            out.push((name, value, unit));
        }
        Ok(out)
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests or operators).
    pub attempted: u64,
    /// Operations that errored or were refused.
    pub failed: u64,
    /// Correctness violations; any makes the run fail.
    pub violations: Vec<String>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
    /// Measured metrics.
    pub metrics: Metrics,
}

/// Host time of one timed pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds.
    pub cpu_s: f64,
}

/// A started pass timer.
#[derive(Debug)]
pub struct PassTimer {
    started: Instant,
    cpu0: f64,
}

impl Pass {
    /// Starts timing a pass.
    pub fn start() -> Result<PassTimer, String> {
        Ok(PassTimer {
            cpu0: host::cpu_seconds()?,
            started: Instant::now(),
        })
    }
}

impl PassTimer {
    /// Stops the timer.
    pub fn stop(self) -> Result<Pass, String> {
        let wall_s = self.started.elapsed().as_secs_f64();
        Ok(Pass {
            wall_s,
            cpu_s: host::cpu_seconds()? - self.cpu0,
        })
    }
}

/// The timed passes of a run.
#[derive(Debug, Default)]
pub struct Passes {
    /// Passes with tracing off.
    pub untraced: Vec<Pass>,
    /// Passes with tracing on (traced runs only).
    pub traced: Vec<Pass>,
}

fn median_wall(passes: &[Pass]) -> f64 {
    host::median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>())
}

impl Passes {
    /// Median wall-clock of the untraced passes.
    pub fn median_wall(&self) -> f64 {
        median_wall(&self.untraced)
    }

    /// Median wall-clock of the traced passes.
    pub fn median_traced_wall(&self) -> f64 {
        median_wall(&self.traced)
    }

    /// Median CPU time of the untraced passes.
    pub fn median_cpu(&self) -> f64 {
        host::median(&self.untraced.iter().map(|p| p.cpu_s).collect::<Vec<_>>())
    }

    /// Summary line of the untraced pass times.
    pub fn note(&self) -> String {
        let walls: Vec<f64> = self.untraced.iter().map(|p| p.wall_s).collect();
        let lo = walls.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = walls.iter().copied().fold(0.0, f64::max);
        format!(
            "host     : {} timed passes, wall min {lo:.4} s, p25 {:.4} s, median {:.4} s, \
             max {hi:.4} s",
            walls.len(),
            host::percentile(&walls, 0.25),
            self.median_wall()
        )
    }

    /// Traced median wall over untraced median wall, minus one.
    pub fn trace_overhead(&self) -> Option<f64> {
        if self.traced.is_empty() || self.untraced.is_empty() {
            return None;
        }
        Some(self.median_traced_wall() / self.median_wall() - 1.0)
    }
}

/// Runs timed passes for the run's budget: `pass(false)` untraced, or
/// alternating `pass(false)` / `pass(true)` pairs on a traced run. A
/// pass starts only if the budget leaves room for one more of median
/// length; at least one pass (pair) always runs.
pub fn measure(
    args: &Args,
    mut pass: impl FnMut(bool) -> Result<Pass, String>,
) -> Result<Passes, String> {
    let started = Instant::now();
    let mut passes = Passes::default();
    loop {
        passes.untraced.push(pass(false)?);
        if args.trace {
            passes.traced.push(pass(true)?);
        }
        let mut per_round = passes.median_wall();
        if args.trace {
            per_round += passes.median_traced_wall();
        }
        if started.elapsed().as_secs_f64() + per_round > args.seconds {
            return Ok(passes);
        }
    }
}

/// Set-ups run before the timed work. Untraced runs set up once more
/// after each timed pass or round of plan re-timings, so the set-up
/// times, like the other host times, come from all through the run;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// Host times of a workload's set-ups.
#[derive(Debug, Default)]
pub struct SetupTimes {
    times: Vec<f64>,
}

impl SetupTimes {
    /// Times one more untraced set-up; its result is dropped.
    pub fn again<T>(&mut self, setup: impl FnOnce(&mut Tracer) -> T) {
        let started = Instant::now();
        std::hint::black_box(setup(&mut Tracer::off()));
        self.times.push(started.elapsed().as_secs_f64());
    }

    /// Median set-up time: `setup_s`.
    pub fn median(&self) -> f64 {
        host::median(&self.times)
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the times with the last
/// result.
pub fn timed_setup<T>(mut setup: impl FnMut(&mut Tracer) -> T, tr: &mut Tracer) -> (SetupTimes, T) {
    let mut times = SetupTimes::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        last = Some(tr.span("setup", |tr| setup(tr)));
        times.times.push(started.elapsed().as_secs_f64());
    }
    (times, last.expect("SETUP_REPS > 0"))
}

/// `k` items picked by a seeded walk (distinct, in pick order).
pub fn seeded_sample<T: Clone>(items: &[&T], k: usize, seed: u64) -> Vec<T> {
    let mut rng = sim::DetRng::new(seed ^ 0x5A3D_1E00);
    let mut idx: Vec<usize> = (0..items.len()).collect();
    rng.shuffle(&mut idx);
    idx.into_iter().take(k).map(|i| items[i].clone()).collect()
}

/// The host-side end-to-end metrics every workload reports, from the
/// workload's pass time and CPU time.
pub fn host_metrics(
    m: &mut Metrics,
    wall_s: f64,
    cpu_s: f64,
    setup_s: f64,
    items_per_pass: f64,
) -> Result<(), String> {
    m.set("wall_s", wall_s);
    m.set("cpu_s", cpu_s);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", host::peak_rss_mb()?);
    m.set("items_per_s", items_per_pass / wall_s);
    Ok(())
}

/// Writes the traced run's spans as a Perfetto trace under
/// `perfbench/out/` and returns the path.
pub fn write_trace(args: &Args, tr: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, tr.perfetto_json(&args.workload))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The paper's reference bands, printed beside the virtual results.
pub const PAPER_BANDS: &str = "paper    : 1.07-1.31x mean speedup per panel, up to 1.65x, \
     ~3.4% predictor error (the simulator is checked against these reported numbers only, \
     never against hardware)";

/// `plan_mean_ms` and `plan_tail_ms` over the operators' best
/// shape-to-verified-plan host times (the tail is [`PlanTimes::tail`]);
/// returns the summary line, which also prints the median. The median
/// operator of the sweep plans in a few milliseconds over a working set
/// the size of the last-level cache; on a shared 2-vCPU virtual machine
/// its best time moved by up to 27% (IQR / median) over ten runs of the
/// same code, while the mean, which the dearer plans dominate, stayed
/// within the 0.25 bound.
pub fn plan_metrics(m: &mut Metrics, plans: &PlanTimes) -> String {
    let best = plans.best();
    let (p50, mean) = (host::percentile(best, 0.5), host::mean(best));
    let (tail_name, rank, tail) = plans.tail();
    m.set("plan_mean_ms", mean * 1e3);
    m.set("plan_tail_ms", tail * 1e3);
    format!(
        "plan     : best shape-to-verified-plan time of {} operators, p50 {:.3} ms, \
         mean {:.3} ms, {tail_name} {:.3} ms ({} beyond)",
        best.len(),
        p50 * 1e3,
        mean * 1e3,
        tail * 1e3,
        best.len() - rank - 1
    )
}

/// The operator pipeline's virtual end-to-end metrics.
pub fn speedup_metrics(m: &mut Metrics, s: &crate::operators::Summary) {
    m.set("speedup_mean", s.speedup_mean);
    m.set("speedup_max", s.speedup_max);
    m.set("pred_err_mean", s.pred_err_mean);
}
