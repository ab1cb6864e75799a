//! The operator pipeline both kinds of workload share: shape → tuned
//! plan (`predictive_search`, `OverlapPlan::new`) → static verification
//! → execution → non-overlap baseline. The sweep runs it over the Fig. 9
//! grid; the serve workloads run it over the distinct shapes a serve run
//! produced.

use std::time::Instant;

use flashoverlap::{
    model_of_plan, predictive_search, reject_if_invalid, CommPattern, ExecOptions,
    FunctionalInputs, LatencyPredictor, OverlapPlan, SystemSpec,
};
use gpu_sim::gemm::GemmDims;
use tensor::{allclose, gemm, Matrix};

use crate::trace::Tracer;

/// One GEMM + collective operator on one system.
#[derive(Debug, Clone)]
pub struct Operator {
    /// Human-readable cell and shape.
    pub label: String,
    /// Per-rank GEMM shape.
    pub dims: GemmDims,
    /// Collective (with routing tables for All-to-All).
    pub pattern: CommPattern,
    /// Target system.
    pub system: SystemSpec,
}

/// How an operator's pipeline ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Verified, executed and compared with the baseline.
    Executed,
    /// The static verifier rejected the tuned plan; it was not executed.
    Rejected(String),
    /// Planning or execution returned an error.
    Error(String),
}

/// Outcome of one operator. Every `*_ns` field is virtual (simulated)
/// time and repeats exactly for the same operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// How the pipeline ended.
    pub verdict: Verdict,
    /// Tuned plan latency (zero unless executed).
    pub flash_ns: u64,
    /// Non-overlap baseline latency (zero unless executed).
    pub base_ns: u64,
    /// Predicted latency of the tuned partition.
    pub predicted_ns: u64,
    /// Partitions the search scored.
    pub candidates: u64,
    /// Counter waits the verifier checked (traced runs only).
    pub waits: u64,
    /// Tile write footprints the verifier examined (traced runs only).
    pub tiles: u64,
}

/// [`OpResult`] plus the host time from shape to verified plan.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Virtual outcome.
    pub result: OpResult,
    /// Host seconds from shape to verified tuned plan (search, build,
    /// verify).
    pub plan_s: f64,
}

/// Runs the pipeline on one operator. Untraced, verification is the
/// public `check_static` gate; traced, the same work is split into its
/// two public halves (`model_of_plan`, `planverify::verify`) so each
/// gets a span.
pub fn run(op: &Operator, tr: &mut Tracer) -> Timed {
    tr.span("operator", |tr| {
        let started = Instant::now();
        let planned = tr.span("plan", |tr| plan_and_verify(op, tr));
        let plan_s = started.elapsed().as_secs_f64();
        let (plan, mut result) = planned;
        if let Some(plan) = plan {
            execute(op, &plan, &mut result, tr);
        }
        Timed { result, plan_s }
    })
}

fn plan_and_verify(op: &Operator, tr: &mut Tracer) -> (Option<OverlapPlan>, OpResult) {
    let tuned = tr.span("tuner.search", |_| {
        predictive_search(op.dims, op.pattern.primitive(), &op.system)
    });
    let mut result = OpResult {
        verdict: Verdict::Executed,
        flash_ns: 0,
        base_ns: 0,
        predicted_ns: tuned.latency.as_nanos(),
        candidates: tuned.evaluated as u64,
        waits: 0,
        tiles: 0,
    };
    let plan = tr.span("plan.new", |_| {
        OverlapPlan::new(
            op.dims,
            op.pattern.clone(),
            op.system.clone(),
            tuned.partition,
        )
    });
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            result.verdict = Verdict::Error(format!("{}: plan: {e}", op.label));
            return (None, result);
        }
    };
    let verified = if tr.is_on() {
        let model = tr.span("verify.lower", |_| model_of_plan(&plan));
        let report = tr.span("verify.check", |_| planverify::verify(&model));
        result.waits = report.stats.waits as u64;
        result.tiles = report.stats.tiles as u64;
        // The context `check_static` names, so both paths word a
        // rejection identically.
        let context = format!(
            "{}x{}x{} {:?}",
            plan.dims.m,
            plan.dims.n,
            plan.dims.k,
            plan.primitive()
        );
        reject_if_invalid(&report, &context)
    } else {
        plan.check_static()
    };
    match verified {
        Ok(()) => (Some(plan), result),
        Err(e) => {
            result.verdict = Verdict::Rejected(e.to_string());
            (None, result)
        }
    }
}

fn execute(op: &Operator, plan: &OverlapPlan, result: &mut OpResult, tr: &mut Tracer) {
    let flash = tr.span("exec.plan", |_| plan.execute_with(&ExecOptions::new()));
    let base = tr.span("baseline.nonoverlap", |_| {
        baselines::run_nonoverlap(op.dims, &op.pattern, &op.system)
    });
    match (flash, base) {
        (Ok(flash), Ok(base)) => {
            result.flash_ns = flash.report.latency.as_nanos();
            result.base_ns = base.as_nanos();
        }
        (Err(e), _) | (_, Err(e)) => {
            result.verdict = Verdict::Error(format!("{}: execute: {e}", op.label));
        }
    }
}

/// Operators whose best plan time is at most this are re-timed in every
/// round of [`PlanTimes::probe`]: every operator up to twice the median
/// on every workload.
const PROBE_CAP_S: f64 = 0.010;

/// Operators ranked up to this many below the tail are re-timed in every
/// round of [`PlanTimes::probe`], with the one just above it: their best
/// times decide the tail.
const TAIL_WINDOW: usize = 2;

/// Best shape-to-verified-plan host time of each operator over a run,
/// the samples `plan_mean_ms` and `plan_tail_ms` are taken from. Planning
/// is bound by memory latency, and the host's memory system is shared
/// with other tenants: for seconds or minutes at a time the same plan
/// takes up to twice as long. A single timing therefore measures the neighbours; an
/// operator's best over timings spread through the run measures the
/// planner.
#[derive(Debug)]
pub struct PlanTimes {
    best: Vec<f64>,
}

impl PlanTimes {
    /// No timing yet for any of `n` operators.
    pub fn new(n: usize) -> Self {
        Self {
            best: vec![f64::INFINITY; n],
        }
    }

    /// Keeps `plan_s` if it is operator `i`'s best so far.
    pub fn record(&mut self, i: usize, plan_s: f64) {
        self.best[i] = self.best[i].min(plan_s);
    }

    /// Each operator's best time (infinite for one never timed).
    pub fn best(&self) -> &[f64] {
        &self.best
    }

    /// The tail `plan_tail_ms` reports: the highest of p99, p95 and p90
    /// with at least ten operators beyond it, or the slowest operator
    /// when there are too few for p90. Returns its name, its 0-based
    /// rank among the sorted best times, and its value.
    pub fn tail(&self) -> (String, usize, f64) {
        let n = self.best.len();
        match crate::host::supported_tail(&self.best) {
            (p, value, beyond) if p >= 0.90 => {
                (format!("p{:.0}", p * 100.0), n - beyond - 1, value)
            }
            _ => (
                "max".to_string(),
                n - 1,
                crate::host::percentile(&self.best, 1.0),
            ),
        }
    }

    /// Re-times `ops` (the operators this records) for `rounds` rounds:
    /// each round every operator whose best is within [`PROBE_CAP_S`] and,
    /// once every operator has been timed, those ranked from
    /// [`TAIL_WINDOW`] below the tail to one above it.
    pub fn probe(&mut self, ops: &[Operator], rounds: usize) {
        for _ in 0..rounds {
            let mut order: Vec<usize> = (0..ops.len()).collect();
            order.sort_by(|&a, &b| self.best[a].total_cmp(&self.best[b]));
            let window = if self.best.iter().all(|t| t.is_finite()) {
                let rank = self.tail().1;
                &order[rank.saturating_sub(TAIL_WINDOW)..(rank + 2).min(order.len())]
            } else {
                &[]
            };
            for (i, op) in ops.iter().enumerate() {
                if self.best[i] <= PROBE_CAP_S || window.contains(&i) {
                    let started = Instant::now();
                    std::hint::black_box(plan_and_verify(op, &mut Tracer::off()));
                    self.record(i, started.elapsed().as_secs_f64());
                }
            }
        }
    }
}

/// Layer probes that would perturb the timed pass: the predictor build
/// that `predictive_search` performs internally, and a traced execute
/// that counts simulated operations. Returns the span count (zero for
/// operators whose plan is not executed).
pub fn probe(op: &Operator, executed: bool, tr: &mut Tracer) -> u64 {
    tr.span("probe", |tr| {
        tr.span("predictor.build", |_| {
            LatencyPredictor::build(op.dims, op.pattern.primitive(), &op.system)
        });
        if !executed {
            return 0;
        }
        let tuned = predictive_search(op.dims, op.pattern.primitive(), &op.system);
        OverlapPlan::new(
            op.dims,
            op.pattern.clone(),
            op.system.clone(),
            tuned.partition,
        )
        .and_then(|plan| plan.execute_with(&ExecOptions::new().trace()))
        .map_or(0, |out| out.spans.len() as u64)
    })
}

/// Virtual-time summary of a set of operator results, shared by every
/// workload's end-to-end report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Operators attempted.
    pub attempted: usize,
    /// Operators verified and executed.
    pub executed: usize,
    /// Operators the verifier rejected.
    pub rejected: usize,
    /// Operators that errored.
    pub errors: usize,
    /// Mean speedup of the tuned plan over non-overlap.
    pub speedup_mean: f64,
    /// Largest such speedup.
    pub speedup_max: f64,
    /// Mean |predicted − simulated| / simulated latency.
    pub pred_err_mean: f64,
}

/// Summarizes `results`. Speedup and prediction error cover executed
/// operators only.
pub fn summarize(results: &[OpResult]) -> Summary {
    let executed: Vec<&OpResult> = results
        .iter()
        .filter(|r| r.verdict == Verdict::Executed)
        .collect();
    let speedups: Vec<f64> = executed
        .iter()
        .map(|r| r.base_ns as f64 / r.flash_ns.max(1) as f64)
        .collect();
    let errors: Vec<f64> = executed
        .iter()
        .map(|r| (r.predicted_ns as f64 - r.flash_ns as f64).abs() / r.flash_ns.max(1) as f64)
        .collect();
    let nonempty = |v: &[f64], f: fn(&[f64]) -> f64| if v.is_empty() { 0.0 } else { f(v) };
    Summary {
        attempted: results.len(),
        executed: executed.len(),
        rejected: results
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Rejected(_)))
            .count(),
        errors: results
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Error(_)))
            .count(),
        speedup_mean: nonempty(&speedups, crate::host::mean),
        speedup_max: nonempty(&speedups, |v| v.iter().copied().fold(f64::MIN, f64::max)),
        pred_err_mean: nonempty(&errors, crate::host::mean),
    }
}

/// Scale-down of a sampled operator for the functional check: a full
/// Fig. 9 GEMM is billions of multiply-adds per rank on the host, so the
/// check runs the same primitive and GPU count at `dims / FUNCTIONAL_DIV`
/// on the 8-SM test architecture, where the tuner still picks
/// multi-group plans.
const FUNCTIONAL_DIV: u32 = 32;

/// Runs each operator of `sample` functionally at reduced size
/// (`ExecOptions::functional`) and compares every rank's output with a
/// reference computed by `tensor::gemm` from the same inputs. Returns
/// how many operators were checked, or the first mismatch.
pub fn functional_check(sample: &[Operator], seed: u64) -> Result<usize, String> {
    let mut checked = 0;
    for op in sample {
        let n = op.system.n_gpus;
        let scale = |v: u32, min: u32| (v / FUNCTIONAL_DIV).max(min);
        let dims = GemmDims::new(
            scale(op.dims.m, 64),
            scale(op.dims.n, 64),
            scale(op.dims.k, 32),
        );
        let mut system = op.system.clone();
        system.arch.sm_count = 8;
        system.comm_sms = 2;
        let pattern = match &op.pattern {
            CommPattern::AllToAll { .. } => CommPattern::AllToAll {
                routing: workloads::balanced_routing(dims.m as usize, n, seed),
            },
            other => other.clone(),
        };
        let label = format!(
            "{} (functional at {}x{}x{})",
            op.label, dims.m, dims.n, dims.k
        );
        let tuned = predictive_search(dims, pattern.primitive(), &system);
        let plan = OverlapPlan::new(dims, pattern.clone(), system, tuned.partition)
            .map_err(|e| format!("{label}: plan: {e}"))?;
        if plan.check_static().is_err() {
            // Rejected plans are never executed; the sweep reports them.
            continue;
        }
        let inputs = FunctionalInputs::random(dims, n, seed ^ 0xF00D);
        let outputs = plan
            .execute_with(&ExecOptions::new().functional(&inputs))
            .map_err(|e| format!("{label}: execute: {e}"))?
            .outputs
            .ok_or_else(|| format!("{label}: functional run returned no outputs"))?;
        let expected = reference(&inputs, &pattern, n);
        if outputs.len() != expected.len() {
            return Err(format!(
                "{label}: {} rank outputs, expected {}",
                outputs.len(),
                expected.len()
            ));
        }
        for (rank, (got, want)) in outputs.iter().zip(&expected).enumerate() {
            if (got.rows(), got.cols()) != (want.rows(), want.cols()) || !allclose(got, want, 1e-2)
            {
                return Err(format!(
                    "{label}: rank {rank} output differs from reference"
                ));
            }
        }
        checked += 1;
    }
    Ok(checked)
}

/// Per-rank expected outputs, computed directly from the inputs: the
/// reduced sum for AllReduce, rows `r % n == rank` of it for
/// ReduceScatter, and the tokens routed to `rank` (source-major,
/// row-ascending) for All-to-All.
fn reference(inputs: &FunctionalInputs, pattern: &CommPattern, n: usize) -> Vec<Matrix> {
    let products: Vec<Matrix> = inputs
        .a
        .iter()
        .zip(&inputs.b)
        .map(|(a, b)| gemm(a, b))
        .collect();
    let sum = || {
        let mut acc = products[0].clone();
        for p in &products[1..] {
            acc = acc.add(p);
        }
        acc
    };
    let pick = |rows: Vec<&[f32]>, cols: usize| {
        let data: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Matrix::from_vec(rows.len(), cols, data)
    };
    match pattern {
        CommPattern::AllReduce => vec![sum(); n],
        CommPattern::ReduceScatter => {
            let total = sum();
            (0..n)
                .map(|rank| {
                    let rows = (rank..total.rows())
                        .step_by(n)
                        .map(|r| total.row(r))
                        .collect();
                    pick(rows, total.cols())
                })
                .collect()
        }
        CommPattern::AllToAll { routing } => (0..n)
            .map(|rank| {
                let mut rows = Vec::new();
                for (src, table) in routing.iter().enumerate() {
                    for (row, &dest) in table.iter().enumerate() {
                        if dest == rank {
                            rows.push(products[src].row(row));
                        }
                    }
                }
                pick(rows, products[0].cols())
            })
            .collect(),
        CommPattern::AllGather => unreachable!("no workload runs AllGather"),
    }
}
