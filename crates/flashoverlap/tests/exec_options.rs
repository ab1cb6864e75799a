//! Builder-equivalence coverage for the unified `execute_with` entry
//! point on [`OverlapPlan`] and [`Pipeline`].
//!
//! The per-mode `execute*` shims are gone; these tests pin the option
//! builder's composition rules instead: each mode combination must
//! produce the same report whether the options are chained in one
//! expression or built up piecewise, trace/instrument toggles must not
//! perturb timing, and equivalent functional/resilient configurations
//! must agree with their timing-only counterparts.

#![allow(clippy::unwrap_used)]

use std::rc::Rc;

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, ExecOptions, FaultPlan, FunctionalInputs, Instrumentation, LayerSpec,
    OverlapPlan, Pipeline, PipelineExecOptions, SequenceOptions, SystemSpec, WatchdogConfig,
};
use gpu_sim::elementwise::ElementwiseOp;
use gpu_sim::gemm::GemmDims;
use tensor::Matrix;

fn small_system() -> SystemSpec {
    let mut spec = SystemSpec::rtx4090(2);
    spec.arch.sm_count = 8;
    spec.comm_sms = 2;
    spec
}

fn plan() -> OverlapPlan {
    OverlapPlan::tuned(
        GemmDims::new(256, 256, 64),
        CommPattern::AllReduce,
        small_system(),
    )
    .unwrap()
}

#[test]
fn observation_options_do_not_perturb_timing() {
    // Attaching instrumentation and/or span tracing is observation
    // only: every combination must report the identical schedule.
    let plan = plan();
    let baseline = plan.execute_with(&ExecOptions::new()).unwrap();
    let instr = Instrumentation::default();

    let traced = plan.execute_with(&ExecOptions::new().trace()).unwrap();
    assert_eq!(traced.report, baseline.report);
    assert!(!traced.spans.is_empty(), "trace() records spans");
    assert!(
        baseline.spans.is_empty(),
        "spans stay empty unless requested"
    );

    let instrumented = plan
        .execute_with(&ExecOptions::new().instrument(&instr))
        .unwrap();
    assert_eq!(instrumented.report, baseline.report);

    let both = plan
        .execute_with(&ExecOptions::new().instrument(&instr).trace())
        .unwrap();
    assert_eq!(both.report, baseline.report);
    assert_eq!(both.spans, traced.spans);
}

#[test]
fn builder_order_is_immaterial() {
    // The builder only fills fields; chaining order must not matter.
    let plan = plan();
    let inputs = FunctionalInputs::random(plan.dims, 2, 42);
    let op = ElementwiseOp::Relu;
    let a = plan
        .execute_with(&ExecOptions::new().functional(&inputs).epilogue(&op))
        .unwrap();
    let b = plan
        .execute_with(&ExecOptions::new().epilogue(&op).functional(&inputs))
        .unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.outputs, b.outputs);
}

#[test]
fn functional_and_epilogue_modes_compose() {
    let plan = plan();
    let inputs = FunctionalInputs::random(plan.dims, 2, 42);
    let op = ElementwiseOp::Relu;

    let functional = plan
        .execute_with(&ExecOptions::new().functional(&inputs))
        .unwrap();
    let outputs = functional.outputs.as_ref().unwrap();
    assert_eq!(outputs.len(), 2, "one logical output per rank");

    // The fused epilogue applies the op to the functional output: Relu
    // of the plain output must equal the fused run's output.
    let fused = plan
        .execute_with(&ExecOptions::new().functional(&inputs).epilogue(&op))
        .unwrap();
    let fused_outputs = fused.outputs.as_ref().unwrap();
    for (plain, fused) in outputs.iter().zip(fused_outputs) {
        let expected: Vec<f32> = plain.as_slice().iter().map(|&v| v.max(0.0)).collect();
        assert_eq!(fused.as_slice(), &expected[..]);
    }

    // Epilogue-only runs stay timing-only (no outputs) but still pay
    // the fused kernel, so their report is self-consistent.
    let epilogue_only = plan
        .execute_with(&ExecOptions::new().epilogue(&op))
        .unwrap();
    assert!(epilogue_only.outputs.is_none());
    assert_eq!(epilogue_only.report, fused.report);
}

#[test]
fn iteration_mode_reports_steady_state() {
    let plan = plan();
    let instr = Instrumentation::default();
    let steady = plan
        .execute_with(&ExecOptions::new().iterations(3))
        .unwrap()
        .steady_state
        .unwrap();
    let instrumented = plan
        .execute_with(&ExecOptions::new().iterations(3).instrument(&instr))
        .unwrap()
        .steady_state
        .unwrap();
    assert_eq!(steady, instrumented);
    // Steady-state per-iteration latency never exceeds a cold single
    // run (pipelining can only help).
    let single = plan.execute_with(&ExecOptions::new()).unwrap();
    assert!(steady <= single.report.latency);
}

#[test]
fn resilient_mode_composes_with_functional_and_trace() {
    let plan = plan();
    let faults = FaultPlan::random(9, 2, plan.partition.num_groups());
    let watchdog = WatchdogConfig::default();
    let inputs = FunctionalInputs::random(plan.dims, 2, 43);

    let timing = plan
        .execute_with(&ExecOptions::new().resilient(&faults, &watchdog))
        .unwrap();
    let functional = plan
        .execute_with(
            &ExecOptions::new()
                .functional(&inputs)
                .resilient(&faults, &watchdog),
        )
        .unwrap();
    // The fault plan and watchdog policy are deterministic, so the
    // timing-only and data-carrying runs reach the same outcome with
    // the same injected-fault count.
    assert_eq!(timing.outcome, functional.outcome);
    assert_eq!(timing.faults_armed, functional.faults_armed);
    assert!(functional.outputs.is_some());

    let traced = plan
        .execute_with(&ExecOptions::new().resilient(&faults, &watchdog).trace())
        .unwrap();
    assert_eq!(traced.outcome, timing.outcome);
    assert!(!traced.spans.is_empty(), "resilient trace records spans");
}

#[test]
fn invalid_mode_combinations_are_rejected() {
    let plan = plan();
    let op = ElementwiseOp::Relu;
    // iterations is timing-only: epilogue and trace must be refused
    // rather than silently dropped.
    assert!(plan
        .execute_with(&ExecOptions::new().iterations(2).epilogue(&op))
        .is_err());
    assert!(plan
        .execute_with(&ExecOptions::new().iterations(2).trace())
        .is_err());
    assert!(plan
        .execute_with(&ExecOptions::new().iterations(0))
        .is_err());
    // Mutation and dropped-edge targets that name no batch (or no table
    // reuse) would inject nothing, so a sanitizer self-test would pass
    // without testing anything: they are refused instead.
    let refs = [&plan, &plan, &plan];
    for options in [
        SequenceOptions::new().mutation_batch(3),
        SequenceOptions::new().drop_cross_batch_edge(0),
        SequenceOptions::new().drop_cross_batch_edge(1),
        SequenceOptions::new().drop_cross_batch_edge(3),
    ] {
        assert!(
            matches!(
                execute_sequence(&refs, &options),
                Err(flashoverlap::FlashOverlapError::BadInputs { .. })
            ),
            "{options:?} must be rejected"
        );
    }
    assert!(execute_sequence(&refs, &SequenceOptions::new().mutation_batch(2)).is_ok());
    assert!(execute_sequence(&refs, &SequenceOptions::new().drop_cross_batch_edge(2)).is_ok());
}

#[test]
fn single_plan_is_a_chain_of_one() {
    // `execute_with` describes a chain of one segment: the sequence and
    // pipeline entry points given the same single segment must report
    // the same schedule, spans and data.
    let plan = plan();
    let inputs = FunctionalInputs::random(plan.dims, 2, 44);
    let single = plan
        .execute_with(&ExecOptions::new().functional(&inputs).trace())
        .unwrap();
    let sequence = execute_sequence(
        &[&plan],
        &SequenceOptions::new()
            .functional(std::slice::from_ref(&inputs))
            .trace(),
    )
    .unwrap();
    assert_eq!(sequence.reports, vec![single.report.clone()]);
    assert_eq!(sequence.spans, single.spans);
    assert_eq!(sequence.outputs, single.outputs.map(|o| vec![o]));

    let op = ElementwiseOp::Relu;
    let fused = plan
        .execute_with(&ExecOptions::new().functional(&inputs).epilogue(&op))
        .unwrap();
    let pipeline =
        Pipeline::with_plans(small_system(), vec![plan], vec![Some(op.clone())]).unwrap();
    let layer = pipeline
        .execute_with(
            &PipelineExecOptions::new().functional(&inputs.a, std::slice::from_ref(&inputs.b)),
        )
        .unwrap();
    assert_eq!(layer.report.layers, vec![fused.report]);
    assert_eq!(layer.outputs, fused.outputs);
}

fn pipeline() -> Pipeline {
    Pipeline::tuned(
        small_system(),
        vec![
            LayerSpec {
                dims: GemmDims::new(256, 128, 64),
                pattern: CommPattern::AllReduce,
                epilogue: Some(ElementwiseOp::RmsNorm {
                    weight: Rc::new(vec![1.0; 128]),
                    eps: 1e-6,
                }),
            },
            LayerSpec {
                dims: GemmDims::new(256, 64, 128),
                pattern: CommPattern::AllReduce,
                epilogue: None,
            },
        ],
    )
    .unwrap()
}

#[test]
fn pipeline_options_mirror_plan_options() {
    let pipeline = pipeline();
    let baseline = pipeline.execute_with(&PipelineExecOptions::new()).unwrap();

    let instr = Instrumentation::default();
    let instrumented = pipeline
        .execute_with(
            &PipelineExecOptions::new()
                .instrument(&instr)
                .mutate_layer(0),
        )
        .unwrap();
    assert_eq!(instrumented.report, baseline.report);

    let mut rng = sim::DetRng::new(5);
    let first_a: Vec<Matrix> = (0..2).map(|_| Matrix::random(256, 64, &mut rng)).collect();
    let weights: Vec<Vec<Matrix>> = vec![
        (0..2).map(|_| Matrix::random(64, 128, &mut rng)).collect(),
        (0..2).map(|_| Matrix::random(128, 64, &mut rng)).collect(),
    ];
    let functional = pipeline
        .execute_with(&PipelineExecOptions::new().functional(&first_a, &weights))
        .unwrap();
    assert_eq!(functional.report, baseline.report);
    assert_eq!(
        functional.outputs.as_ref().map(Vec::len),
        Some(2),
        "one final-layer output per rank"
    );
}
