//! Property-based fault campaign: for arbitrary problem shapes and
//! deterministic random fault plans, a resilient run must terminate and
//! deliver either bit-exact outputs or a structured `Degraded` verdict
//! with a non-empty cause — never a hang, never silent corruption.

use flashoverlap::resilience::{FaultPlan, ResilientOutcome, WatchdogConfig};
use flashoverlap::runtime::{CommPattern, FunctionalInputs};
use flashoverlap::{
    execute_sequence, ExecOptions, OverlapPlan, Pipeline, PipelineExecOptions, SequenceOptions,
    SystemSpec, WavePartition,
};
use gpu_sim::gemm::{GemmConfig, GemmDims};
use proptest::prelude::*;

fn plan_for(m: u32, n: u32, k: u32, gpus: usize) -> OverlapPlan {
    let dims = GemmDims::new(m, n, k);
    let mut system = SystemSpec::rtx4090(gpus);
    system.arch.sm_count = 8;
    system.comm_sms = 2;
    let config = GemmConfig::choose(dims, &system.arch);
    let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
    OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system,
        WavePartition::per_wave(waves),
    )
    .expect("valid plan")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every seeded fault plan terminates with an accounted-for verdict:
    /// `Clean`/`Recovered` runs are bit-exact against the fault-free
    /// functional reference, and `Degraded` runs name their cause.
    #[test]
    fn seeded_fault_campaigns_terminate_accountably(
        m in prop::sample::select(vec![128u32, 256, 384]),
        n in prop::sample::select(vec![128u32, 256]),
        gpus in prop::sample::select(vec![2usize, 3]),
        seed in any::<u64>(),
    ) {
        let plan = plan_for(m, n, 64, gpus);
        let num_groups = plan.partition.num_groups();
        let inputs = FunctionalInputs::random(plan.dims, gpus, seed ^ 0x9e37);
        let reference = plan
            .execute_with(&ExecOptions::new().functional(&inputs))
            .expect("reference run");
        let reference_outputs = reference.outputs.unwrap_or_default();
        let faults = FaultPlan::random(seed, gpus, num_groups);
        prop_assert!(!faults.is_empty());

        let run = plan
            .execute_with(
                &ExecOptions::new()
                    .functional(&inputs)
                    .resilient(&faults, &WatchdogConfig::default()),
            )
            .expect("resilient run terminates");

        let run_outputs = run.outputs.clone().unwrap_or_default();
        let bit_exact = run_outputs.len() == reference_outputs.len()
            && run_outputs
                .iter()
                .zip(reference_outputs.iter())
                .all(|(a, b)| a.as_slice() == b.as_slice());
        match &run.outcome {
            ResilientOutcome::Clean => prop_assert!(bit_exact, "clean run must be bit-exact"),
            ResilientOutcome::Recovered { tail_groups, .. } => {
                prop_assert!(bit_exact, "recovered run must be bit-exact");
                prop_assert!(!tail_groups.is_empty(), "recovery must name its groups");
            }
            ResilientOutcome::Degraded { cause, .. } => {
                prop_assert!(!cause.is_empty(), "degraded verdict must carry a cause");
                prop_assert!(bit_exact, "degraded fallback still reads complete tiles");
            }
        }
    }

    /// The same seed always yields the same verdict and latency — fault
    /// campaigns are replayable.
    #[test]
    fn fault_campaigns_are_replayable(seed in any::<u64>()) {
        let plan = plan_for(256, 256, 64, 2);
        let faults = FaultPlan::random(seed, 2, plan.partition.num_groups());
        let a = plan
            .execute_with(&ExecOptions::new().resilient(&faults, &WatchdogConfig::default()))
            .expect("first run");
        let b = plan
            .execute_with(&ExecOptions::new().resilient(&faults, &WatchdogConfig::default()))
            .expect("second run");
        prop_assert_eq!(&a.outcome, &b.outcome);
        prop_assert_eq!(a.report.latency, b.report.latency);
        prop_assert_eq!(a.events.len(), b.events.len());
    }

    /// A single plan is a chain of one: its resilient run, the same plan
    /// as a one-batch sequence and as a one-layer pipeline reach the same
    /// verdict, latency and outputs under every seeded fault plan.
    #[test]
    fn resilient_single_plan_is_a_chain_of_one(seed in any::<u64>()) {
        let plan = plan_for(256, 256, 64, 2);
        let faults = FaultPlan::random(seed, 2, plan.partition.num_groups());
        let watchdog = WatchdogConfig::default();
        let inputs = FunctionalInputs::random(plan.dims, 2, seed ^ 0x51);
        let single = plan
            .execute_with(&ExecOptions::new().functional(&inputs).resilient(&faults, &watchdog))
            .expect("single plan");
        let sequence = execute_sequence(
            &[&plan],
            &SequenceOptions::new()
                .functional(std::slice::from_ref(&inputs))
                .resilient(std::slice::from_ref(&faults), &watchdog),
        )
        .expect("sequence of one");
        let pipeline = Pipeline::with_plans(plan.system.clone(), vec![plan_for(256, 256, 64, 2)], vec![None])
            .expect("pipeline of one");
        let layer = pipeline
            .execute_with(
                &PipelineExecOptions::new()
                    .functional(&inputs.a, std::slice::from_ref(&inputs.b))
                    .resilient(std::slice::from_ref(&faults), &watchdog),
            )
            .expect("pipeline of one");
        for (label, latency, outputs) in [
            (sequence.outcomes[0].label(), sequence.reports[0].latency, sequence.outputs.map(|mut o| o.remove(0))),
            (layer.outcomes[0].label(), layer.report.layers[0].latency, layer.outputs),
        ] {
            prop_assert_eq!(label, single.outcome.label());
            prop_assert_eq!(latency, single.report.latency);
            prop_assert_eq!(&outputs, &single.outputs);
        }
    }
}
