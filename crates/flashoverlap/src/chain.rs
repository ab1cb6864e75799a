//! The chain executor: the one code path that enqueues and drives a
//! program. [`OverlapPlan::execute_with`](crate::OverlapPlan::execute_with),
//! [`Pipeline::execute_with`](crate::Pipeline::execute_with) and
//! [`execute_sequence`](crate::execute_sequence) are adapters that
//! describe a chain and hand it to [`run_chain`].
//!
//! A chain is a list of [`Segment`]s: a plan with its optional
//! functional inputs, fused epilogue and [`FaultPlan`], plus the
//! [`Link`] to the segment before it. A single plan is a chain of one;
//! steady-state iterations repeat it. Every segment runs on the same
//! per-rank compute/communication stream pair. Counting tables are
//! allocated once, sized for the widest segment, and ping-ponged
//! between two sets; every reuse enqueues the rearm edges
//! (wait-previous-comm → reset → ready → comm-wait) in the signal
//! vocabulary SimSan understands. A link adds a serial barrier or a
//! data dependency on top of the rearm.
//!
//! Resilient chains run under the chain watchdog. Table reuse threads
//! counting-table state across segments, so a wedge in segment `k` could
//! silently poison every inheritor: the table `k + 2` rearms still holds
//! `k`'s armed fault budget, and the compute stream parks forever on
//! `k`'s never-recorded comm-done event. The watchdog therefore keeps
//! two rules:
//!
//! - **Table quarantine.** Before a segment's first increment can land,
//!   a compute-stream callback disarms whatever fault budget the
//!   previous same-parity segment left on the inherited table
//!   ([`gpu_sim::CounterTable::disarm_faults`]) and only then arms the
//!   segment's own faults. A fault armed for segment `k` can therefore
//!   never leak into segment `k + 2`.
//! - **Recovery completes the rearm protocol.** Breaking a wedge at
//!   frontier segment `k` aborts the starved communication state, re-
//!   issues `k`'s incomplete groups as tail/bulk collectives (safe: the
//!   GEMM main loop retired, so packed buffers are complete), re-records
//!   `k`'s comm-side events *with the same event ids* so parked compute
//!   streams wake into their rearm edges, and re-enqueues every later
//!   segment's communication program behind its rearm-ready gate — so
//!   downstream parity stays sound and the chain stays bit-exact.
//!
//! The watchdog deadline is calibrated per segment: each segment gets a
//! predictor-derived budget, and the frontier advancing into a new
//! segment re-bases the deadline without consuming a retry.
#![warn(clippy::indexing_slicing)]

use std::cell::RefCell;
use std::rc::Rc;

use collectives::CollectiveRole;
use gpu_sim::elementwise::ElementwiseOp;
use gpu_sim::stream::{
    abort_counter_waits, enqueue, Callback, Delay, RecordEvent, ResetCounter, WaitCounter,
    WaitEvent,
};
use gpu_sim::{
    Cluster, ClusterSim, GpuEventId, IncrementFault, RuntimeEvent, RuntimeEventKind, StuckWait,
};
use sim::{Sim, SimDuration, SimTime};

use crate::error::{ChainPosition, FlashOverlapError};
use crate::resilience::{Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
use crate::runtime::{FunctionalInputs, Instrumentation, OverlapPlan, ProgramHandles, StreamCtx};
use crate::sequence::SequenceOutcome;

/// How a segment is ordered behind the one before it, on top of the
/// table rearm every link enqueues on reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Link {
    /// Cross-batch pipelining: the GEMM issues as soon as the previous
    /// GEMM retires, while the previous collectives still drain.
    Pipelined,
    /// Serial barrier: the GEMM waits until the previous segment's
    /// collectives drained.
    Barrier,
    /// Data dependency: the GEMM reads the previous segment's fused
    /// epilogue output (pipeline layers).
    Data,
}

/// One segment of a chain.
pub(crate) struct Segment<'a> {
    pub(crate) plan: &'a OverlapPlan,
    pub(crate) inputs: Option<&'a FunctionalInputs>,
    pub(crate) epilogue: Option<&'a ElementwiseOp>,
    /// Faults armed at the segment's position (resilient chains only).
    pub(crate) faults: &'a FaultPlan,
    /// The link to the previous segment (ignored on the first).
    pub(crate) link: Link,
}

/// Chain-wide modes.
pub(crate) struct ChainOptions<'a> {
    pub(crate) instrument: Option<&'a Instrumentation>,
    pub(crate) trace: bool,
    /// Runs under the chain watchdog with every segment's faults armed.
    pub(crate) watchdog: Option<&'a WatchdogConfig>,
    /// The segment a seeded [`crate::SignalMutation`] applies to.
    pub(crate) mutation_segment: usize,
    /// The segment whose table rearm is deliberately skipped (the
    /// sanitizer self-test behind `SequenceOptions::drop_cross_batch_edge`).
    pub(crate) drop_rearm: Option<usize>,
}

/// The fault plan of a segment that injects nothing.
pub(crate) static NO_FAULTS: FaultPlan = FaultPlan { faults: Vec::new() };

/// Pairs an optional resilient fault list with a chain of `len`
/// segments: exactly one plan per segment, or none at all.
pub(crate) fn segment_faults(
    faults: Option<&[FaultPlan]>,
    len: usize,
) -> Result<Vec<&FaultPlan>, FlashOverlapError> {
    match faults {
        None => Ok(vec![&NO_FAULTS; len]),
        Some(faults) if faults.len() == len => Ok(faults.iter().collect()),
        Some(faults) => Err(FlashOverlapError::BadInputs {
            reason: format!(
                "{} fault plans for {len} chain segments (one per segment required)",
                faults.len()
            ),
        }),
    }
}

/// Enqueues `segments` on one simulated cluster and drives them to
/// termination: under the chain watchdog when `options.watchdog` is set,
/// otherwise until the event queue drains, followed by a quiescence
/// check. Instrumented runs skip that check: a wedge a seeded
/// [`crate::SignalMutation`] or a dropped rearm causes is left for the attached
/// probe to report at drain time.
///
/// # Errors
///
/// Returns [`FlashOverlapError::BadInputs`] on an empty chain,
/// mismatched rank counts, malformed inputs, epilogues or fault targets,
/// a mutation target outside the chain, or modes that do not compose;
/// [`FlashOverlapError::Deadlock`] when an uninstrumented schedule
/// wedges; and [`FlashOverlapError::Simulation`] on engine failure.
pub(crate) fn run_chain(
    segments: &[Segment],
    options: &ChainOptions,
) -> Result<SequenceOutcome, FlashOverlapError> {
    let first = validate(segments, options)?;
    let default_instr = Instrumentation::default();
    let instr = options.instrument.unwrap_or(&default_instr);
    let mut world = first.plan.system.build_cluster(first.inputs.is_some());
    if options.trace {
        world.enable_op_spans();
    }
    if let Some(monitor) = &instr.monitor {
        world.set_monitor(Rc::clone(monitor));
    }
    let mut sim: ClusterSim = Sim::new();
    if let Some(probe) = &instr.probe {
        sim.set_probe(Rc::clone(probe));
    }
    // Cluster-level faults (degraded links, stalls, stragglers) exist
    // before the chain starts, whichever segment armed them.
    let log: EventLog = Rc::default();
    let faults_armed = match options.watchdog {
        Some(_) => arm_cluster_faults(&mut world, &sim, segments, &log),
        None => 0,
    };
    let streams = StreamCtx::create(&mut world, first.plan.system.n_gpus);
    let enqueued = enqueue_chain(&mut world, &mut sim, &streams, segments, options, &log);
    let (end, outcomes) = match options.watchdog {
        Some(watchdog) => {
            let run = drive_chain(&mut world, &mut sim, &enqueued, &streams, watchdog, &log)?;
            (run.end, run.outcomes)
        }
        None => {
            let end = sim.run(&mut world)?;
            let instrumented =
                instr.monitor.is_some() || instr.probe.is_some() || instr.mutation.is_some();
            if !instrumented && options.drop_rearm.is_none() {
                check_quiescent_chain(&world, &enqueued)?;
            }
            (end, vec![ResilientOutcome::Clean; segments.len()])
        }
    };
    let spans = if options.trace {
        world.op_spans.take().unwrap_or_default()
    } else {
        Vec::new()
    };
    let outputs = first.inputs.is_some().then(|| {
        enqueued
            .iter()
            .map(|seg| seg.plan.extract_outputs(&world, &seg.handles))
            .collect()
    });
    Ok(SequenceOutcome {
        total: end - SimTime::ZERO,
        reports: enqueued
            .iter()
            .map(|seg| seg.handles.probes.report())
            .collect(),
        spans,
        outputs,
        outcomes,
        events: log.take(),
        faults_armed,
    })
}

/// Checks a chain before anything is enqueued; returns its first
/// segment.
fn validate<'s, 'a>(
    segments: &'s [Segment<'a>],
    options: &ChainOptions,
) -> Result<&'s Segment<'a>, FlashOverlapError> {
    let bad = |reason: String| Err(FlashOverlapError::BadInputs { reason });
    let Some(first) = segments.first() else {
        return bad("a chain needs at least one plan".into());
    };
    let (n, len) = (first.plan.system.n_gpus, segments.len());
    for (i, seg) in segments.iter().enumerate() {
        if seg.plan.system.n_gpus != n {
            return bad(format!(
                "plan {i} targets {} ranks but the chain runs on {n}",
                seg.plan.system.n_gpus
            ));
        }
        if let Some(inputs) = seg.inputs {
            seg.plan.check_inputs(inputs)?;
        }
        if let Some(op) = seg.epilogue {
            seg.plan.validate_epilogue(op)?;
        }
        seg.faults.validate(n, seg.plan.group_tile_counts().len())?;
    }
    if options.mutation_segment >= len {
        return bad(format!(
            "mutation targets segment {} of a {len}-segment chain",
            options.mutation_segment
        ));
    }
    if let Some(i) = options.drop_rearm {
        if !(2..len).contains(&i) {
            return bad(format!(
                "no table rearm to drop at segment {i}: a {len}-segment chain \
                 rearms segments 2..{len}"
            ));
        }
    }
    if options.watchdog.is_some() {
        if options
            .instrument
            .is_some_and(|i| i.probe.is_some() || i.mutation.is_some())
        {
            return bad("resilient chains inject faults through FaultPlan, \
                        not probes or signal mutations"
                .into());
        }
        if options.drop_rearm.is_some() {
            return bad("drop_cross_batch_edge is a sanitizer self-test, \
                        incompatible with resilient execution"
                .into());
        }
    }
    Ok(first)
}

/// One of the two ping-ponged counting-table sets: per-rank tables and
/// the comm-done events of the segment that last used them.
struct TableSet {
    tables: Vec<usize>,
    last_use: Option<Vec<GpuEventId>>,
}

/// Enqueues every segment on `streams`, in chain order.
fn enqueue_chain<'a>(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    streams: &StreamCtx,
    segments: &[Segment<'a>],
    options: &ChainOptions,
    log: &EventLog,
) -> Vec<ChainSegment<'a>> {
    let mutation = options.instrument.and_then(|i| i.mutation);
    // Tables sized for the widest segment: a reset clears every slot, so
    // a narrower segment simply leaves the tail slots untouched.
    let max_groups = segments
        .iter()
        .map(|s| s.plan.group_tile_counts().len())
        .max()
        .unwrap_or(0);
    let (mut even, mut odd): (Option<TableSet>, Option<TableSet>) = (None, None);
    let mut enqueued: Vec<ChainSegment<'a>> = Vec::with_capacity(segments.len());
    for (i, seg) in segments.iter().enumerate() {
        let parity = i % 2;
        let set = if parity == 0 { &mut even } else { &mut odd }.get_or_insert_with(|| TableSet {
            tables: world
                .devices
                .iter_mut()
                .map(|dev| dev.create_counter(max_groups))
                .collect(),
            last_use: None,
        });
        // Reuse rearms the inherited tables. Skipping the rearm leaves
        // the previous user's saturated counts in place, so this
        // segment's waits pass on stale signals and its collectives read
        // tiles the GEMM has not written — exactly what `drop_rearm`
        // injects for the sanitizer self-test.
        let ready = match set.last_use.take() {
            Some(prev) if options.drop_rearm != Some(i) => {
                Some(rearm(world, sim, streams, &set.tables, &prev))
            }
            _ => None,
        };
        if let (Link::Barrier, Some(prev)) = (seg.link, enqueued.last()) {
            // Full barrier: no GEMM wave of this segment may issue until
            // the previous segment's collectives drained.
            for (d, (&compute, &ev)) in streams.compute.iter().zip(&prev.comm_done).enumerate() {
                enqueue(world, sim, d, compute, Box::new(WaitEvent(ev)));
            }
        }
        if options.watchdog.is_some() {
            // Between the rearm (reset) and the program: the arming
            // callback quarantines leftover budget on the inherited
            // table, then arms this segment's own faults.
            enqueue_segment_faults(world, sim, streams, i, seg.faults, &set.tables, log);
        }
        let activations = match (seg.link, enqueued.last()) {
            (Link::Data, Some(prev)) if !prev.handles.epilogue_bufs.is_empty() => {
                Some(prev.handles.epilogue_bufs.as_slice())
            }
            _ => None,
        };
        let handles = seg.plan.enqueue_program_on(
            world,
            sim,
            streams,
            seg.inputs,
            seg.epilogue,
            activations,
            mutation.filter(|_| i == options.mutation_segment),
            &set.tables,
        );
        // Later segments wait on these events (rearm edges, barriers);
        // nothing waits on the last segment's, so it records none.
        let comm_done = if i + 1 < segments.len() {
            let events = new_events(world);
            for (d, (&comm, &ev)) in streams.comm.iter().zip(&events).enumerate() {
                enqueue(world, sim, d, comm, Box::new(RecordEvent(ev)));
            }
            events
        } else {
            Vec::new()
        };
        set.last_use = Some(comm_done.clone());
        enqueued.push(ChainSegment::new(
            seg.plan, handles, parity, ready, comm_done,
        ));
    }
    enqueued
}

/// Rearms a reused table set: each rank's compute stream waits for the
/// previous user's comm-done, resets its table and records a ready
/// event. The comm stream waits on that event before it consults the
/// table: a stale (pre-reset) count would satisfy the new segment's wait
/// and release its collective before any tile is written (SimSan flags
/// exactly this as use-before-signal when the edge is missing). Returns
/// the per-rank ready events.
fn rearm(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    streams: &StreamCtx,
    tables: &[usize],
    prev_comm_done: &[GpuEventId],
) -> Vec<GpuEventId> {
    let ready = new_events(world);
    let ranks = streams
        .compute
        .iter()
        .zip(&streams.comm)
        .zip(tables.iter().zip(prev_comm_done))
        .zip(&ready);
    for (d, (((&compute, &comm), (&table, &prev)), &ready)) in ranks.enumerate() {
        enqueue(world, sim, d, compute, Box::new(WaitEvent(prev)));
        enqueue(world, sim, d, compute, Box::new(ResetCounter { table }));
        enqueue(world, sim, d, compute, Box::new(RecordEvent(ready)));
        enqueue(world, sim, d, comm, Box::new(WaitEvent(ready)));
    }
    ready
}

/// One fresh event per rank.
fn new_events(world: &mut Cluster) -> Vec<GpuEventId> {
    world
        .devices
        .iter_mut()
        .map(|dev| dev.create_event())
        .collect()
}

/// Shared fault/recovery timeline: segment-arming callbacks append from
/// inside the simulation, the watchdog appends from outside.
type EventLog = Rc<RefCell<Vec<RuntimeEvent>>>;

/// One enqueued chain segment with the retained handles recovery needs:
/// the comm-side event ids to re-record and the rearm gate to respect
/// when re-enqueuing downstream.
struct ChainSegment<'a> {
    plan: &'a OverlapPlan,
    handles: ProgramHandles,
    /// Table parity the segment inherited (`segment % 2`).
    parity: usize,
    /// Per-rank rearm-ready events of this segment's own table rearm
    /// (`None` for the first two segments, which get fresh tables).
    ready: Option<Vec<GpuEventId>>,
    /// Per-rank end-of-segment comm-done events (the cross-batch /
    /// cross-layer edges later segments wait on; empty on the last).
    comm_done: Vec<GpuEventId>,
    /// Which groups owe a collective (zero-payload groups excluded).
    expected: Vec<bool>,
}

impl<'a> ChainSegment<'a> {
    fn new(
        plan: &'a OverlapPlan,
        handles: ProgramHandles,
        parity: usize,
        ready: Option<Vec<GpuEventId>>,
        comm_done: Vec<GpuEventId>,
    ) -> Self {
        let expected = (0..plan.group_tile_counts().len())
            .map(|g| plan.group_send_region(g, 0).is_some())
            .collect();
        ChainSegment {
            plan,
            handles,
            parity,
            ready,
            comm_done,
            expected,
        }
    }
}

/// Whether every owed collective of the segment completed (and its GEMM
/// retired). Rank 0 carries the probes; collectives are rendezvous, so
/// rank 0 completing implies every rank completed.
fn segment_complete(seg: &ChainSegment) -> bool {
    if seg.handles.probes.gemm_done.get().is_none() {
        return false;
    }
    let done = seg.handles.probes.group_done.borrow();
    seg.expected
        .iter()
        .enumerate()
        .all(|(g, &exp)| !exp || done.get(g).is_some_and(Option::is_some))
}

/// Groups of the segment whose collectives completed (overlap or
/// recovery).
fn completed_groups(seg: &ChainSegment) -> Vec<usize> {
    seg.handles
        .probes
        .group_done
        .borrow()
        .iter()
        .enumerate()
        .filter_map(|(g, t)| t.map(|_| g))
        .collect()
}

/// The first incomplete segment — where the watchdog aims its deadline.
fn frontier(segments: &[ChainSegment]) -> Option<usize> {
    segments.iter().position(|s| !segment_complete(s))
}

/// The last probed completion time across the chain — the chain's end,
/// independent of where `run_until` happened to park the clock.
fn chain_end(segments: &[ChainSegment]) -> SimTime {
    let mut end = SimTime::ZERO;
    for seg in segments {
        let probes = &seg.handles.probes;
        if let Some(t) = probes.gemm_done.get() {
            end = end.max(t);
        }
        for t in probes.group_done.borrow().iter().flatten() {
            end = end.max(*t);
        }
        if let Some(t) = probes.epilogue_done.get() {
            end = end.max(t);
        }
    }
    end
}

/// Maps starved waits onto chain positions: the starved rearm edge is
/// named by the first incomplete segment watching that counter table. A
/// chain of one inherits no table, so it names none.
fn chain_positions(waits: &[StuckWait], segments: &[ChainSegment]) -> Vec<ChainPosition> {
    let mut out: Vec<ChainPosition> = Vec::new();
    if segments.len() < 2 {
        return out;
    }
    for w in waits {
        let found = segments.iter().enumerate().find(|(_, s)| {
            s.handles.tables.get(w.device).copied() == Some(w.table) && !segment_complete(s)
        });
        if let Some((segment, seg)) = found {
            let pos = ChainPosition {
                segment,
                parity: seg.parity,
                table: w.table,
            };
            if !out.contains(&pos) {
                out.push(pos);
            }
        }
    }
    out
}

/// Turns a drained-but-wedged simulation into a diagnosable
/// [`FlashOverlapError::Deadlock`] carrying the full counter context of
/// every starved signal wait and, on longer chains, its chain position
/// (segment, parity, inherited table) — which rearm edge it starved.
fn check_quiescent_chain(
    world: &Cluster,
    segments: &[ChainSegment],
) -> Result<(), FlashOverlapError> {
    world.check_quiescent().map_err(|streams| {
        let waits = world.stuck_waits();
        let chain = chain_positions(&waits, segments);
        FlashOverlapError::Deadlock {
            streams,
            waits,
            chain,
        }
    })
}

/// Arms the cluster-level (time-global) faults of every segment before
/// the program starts: link degradation/stalls and straggler SMs exist
/// for the whole chain. Returns the total number of faults armed across
/// all segments (including the per-segment ones armed later).
fn arm_cluster_faults(
    world: &mut Cluster,
    sim: &ClusterSim,
    segments: &[Segment],
    log: &EventLog,
) -> usize {
    let mut armed = 0;
    for (segment, seg) in segments.iter().enumerate() {
        for fault in &seg.faults.faults {
            armed += 1;
            match *fault {
                Fault::LinkDegradation { slowdown } => {
                    let prior = world.comm_fault.slowdown.max(1.0);
                    world.comm_fault.slowdown = prior * slowdown.max(1.0);
                }
                Fault::InterLinkDegradation { slowdown } => {
                    let prior = world.comm_fault.inter_slowdown.max(1.0);
                    world.comm_fault.inter_slowdown = prior * slowdown.max(1.0);
                }
                Fault::LinkStall { stall, count } => {
                    world.comm_fault.stall = world.comm_fault.stall.max(stall);
                    world.comm_fault.stall_count += count;
                }
                Fault::StragglerSms { rank, sms } => {
                    world
                        .devices
                        .get_mut(rank)
                        .expect("validate proved the rank")
                        .occupy_comm_sms(sms);
                }
                // Slow ranks and counter faults arm at their segment's
                // position in the stream order (below).
                Fault::SlowRank { .. }
                | Fault::DroppedIncrement { .. }
                | Fault::DelayedIncrement { .. } => continue,
            }
            let event = RuntimeEvent {
                at: sim.now(),
                device: fault_device(fault),
                kind: RuntimeEventKind::FaultInjected,
                group: None,
                detail: format!("segment {segment}: armed: {fault}"),
            };
            world.notify_runtime_event(&event);
            log.borrow_mut().push(event);
        }
    }
    armed
}

/// The rank a fault targets (the lead rank for cluster-wide faults).
fn fault_device(fault: &Fault) -> gpu_sim::DeviceId {
    match *fault {
        Fault::DroppedIncrement { rank, .. }
        | Fault::DelayedIncrement { rank, .. }
        | Fault::StragglerSms { rank, .. }
        | Fault::SlowRank { rank, .. } => rank,
        Fault::LinkDegradation { .. }
        | Fault::InterLinkDegradation { .. }
        | Fault::LinkStall { .. } => 0,
    }
}

/// Enqueues segment `segment`'s stream-positioned faults. Must be called
/// after the segment's table-rearm block and before its program is
/// enqueued, so the arming callback lands between the inherited table's
/// reset and the segment's first increment.
///
/// Slow-rank faults become `Delay` ops at the segment's launch position.
/// Counter faults arm from a per-rank *compute-stream callback* — each
/// rank's compute stream passes its own rearm independently (launch
/// skew), so arming from rank 0 could race another rank's reset. The
/// callback first applies the table-quarantine rule: any fault budget
/// the previous same-parity segment left armed is disarmed before this
/// segment's faults go in.
fn enqueue_segment_faults(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    streams: &StreamCtx,
    segment: usize,
    faults: &FaultPlan,
    table_set: &[usize],
    log: &EventLog,
) {
    for fault in &faults.faults {
        if let Fault::SlowRank { rank, delay } = *fault {
            let (Some(&compute), Some(&comm)) = (streams.compute.get(rank), streams.comm.get(rank))
            else {
                continue;
            };
            for stream in [compute, comm] {
                enqueue(world, sim, rank, stream, Box::new(Delay(delay)));
            }
            let event = RuntimeEvent {
                at: sim.now(),
                device: rank,
                kind: RuntimeEventKind::FaultInjected,
                group: None,
                detail: format!("segment {segment}: armed: {fault}"),
            };
            world.notify_runtime_event(&event);
            log.borrow_mut().push(event);
        }
    }
    let n = streams.compute.len();
    for d in 0..n {
        let rank_faults: Vec<(usize, IncrementFault, u32, String)> = faults
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::DroppedIncrement { rank, group, count } if rank == d => {
                    Some((group, IncrementFault::Dropped, count, f.to_string()))
                }
                Fault::DelayedIncrement {
                    rank,
                    group,
                    count,
                    delay,
                } if rank == d => {
                    Some((group, IncrementFault::Delayed(delay), count, f.to_string()))
                }
                _ => None,
            })
            .collect();
        // Fresh tables (segments 0 and 1) hold no leftover budget; skip
        // the callback entirely when there is also nothing to arm.
        if segment < 2 && rank_faults.is_empty() {
            continue;
        }
        let (Some(&table), Some(&compute)) = (table_set.get(d), streams.compute.get(d)) else {
            continue;
        };
        let log = Rc::clone(log);
        enqueue(
            world,
            sim,
            d,
            compute,
            Box::new(Callback(Box::new(move |world, s| {
                let cleared = world
                    .devices
                    .get_mut(d)
                    .map(|dev| dev.counter_mut(table).disarm_faults())
                    .unwrap_or(0);
                if cleared > 0 {
                    let event = RuntimeEvent {
                        at: s.now(),
                        device: d,
                        kind: RuntimeEventKind::FaultQuarantined,
                        group: None,
                        detail: format!(
                            "segment {segment}: quarantined {cleared} leftover armed fault(s) \
                             on inherited table {table}"
                        ),
                    };
                    world.notify_runtime_event(&event);
                    log.borrow_mut().push(event);
                }
                for (group, kind, count, desc) in rank_faults {
                    if let Some(dev) = world.devices.get_mut(d) {
                        dev.counter_mut(table).arm_fault(group, kind, count);
                    }
                    let event = RuntimeEvent {
                        at: s.now(),
                        device: d,
                        kind: RuntimeEventKind::FaultInjected,
                        group: Some(group),
                        detail: format!("segment {segment}: armed: {desc}"),
                    };
                    world.notify_runtime_event(&event);
                    log.borrow_mut().push(event);
                }
            }))),
        );
    }
}

/// Per-segment watchdog bookkeeping.
#[derive(Default)]
struct SegState {
    /// Deadline extensions granted while this segment was the frontier.
    retries: u32,
    /// Wedges broken at this segment (a second wedge degrades it).
    wedges: u32,
    /// Groups re-issued as tail/bulk collectives for this segment.
    tail: Vec<usize>,
    /// Whether the segment's comm program was re-enqueued behind an
    /// upstream recovery.
    reissued: bool,
    /// Why the segment degraded, and the groups that had completed when
    /// it did.
    degraded: Option<(String, Vec<usize>)>,
}

/// Marks segment `f` degraded unless it already is (the first cause
/// wins), recording the groups that completed before the overlap was
/// abandoned.
fn degrade(
    state: &mut [SegState],
    segments: &[ChainSegment],
    f: usize,
    cause: impl FnOnce() -> String,
) {
    if let (Some(slot), Some(seg)) = (state.get_mut(f), segments.get(f)) {
        if slot.degraded.is_none() {
            slot.degraded = Some((cause(), completed_groups(seg)));
        }
    }
}

/// Result of driving a chain to completion under the watchdog.
struct ChainRun {
    end: SimTime,
    outcomes: Vec<ResilientOutcome>,
}

/// Drives an already-enqueued chain to termination under the chain
/// watchdog: per-segment predictor-derived deadlines, wedge
/// discrimination (drained queue + starved waits vs slow progress), and
/// the escalation ladder — extensions, tail recovery at the frontier
/// segment with downstream re-enqueue, bulk fallback / degraded marking.
/// Every chain terminates with one accountable outcome per segment.
///
/// # Errors
///
/// Returns [`FlashOverlapError::Simulation`] on engine failure only —
/// wedges never escape as errors.
fn drive_chain(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    segments: &[ChainSegment],
    streams: &StreamCtx,
    watchdog: &WatchdogConfig,
    log: &EventLog,
) -> Result<ChainRun, FlashOverlapError> {
    // Per-segment budget: the predictor's expected latency times the
    // configured multiplier, plus the launch-skew window.
    let budgets: Vec<SimDuration> = segments
        .iter()
        .map(|s| {
            s.plan
                .expected_latency()
                .mul_f64(watchdog.deadline_multiplier.max(1.0))
                + SimDuration::from_nanos(s.plan.system.launch_skew_ns.max(1))
        })
        .collect();
    let budget_of = |f: usize| budgets.get(f).copied().unwrap_or_default();
    let mut state: Vec<SegState> = segments.iter().map(|_| SegState::default()).collect();
    let mut deadline = SimTime::ZERO + budget_of(0);
    let mut deadline_frontier = 0usize;
    // Safety net far above any reachable escalation count.
    let max_rounds = (segments.len() as u32).saturating_mul(watchdog.max_retries + 4) + 8;
    let mut rounds = 0u32;

    loop {
        rounds += 1;
        if rounds > max_rounds {
            if let Some(f) = frontier(segments) {
                degrade(&mut state, segments, f, || {
                    format!("chain watchdog gave up after {rounds} rounds")
                });
            }
            break;
        }
        sim.run_until(world, deadline)?;
        if sim.pending() == 0 {
            let Some(f) = frontier(segments) else {
                break; // Every segment completed; streams drained.
            };
            // True wedge: the event queue drained with segment `f`'s
            // collectives still owed.
            let error = match check_quiescent_chain(world, segments) {
                Err(e) => e,
                Ok(()) => {
                    // Streams drained yet a segment is incomplete —
                    // unreachable for well-formed chains; terminate
                    // accountably instead of spinning.
                    degrade(&mut state, segments, f, || {
                        "chain stalled without a diagnosable wedge".into()
                    });
                    break;
                }
            };
            let wedges = state.get_mut(f).map_or(0, |s| {
                s.wedges += 1;
                s.wedges
            });
            if wedges > 1 {
                // Even recovery wedged (recovery collectives wait on
                // nothing but already-recorded state, so this should be
                // unreachable). Give up without hanging.
                degrade(&mut state, segments, f, || {
                    format!("recovery wedged: {error}")
                });
                break;
            }
            if segments
                .get(f)
                .is_some_and(|s| s.handles.probes.gemm_done.get().is_none())
            {
                // Re-issuing collectives before the GEMM retired would
                // read incomplete tiles; defensively degrade.
                degrade(&mut state, segments, f, || {
                    format!("wedged before GEMM retirement: {error}")
                });
                break;
            }
            let fired = RuntimeEvent {
                at: sim.now(),
                device: 0,
                kind: RuntimeEventKind::WatchdogFired,
                group: None,
                detail: format!("segment {f} wedge detected: {error}"),
            };
            world.notify_runtime_event(&fired);
            log.borrow_mut().push(fired);
            recover_chain(world, sim, segments, f, &error, streams, log, &mut state);
            deadline_frontier = f;
            deadline = sim.now() + budget_of(f);
        } else {
            // Deadline passed with events still flowing: slow, not
            // stuck. Re-base when the frontier advanced (per-segment
            // calibration); otherwise extend within budget, then mark
            // the frontier segment degraded but keep driving — an
            // in-flight collective cannot be abandoned without
            // double-applying its data.
            let f = frontier(segments).unwrap_or(segments.len().saturating_sub(1));
            if f != deadline_frontier {
                deadline_frontier = f;
            } else if state
                .get(f)
                .is_some_and(|s| s.retries < watchdog.max_retries)
            {
                if let Some(slot) = state.get_mut(f) {
                    slot.retries += 1;
                    let fired = RuntimeEvent {
                        at: sim.now(),
                        device: 0,
                        kind: RuntimeEventKind::WatchdogFired,
                        group: None,
                        detail: format!(
                            "segment {f}: deadline passed with {} events in flight; \
                             extension {}/{}",
                            sim.pending(),
                            slot.retries,
                            watchdog.max_retries
                        ),
                    };
                    world.notify_runtime_event(&fired);
                    log.borrow_mut().push(fired);
                }
            } else if state.get(f).is_some_and(|s| s.degraded.is_none()) {
                degrade(&mut state, segments, f, || {
                    format!(
                        "watchdog deadline exceeded after {} extensions",
                        watchdog.max_retries
                    )
                });
                let fallback = RuntimeEvent {
                    at: sim.now(),
                    device: 0,
                    kind: RuntimeEventKind::DegradedFallback,
                    group: None,
                    detail: format!(
                        "segment {f} marked degraded; completing without abandoning \
                         in-flight work"
                    ),
                };
                world.notify_runtime_event(&fallback);
                log.borrow_mut().push(fallback);
            }
            deadline = sim.now() + budget_of(f);
        }
    }

    // `run_until` parks the clock on the deadline even when the queue
    // drained earlier, so the chain's end is the last probed completion
    // time — keeping fault-free resilient runs timing-identical to
    // plain execution.
    let end = chain_end(segments);
    let outcomes = segments
        .iter()
        .zip(&state)
        .map(|(seg, st)| {
            if let Some((cause, recovered_groups)) = &st.degraded {
                ResilientOutcome::Degraded {
                    cause: cause.clone(),
                    recovered_groups: recovered_groups.clone(),
                }
            } else if !segment_complete(seg) {
                ResilientOutcome::Degraded {
                    cause: "chain terminated before this segment completed".into(),
                    recovered_groups: completed_groups(seg),
                }
            } else if !st.tail.is_empty() || st.reissued {
                ResilientOutcome::Recovered {
                    retries: st.retries,
                    tail_groups: st.tail.clone(),
                }
            } else {
                ResilientOutcome::Clean
            }
        })
        .collect();
    Ok(ChainRun { end, outcomes })
}

/// Breaks a wedge at frontier segment `f`: aborts the starved
/// communication state, re-issues `f`'s incomplete groups (tail when the
/// overlap partially succeeded, bulk otherwise — which degrades `f`),
/// re-records `f`'s comm-side events with the same ids so parked compute
/// streams wake into their rearm edges, then re-enqueues every later
/// segment's communication program behind its rearm-ready gate. This
/// completes the rearm protocol for the whole chain: downstream parity
/// stays sound.
#[allow(clippy::too_many_arguments)]
fn recover_chain(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    segments: &[ChainSegment],
    f: usize,
    error: &FlashOverlapError,
    streams: &StreamCtx,
    log: &EventLog,
    state: &mut [SegState],
) {
    let n = streams.comm.len();
    // 1. Drop queued communication work of segments >= f (stale waits
    //    and collectives about to be re-issued; queued kernels have no
    //    completion token yet, so this is safe). The comm streams are
    //    serial, so nothing of a segment > f ever started.
    for (d, &stream) in streams.comm.iter().enumerate() {
        world.abort_stream_queue(d, stream);
    }
    // 2. Release ranks parked inside communicator rendezvous without
    //    moving data (the `ncclCommAbort` analog). Only the frontier can
    //    hold a partial rendezvous; later segments are safe no-ops.
    for seg in segments.iter().skip(f) {
        seg.handles.comm.abort_pending(world, sim);
    }
    // 3. Revoke starved signal waits on the frontier's inherited tables.
    //    Later segments' waits were still queued (serial streams) and
    //    died with the queue in step 1.
    if let Some(seg) = segments.get(f) {
        for d in 0..n {
            if let Some(&table) = seg.handles.tables.get(d) {
                abort_counter_waits(world, sim, d, table);
            }
        }
    }
    // 4. Re-issue the frontier's incomplete groups. No compute-side gate:
    //    the frontier GEMM already retired (checked by the caller), and
    //    gating on a new compute-stream event would deadlock against
    //    compute streams parked on this segment's comm-done. Tail while
    //    part of the overlap survived; bulk (degrading the segment) when
    //    it produced nothing.
    if let Some(seg) = segments.get(f) {
        let role = if completed_groups(seg).is_empty() {
            degrade(state, segments, f, || format!("overlap abandoned: {error}"));
            CollectiveRole::Bulk
        } else {
            CollectiveRole::Tail
        };
        let issued = reissue_groups(world, sim, seg, streams, f, role, true, log);
        if let Some(slot) = state.get_mut(f) {
            slot.tail.extend(issued);
        }
        rerecord_segment_events(world, sim, streams, seg);
    }
    // 5. Re-enqueue each later segment's comm program behind its
    //    rearm-ready gate, so the wait-prev-comm-done → reset → ready
    //    protocol is completed, never bypassed: segment f+1's gate is
    //    already recorded; f+2's parks until its compute-side rearm
    //    (woken by the events re-recorded above) records it.
    for j in (f + 1)..segments.len() {
        let Some(seg) = segments.get(j) else {
            continue;
        };
        if let Some(ready) = &seg.ready {
            for (d, &ev) in ready.iter().enumerate() {
                let Some(&stream) = streams.comm.get(d) else {
                    continue;
                };
                enqueue(world, sim, d, stream, Box::new(WaitEvent(ev)));
            }
        }
        let issued = reissue_groups(
            world,
            sim,
            seg,
            streams,
            j,
            CollectiveRole::Tail,
            false,
            log,
        );
        rerecord_segment_events(world, sim, streams, seg);
        if let Some(slot) = state.get_mut(j) {
            slot.reissued = true;
            slot.tail = issued;
        }
        let event = RuntimeEvent {
            at: sim.now(),
            device: 0,
            kind: RuntimeEventKind::TailRecovery,
            group: None,
            detail: format!("segment {j}: comm program re-enqueued behind segment {f} recovery"),
        };
        world.notify_runtime_event(&event);
        log.borrow_mut().push(event);
    }
}

/// Re-issues every incomplete group of a segment on the comm streams.
/// `ungated` (the frontier) issues collectives directly — its GEMM
/// retired, the packed buffers are complete. Gated re-issue (downstream
/// segments) restores the original signal discipline: a per-rank
/// `WaitCounter` at the group's unmutated threshold precedes each
/// collective, so re-enqueued communication still waits for the tiles
/// the (still-running) compute side signals.
#[allow(clippy::too_many_arguments)]
fn reissue_groups(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    seg: &ChainSegment,
    streams: &StreamCtx,
    segment: usize,
    role: CollectiveRole,
    ungated: bool,
    log: &EventLog,
) -> Vec<usize> {
    let completed: Vec<bool> = seg
        .handles
        .probes
        .group_done
        .borrow()
        .iter()
        .map(Option::is_some)
        .collect();
    let plan = seg.plan;
    let thresholds = plan.group_tile_counts();
    let (kind, what) = match role {
        CollectiveRole::Tail => (RuntimeEventKind::TailRecovery, "tail"),
        _ => (RuntimeEventKind::DegradedFallback, "bulk"),
    };
    let mut issued = Vec::new();
    for (g, done) in completed.iter().enumerate() {
        if *done {
            continue;
        }
        let Some(spec) = plan.group_spec(g, &seg.handles.packed_bufs, &seg.handles.recv_bufs)
        else {
            continue; // Zero-payload group: nothing was ever owed.
        };
        if !ungated {
            for (d, &stream) in streams.comm.iter().enumerate() {
                let (Some(&table), Some(&threshold)) =
                    (seg.handles.tables.get(d), thresholds.get(g))
                else {
                    continue;
                };
                enqueue(
                    world,
                    sim,
                    d,
                    stream,
                    Box::new(WaitCounter {
                        table,
                        group: g,
                        threshold,
                    }),
                );
            }
        }
        let kernels = seg.handles.comm.kernels_with_role(spec, Some(g), role);
        for (d, kernel) in kernels.into_iter().enumerate() {
            let Some(&stream) = streams.comm.get(d) else {
                continue;
            };
            enqueue(world, sim, d, stream, Box::new(kernel));
            if d == 0 {
                let slot = seg.handles.probes.group_done.clone();
                enqueue(
                    world,
                    sim,
                    0,
                    stream,
                    Box::new(Callback(Box::new(move |_, s| {
                        if let Some(cell) = slot.borrow_mut().get_mut(g) {
                            *cell = Some(s.now());
                        }
                    }))),
                );
            }
        }
        if ungated {
            let event = RuntimeEvent {
                at: sim.now(),
                device: 0,
                kind,
                group: Some(g),
                detail: format!("segment {segment}: group {g} re-issued as {what} collective"),
            };
            world.notify_runtime_event(&event);
            log.borrow_mut().push(event);
        }
        issued.push(g);
    }
    issued
}

/// Re-records a segment's comm-side events with their original ids —
/// epilogue gates first, comm-done last, enqueued after the re-issued
/// collectives so they record in the original order. Re-recording the
/// same `GpuEventId` wakes every compute-stream waiter parked on it
/// (rearm edges, serial barriers, epilogue gates), which is what lets
/// the rest of the chain resume.
fn rerecord_segment_events(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    streams: &StreamCtx,
    seg: &ChainSegment,
) {
    for (d, &gate) in seg.handles.epilogue_gates.iter().enumerate() {
        let Some(&stream) = streams.comm.get(d) else {
            continue;
        };
        enqueue(world, sim, d, stream, Box::new(RecordEvent(gate)));
    }
    for (d, &ev) in seg.comm_done.iter().enumerate() {
        let Some(&stream) = streams.comm.get(d) else {
            continue;
        };
        enqueue(world, sim, d, stream, Box::new(RecordEvent(ev)));
    }
}
