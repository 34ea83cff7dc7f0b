//! GAM liveness and safety under randomized job graphs, driven by a
//! minimal synchronous executor (no machine, no timing): every action is
//! resolved immediately, so these properties hold independent of any
//! substrate behaviour.

use proptest::prelude::*;
use reach_accel::{AcceleratorId, ComputeLevel};
use reach_gam::manager::{Gam, GamAction, GamConfig};
use reach_gam::{Job, JobBuilder, TaskId};
use reach_sim::{checksum64, SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// The actions one `*_into` call pushes.
fn step(call: impl FnOnce(&mut Vec<GamAction>)) -> Vec<GamAction> {
    let mut actions = Vec::new();
    call(&mut actions);
    actions
}

/// Submits `job` with a `()` payload per task; returns its actions.
fn submit(gam: &mut Gam, job: Job) -> Vec<GamAction> {
    let (id, n) = (job.id, job.tasks.len());
    step(|a| gam.submit_into(id, Arc::new(job), vec![(); n], a))
}

fn gam_all_levels(per_level: usize) -> Gam {
    let mut g = Gam::new(GamConfig::default());
    for level in ComputeLevel::ALL {
        for index in 0..per_level {
            g.register_instance(AcceleratorId { level, index });
        }
    }
    g
}

/// Builds a random DAG job: each task may depend on a subset of earlier
/// tasks and may consume buffers produced by them.
fn random_job(spec: &[(u8, Vec<usize>)]) -> (Job, Vec<TaskId>) {
    random_job_with_id(0, spec)
}

/// [`random_job`] under job id `job`.
fn random_job_with_id(job: u64, spec: &[(u8, Vec<usize>)]) -> (Job, Vec<TaskId>) {
    let mut b = JobBuilder::new(job);
    let mut ids: Vec<TaskId> = Vec::new();
    let mut bufs = Vec::new();
    for (i, (level_pick, dep_picks)) in spec.iter().enumerate() {
        let level = match level_pick % 3 {
            0 => ComputeLevel::OnChip,
            1 => ComputeLevel::NearMemory,
            _ => ComputeLevel::NearStorage,
        };
        let out = b.buffer(&format!("buf{i}"), 4096, None);
        let deps: Vec<TaskId> = dep_picks
            .iter()
            .filter(|&&d| d < i)
            .map(|&d| ids[d])
            .collect();
        let inputs: Vec<_> = dep_picks
            .iter()
            .filter(|&&d| d < i)
            .map(|&d| bufs[d])
            .collect();
        let t = b.task(
            &format!("t{i}"),
            "K",
            level,
            SimDuration::from_us(10),
            inputs,
            vec![out],
            deps,
        );
        ids.push(t);
        bufs.push(out);
    }
    (b.build(), ids)
}

/// Synchronous executor: dispatches complete instantly, DMAs finish
/// instantly, polls are acknowledged as completions. Returns the dispatch
/// order.
fn drive(gam: &mut Gam, initial: Vec<GamAction>) -> Vec<TaskId> {
    let mut queue: VecDeque<GamAction> = initial.into();
    let mut order = Vec::new();
    let mut interrupts = 0;
    let mut steps = 0;
    while let Some(action) = queue.pop_front() {
        steps += 1;
        assert!(steps < 100_000, "executor runaway — GAM livelock?");
        match action {
            GamAction::Dispatch { task, .. } => {
                order.push(task);
                // Started (may emit a poll we ignore by completing directly).
                let _ = step(|a| gam.task_started_into(task, SimTime::ZERO, a));
                queue.extend(step(|a| gam.complete_into(task, a)));
            }
            GamAction::Dma { id, .. } => queue.extend(step(|a| gam.dma_finished_into(id, a))),
            GamAction::Poll { .. } => { /* completion already delivered */ }
            GamAction::HostInterrupt { .. } => interrupts += 1,
        }
    }
    assert_eq!(interrupts, 1, "exactly one interrupt per job");
    order
}

/// A Figure 13-shaped job: on-chip feature extraction broadcasts its
/// features to four near-memory short-list shards (each reading its own
/// resident database slice), whose candidates a near-storage rerank
/// collects together with the features.
fn fig13_job(id: u64) -> Job {
    let mut b = JobBuilder::new(id);
    let image = b.buffer("image", 2 << 20, Some(ComputeLevel::OnChip));
    let feats = b.buffer("features", 6144, None);
    let fe = b.task(
        "feature-extraction",
        "VGG16-VU9P",
        ComputeLevel::OnChip,
        SimDuration::from_us(40),
        vec![image],
        vec![feats],
        vec![],
    );
    let mut cands = Vec::new();
    let mut shortlist = Vec::new();
    for shard in 0..4 {
        let db = b.buffer("db", 64 << 20, Some(ComputeLevel::NearMemory));
        let cand = b.buffer("candidates", 4096, None);
        shortlist.push(b.task(
            "short-list",
            "GEMM-ZCU9",
            ComputeLevel::NearMemory,
            SimDuration::from_us(25 + 5 * shard),
            vec![feats, db],
            vec![cand],
            vec![fe],
        ));
        cands.push(cand);
    }
    cands.push(feats);
    b.task(
        "rerank",
        "KNN-ZCU9",
        ComputeLevel::NearStorage,
        SimDuration::from_us(30),
        cands,
        vec![],
        shortlist,
    );
    b.build()
}

/// A fixed random-DAG spec from `seed` (splitmix64), in the shape the
/// proptests draw: up to 12 tasks, each with up to 2 dependency picks.
fn seeded_spec(seed: u64) -> Vec<(u8, Vec<usize>)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let tasks = 1 + next() % 12;
    (0..tasks)
        .map(|_| {
            let level = next() as u8;
            let picks = (0..next() % 3).map(|_| (next() % 12) as usize).collect();
            (level, picks)
        })
        .collect()
}

/// Synchronous executor that logs every action in the order the GAM
/// emits it, one `Debug` line each. A simulated clock advances 1 us per
/// resolved action: dispatches start at the current instant, on-chip
/// tasks complete at once, off-chip tasks complete when their poll comes
/// due, except that the first poll of every third task (by id) misses
/// once. DMAs finish at once. Each host interrupt may submit more work
/// through `on_interrupt`. Returns the number of interrupts.
fn drive_logged(
    gam: &mut Gam,
    initial: Vec<GamAction>,
    log: &mut String,
    mut on_interrupt: impl FnMut(&mut Gam) -> Vec<GamAction>,
) -> usize {
    let mut queue: VecDeque<GamAction> = VecDeque::new();
    let emit = |queue: &mut VecDeque<GamAction>, actions: Vec<GamAction>, log: &mut String| {
        for a in actions {
            writeln!(log, "{a:?}").expect("write to String");
            queue.push_back(a);
        }
    };
    emit(&mut queue, initial, log);
    let mut now = SimTime::ZERO;
    let mut missed = BTreeSet::new();
    let mut interrupts = 0;
    let mut steps = 0;
    while let Some(action) = queue.pop_front() {
        steps += 1;
        assert!(steps < 100_000, "executor runaway — GAM livelock?");
        now += SimDuration::from_us(1);
        let next = match action {
            GamAction::Dispatch { acc, task } => {
                let polls = step(|a| gam.task_started_into(task, now, a));
                if acc.level == ComputeLevel::OnChip {
                    assert!(polls.is_empty(), "on-chip tasks are never polled");
                    step(|a| gam.complete_into(task, a))
                } else {
                    polls
                }
            }
            GamAction::Dma { id, .. } => step(|a| gam.dma_finished_into(id, a)),
            GamAction::Poll { task, at, .. } => {
                now = now.max(at);
                if task.0 % 3 == 1 && missed.insert(task) {
                    step(|a| gam.poll_missed_into(task, now, SimDuration::from_us(7), a))
                } else {
                    step(|a| gam.complete_into(task, a))
                }
            }
            GamAction::HostInterrupt { .. } => {
                interrupts += 1;
                on_interrupt(gam)
            }
        };
        emit(&mut queue, next, log);
    }
    interrupts
}

/// The digest of the whole GAM action stream — action order, tasks,
/// accelerators, DMA ids, buffers and poll instants — over three fixed
/// workloads:
///
/// 1. six Figure 13-shaped jobs submitted up front on one instance per
///    level, so later jobs queue behind earlier ones;
/// 2. the same shape on two instances per level, closed loop: each host
///    interrupt submits the next job until eight have run, two in flight;
/// 3. random DAGs at eight fixed seeds, three jobs each, submitted up
///    front on one to three instances per level.
///
/// Any change to dispatch order, action order, DMA numbering or poll
/// timing moves the digest.
#[test]
fn gam_action_stream_is_pinned() {
    let mut log = String::new();

    let mut gam = gam_all_levels(1);
    let mut initial = Vec::new();
    for id in 0..6 {
        initial.extend(submit(&mut gam, fig13_job(id)));
    }
    assert_eq!(drive_logged(&mut gam, initial, &mut log, |_| Vec::new()), 6);
    assert!(gam.idle());

    let mut gam = gam_all_levels(2);
    let mut initial = submit(&mut gam, fig13_job(0));
    initial.extend(submit(&mut gam, fig13_job(1)));
    let mut next = 2;
    let interrupts = drive_logged(&mut gam, initial, &mut log, |g| {
        if next < 8 {
            next += 1;
            submit(g, fig13_job(next - 1))
        } else {
            Vec::new()
        }
    });
    assert_eq!(interrupts, 8);
    assert!(gam.idle());

    for seed in 0..8u64 {
        let mut gam = gam_all_levels(1 + (seed % 3) as usize);
        let mut initial = Vec::new();
        for job in 0..3 {
            let (job, _) = random_job_with_id(job, &seeded_spec(seed * 3 + job));
            initial.extend(submit(&mut gam, job));
        }
        assert_eq!(drive_logged(&mut gam, initial, &mut log, |_| Vec::new()), 3);
        assert!(gam.idle());
    }

    assert_eq!(
        (log.lines().count(), checksum64(log.as_bytes())),
        (641, 0x17be_ee02_907e_f4d7),
        "GAM action stream moved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every random DAG completes, every task dispatches exactly once, and
    /// no task starts before all of its dependencies completed.
    #[test]
    fn random_dags_complete_in_dependency_order(
        spec in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(0usize..12, 0..3)),
            1..12
        ),
        per_level in 1usize..4,
    ) {
        let (job, ids) = random_job(&spec);
        let deps: Vec<BTreeSet<TaskId>> = spec
            .iter()
            .enumerate()
            .map(|(i, (_, dp))| {
                dp.iter().filter(|&&d| d < i).map(|&d| ids[d]).collect()
            })
            .collect();

        let mut gam = gam_all_levels(per_level);
        let initial = submit(&mut gam, job);
        let order = drive(&mut gam, initial);

        // Exactly once each.
        let unique: BTreeSet<_> = order.iter().collect();
        prop_assert_eq!(unique.len(), ids.len(), "duplicate or missing dispatch");
        prop_assert_eq!(order.len(), ids.len());
        prop_assert!(gam.idle());

        // Dependency order respected.
        for (i, id) in ids.iter().enumerate() {
            let my_pos = order.iter().position(|t| t == id).expect("dispatched");
            for d in &deps[i] {
                let dep_pos = order.iter().position(|t| t == d).expect("dep dispatched");
                prop_assert!(dep_pos < my_pos, "task {i} ran before its dependency");
            }
        }
        prop_assert_eq!(gam.stats().dispatches, ids.len() as u64);
        prop_assert_eq!(gam.stats().jobs_completed, 1);
    }

    /// DMA accounting: every transferred buffer is counted once per
    /// (buffer, destination level), never more.
    #[test]
    fn dma_count_is_bounded_by_cross_level_edges(
        spec in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(0usize..12, 0..3)),
            1..12
        ),
    ) {
        let (job, ids) = random_job(&spec);
        // Upper bound: each task contributes at most |inputs| transfers.
        let max_dmas: usize = spec
            .iter()
            .enumerate()
            .map(|(i, (_, dp))| dp.iter().filter(|&&d| d < i).count())
            .sum();
        let _ = ids;
        let mut gam = gam_all_levels(2);
        let initial = submit(&mut gam, job);
        drive(&mut gam, initial);
        prop_assert!(gam.stats().dmas as usize <= max_dmas);
    }
}

use reach_gam::TaskState;

/// Where a task stands, in the order its life runs; `None` (its job has
/// completed and its slot is freed) comes last.
fn stage_rank(state: Option<TaskState>) -> usize {
    match state {
        Some(TaskState::Blocked) => 0,
        Some(TaskState::Ready) => 1,
        Some(TaskState::Running) => 2,
        Some(TaskState::Done) => 3,
        None => 4,
    }
}

/// Synchronous executor that snapshots every task's state after each GAM
/// call and counts each task's dispatches. Returns, per task, the states
/// it was seen in (consecutive repeats folded) and its dispatch count.
fn drive_observed(
    gam: &mut Gam,
    initial: Vec<GamAction>,
    tasks: &[TaskId],
) -> (Vec<Vec<Option<TaskState>>>, Vec<usize>) {
    let mut seen: Vec<Vec<Option<TaskState>>> = vec![Vec::new(); tasks.len()];
    let mut dispatches = vec![0; tasks.len()];
    let observe = |gam: &Gam, seen: &mut Vec<Vec<Option<TaskState>>>| {
        for (i, t) in tasks.iter().enumerate() {
            let state = gam.task_state(*t);
            if seen[i].last() != Some(&state) {
                seen[i].push(state);
            }
        }
    };
    observe(gam, &mut seen);
    let mut queue: VecDeque<GamAction> = initial.into();
    while let Some(action) = queue.pop_front() {
        match action {
            GamAction::Dispatch { task, .. } => {
                dispatches[tasks.iter().position(|t| *t == task).expect("known task")] += 1;
                let _ = step(|a| gam.task_started_into(task, SimTime::ZERO, a));
                observe(gam, &mut seen);
                queue.extend(step(|a| gam.complete_into(task, a)));
            }
            GamAction::Dma { id, .. } => queue.extend(step(|a| gam.dma_finished_into(id, a))),
            GamAction::Poll { .. } | GamAction::HostInterrupt { .. } => {}
        }
        observe(gam, &mut seen);
    }
    (seen, dispatches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Across several pipelined random-DAG jobs, every task is seen only
    /// moving forward through Blocked → Ready → Running → Done, reaches
    /// Running, is dispatched exactly once, and leaves the table when its
    /// job completes.
    #[test]
    fn every_task_moves_blocked_ready_running_done_once(
        specs in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u8>(), proptest::collection::vec(0usize..12, 0..3)),
                1..12
            ),
            1..4
        ),
        per_level in 1usize..3,
    ) {
        let mut gam = gam_all_levels(per_level);
        let mut initial = Vec::new();
        let mut tasks = Vec::new();
        for (job, spec) in specs.iter().enumerate() {
            let (job, ids) = random_job_with_id(job as u64, spec);
            initial.extend(submit(&mut gam, job));
            tasks.extend(ids);
        }
        let (seen, dispatches) = drive_observed(&mut gam, initial, &tasks);
        for (i, states) in seen.iter().enumerate() {
            let ranks: Vec<usize> = states.iter().map(|s| stage_rank(*s)).collect();
            prop_assert!(
                ranks.windows(2).all(|w| w[0] < w[1]),
                "task {} moved backwards or repeated a state: {:?}", tasks[i], states
            );
            prop_assert!(states.contains(&Some(TaskState::Running)), "{} never ran", tasks[i]);
            prop_assert_eq!(states.last(), Some(&None), "{} still held", tasks[i]);
            prop_assert_eq!(dispatches[i], 1, "{} dispatched {} times", tasks[i], dispatches[i]);
        }
        prop_assert!(gam.idle());
        prop_assert_eq!(gam.slots_held(), 0);
    }
}

/// After the last host interrupt the GAM holds no job slot, and it never
/// allocated more slots than jobs were in flight at once.
#[test]
fn last_interrupt_frees_every_slot() {
    let mut gam = gam_all_levels(1);
    let mut initial = Vec::new();
    for id in 0..6 {
        initial.extend(submit(&mut gam, fig13_job(id)));
        assert_eq!(gam.slots_held(), id as usize + 1);
    }
    let mut log = String::new();
    assert_eq!(drive_logged(&mut gam, initial, &mut log, |_| Vec::new()), 6);
    assert_eq!(gam.slots_held(), 0);
    assert_eq!(gam.slots_allocated(), 6);
    assert!(gam.idle());
}

/// A long stream of jobs with a bounded number in flight reuses freed
/// slots: the table never grows past the most jobs in flight at once.
#[test]
fn job_stream_retains_no_more_slots_than_jobs_in_flight() {
    const JOBS: u64 = 40;
    const IN_FLIGHT: u64 = 3;
    let mut gam = gam_all_levels(2);
    let mut initial = Vec::new();
    for id in 0..IN_FLIGHT {
        initial.extend(submit(&mut gam, fig13_job(id)));
    }
    let mut next = IN_FLIGHT;
    let mut most_in_flight = gam.jobs_in_flight();
    let mut log = String::new();
    let interrupts = drive_logged(&mut gam, initial, &mut log, |g| {
        if next == JOBS {
            return Vec::new();
        }
        next += 1;
        let actions = submit(g, fig13_job(next - 1));
        most_in_flight = most_in_flight.max(g.jobs_in_flight());
        actions
    });
    assert_eq!(interrupts, JOBS as usize);
    assert_eq!(most_in_flight, IN_FLIGHT as usize);
    assert!(gam.slots_allocated() <= most_in_flight);
    assert_eq!(gam.slots_held(), 0);
}

/// A completion for a task whose job already raised its interrupt is a
/// driver bug; the panic names the task.
#[test]
#[should_panic(expected = "task0 belongs to no job in flight")]
fn completing_a_task_of_a_retired_job_panics_naming_it() {
    let mut gam = gam_all_levels(1);
    let (job, ids) = random_job(&[(0, vec![])]);
    let _ = submit(&mut gam, job);
    let done = step(|a| gam.complete_into(ids[0], a));
    assert!(matches!(done[0], GamAction::HostInterrupt { .. }));
    let _ = step(|a| gam.complete_into(ids[0], a));
}
