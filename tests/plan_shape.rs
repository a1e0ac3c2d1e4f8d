//! Plan-shape assertions via the structured event log.
//!
//! These tests pin down *how many shuffle rounds* each planner strategy runs
//! by tracing one execution and counting `shuffle.map` stages per job in the
//! resulting [`JobProfile`] — instead of diffing global metric counters,
//! which breaks under concurrent jobs and parallel test binaries.

use sac_repro::sac::{MatMulStrategy, Session};
use sac_repro::sparkline::JobProfile;
use sac_repro::tiled::LocalMatrix;

/// Query (8) of the paper: element-wise matrix addition.
const ADD_SRC: &str =
    "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]";

/// Query (9) of the paper: matrix multiplication with group-by.
const MUL_SRC: &str = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";

fn session(n: usize, tile: usize) -> Session {
    let mut s = Session::builder().workers(4).partitions(4).build();
    let a = LocalMatrix::from_fn(n, n, |i, j| (i * n + j) as f64);
    let b = LocalMatrix::from_fn(n, n, |i, j| i as f64 - j as f64);
    s.register_local_matrix("A", &a, tile);
    s.register_local_matrix("B", &b, tile);
    s.set_int("n", n as i64);
    s
}

/// Shuffle map stages summed over every job the traced run started.
fn shuffle_stages(profile: &JobProfile) -> usize {
    profile
        .jobs
        .iter()
        .map(|j| profile.shuffle_stages_of_job(j.job_id))
        .sum()
}

#[test]
fn eltwise_add_needs_no_shuffle() {
    // `register_local_matrix` grid-partitions and materializes both inputs,
    // so the eltwise cogroup is narrow: zero shuffle stages at query time.
    let s = session(8, 4);
    let analysis = s.explain_analyze(ADD_SRC).unwrap();
    assert!(analysis.plan.contains("eltwise"), "{}", analysis.plan);
    assert!(!analysis.profile.jobs.is_empty(), "trace saw no jobs");
    assert_eq!(
        shuffle_stages(&analysis.profile),
        0,
        "co-partitioned add must not shuffle:\n{}",
        analysis.profile.render()
    );
    assert_eq!(analysis.profile.shuffle_stage_count(), 0);
}

#[test]
fn group_by_join_multiply_runs_one_cogroup_round() {
    // §5.4 group-by-join: a single cogroup round — one shuffle.map stage per
    // side (left + right), and nothing else.
    let mut s = session(8, 4);
    s.config_mut().matmul = MatMulStrategy::GroupByJoin;
    let analysis = s.explain_analyze(MUL_SRC).unwrap();
    assert!(analysis.plan.contains("groupByJoin"), "{}", analysis.plan);
    let shuffles = shuffle_stages(&analysis.profile);
    assert!(
        shuffles <= 2,
        "group-by-join must finish in one cogroup round, got {shuffles}:\n{}",
        analysis.profile.render()
    );
    assert!(analysis
        .profile
        .stages
        .iter()
        .any(|st| st.tag.as_deref() == Some("contraction/groupByJoin")));
}

#[test]
fn reduce_by_key_multiply_runs_three_shuffle_rounds() {
    // §5.3 reduceByKey plan: the join's cogroup (two map stages) plus the
    // partial-product reduceByKey — one more shuffle round than group-by-join.
    let mut s = session(8, 4);
    s.config_mut().matmul = MatMulStrategy::ReduceByKey;
    let analysis = s.explain_analyze(MUL_SRC).unwrap();
    assert!(analysis.plan.contains("reduceByKey"), "{}", analysis.plan);
    assert_eq!(
        shuffle_stages(&analysis.profile),
        3,
        "cogroup.left + cogroup.right + reduceByKey:\n{}",
        analysis.profile.render()
    );
    assert!(analysis
        .profile
        .stages
        .iter()
        .any(|st| st.operator.as_deref() == Some("reduceByKey")));
}

#[test]
fn join_group_by_multiply_shuffles_more_rounds_than_group_by_join() {
    // The paper's central claim, measured: the naive §4 join + groupByKey
    // plan runs strictly more shuffle rounds than the §5.4 group-by-join
    // plan, and its extra round is an uncombined groupByKey.
    let mut s = session(8, 4);

    s.config_mut().matmul = MatMulStrategy::JoinGroupBy;
    let naive = s.explain_analyze(MUL_SRC).unwrap();

    s.config_mut().matmul = MatMulStrategy::GroupByJoin;
    let gbj = s.explain_analyze(MUL_SRC).unwrap();

    let naive_rounds = shuffle_stages(&naive.profile);
    let gbj_rounds = shuffle_stages(&gbj.profile);
    assert!(
        naive_rounds > gbj_rounds,
        "join+groupBy ({naive_rounds} rounds) must shuffle more than \
         group-by-join ({gbj_rounds} rounds)"
    );
    assert!(naive
        .profile
        .stages
        .iter()
        .any(|st| st.operator.as_deref() == Some("groupByKey")));
    assert!(!gbj
        .profile
        .stages
        .iter()
        .any(|st| st.operator.as_deref() == Some("groupByKey")));
}

/// Mat-vec product, query (1)-style: `y_i = Σ_k A_ik x_k`.
const MAT_VEC_SRC: &str = "tiled_vector(n)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k, \
     let v = a*x, group by i ]";

#[test]
fn auto_mat_vec_broadcasts_with_zero_shuffle_stages() {
    // With no pinned strategy, a vector under the broadcast budget is shipped
    // to every partition as a broadcast table: the whole mat-vec runs as
    // narrow stages plus actions — zero shuffle stages, confirmed from the
    // event trace, not inferred from the plan string.
    let mut s = session(8, 4);
    let x: Vec<f64> = (0..8).map(|i| i as f64 - 3.0).collect();
    let v = sac_repro::tiled::TiledVector::from_local(s.spark(), &x, 4, 4);
    s.register_vector("V", v);
    let analysis = s.explain_analyze(MAT_VEC_SRC).unwrap();
    assert!(
        analysis.plan.contains("matVec/broadcast"),
        "{}",
        analysis.plan
    );
    assert!(!analysis.profile.jobs.is_empty(), "trace saw no jobs");
    assert_eq!(
        shuffle_stages(&analysis.profile),
        0,
        "broadcast mat-vec must not shuffle:\n{}",
        analysis.profile.render()
    );
    assert_eq!(analysis.profile.shuffle_stage_count(), 0);
    // The decision itself is on the event bus and folded into the profile.
    let choice = &analysis.profile.plan_choices[0];
    assert_eq!(choice.chosen, "matVec/broadcast");
    assert!(choice.auto, "default config must resolve adaptively");
    assert!(
        choice.candidates.iter().any(|(tag, _)| tag == "matVec"),
        "the shuffling alternative must have been costed: {:?}",
        choice.candidates
    );
}

#[test]
fn size_sweep_selects_multiple_contraction_strategies() {
    // Sweep operand size across the broadcast budget: small operands resolve
    // to the broadcast contraction, large ones to a shuffling strategy — and
    // each explain_analyze pairs the estimated bytes with the measured ones.
    let mut chosen = Vec::new();
    for n in [8usize, 32] {
        let mut s = Session::builder()
            .workers(4)
            .partitions(4)
            .broadcast_budget(2048)
            .build();
        let a = LocalMatrix::from_fn(n, n, |i, j| (i * n + j) as f64);
        let b = LocalMatrix::from_fn(n, n, |i, j| i as f64 - j as f64);
        s.register_local_matrix("A", &a, 4);
        s.register_local_matrix("B", &b, 4);
        s.set_int("n", n as i64);
        let analysis = s.explain_analyze(MUL_SRC).unwrap();
        let rendered = format!("{analysis}");
        assert!(
            rendered.contains("plan.chosen") && rendered.contains("actual"),
            "explain_analyze must pair estimate with actual:\n{rendered}"
        );
        let choice = analysis.profile.plan_choices[0].clone();
        assert!(choice.auto);
        assert!(
            choice.candidates.len() >= 3,
            "all viable strategies must be costed: {:?}",
            choice.candidates
        );
        if choice.chosen != "contraction/broadcast" {
            // A shuffling strategy: the estimate and the measured bytes of
            // the chosen plan node must both be non-zero.
            assert!(choice.est_shuffle_bytes > 0);
            assert!(
                analysis.profile.actual_shuffle_bytes_of_tag(&choice.chosen) > 0,
                "{}",
                analysis.profile.render()
            );
        }
        chosen.push(choice.chosen);
    }
    chosen.sort();
    chosen.dedup();
    assert!(
        chosen.len() >= 2,
        "the sweep must exercise at least two strategies, got {chosen:?}"
    );
}

/// Query (9) with both sides ranging over `A`: the planner auto-persists the
/// shared input, and the traced profile must fold the resulting cache events
/// per stage and per dataset.
const SELF_MUL_SRC: &str = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- A, \
     kk == k, let v = a*b, group by (i,j) ]";

#[test]
fn auto_persist_cache_stats_aggregate_per_stage_and_dataset() {
    // chaos_off + ample pinned budget: this test pins exact fault-free cache
    // counts (second run misses == 0), which an injected executor kill or a
    // deliberately tiny env storage budget would legitimately break.
    let mut s = Session::builder()
        .workers(4)
        .partitions(4)
        .storage_memory(64 << 20)
        .chaos_off()
        .build();
    let a = LocalMatrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
    s.register_local_matrix("A", &a, 4);
    s.set_int("n", 8);
    s.config_mut().matmul = MatMulStrategy::GroupByJoin;

    // First run: the shared input is stored block by block (misses), then the
    // second generator's reads are served from memory (hits).
    let first = s.explain_analyze(SELF_MUL_SRC).unwrap();
    let totals = first.profile.cache_totals();
    assert!(totals.misses > 0, "first run must store the shared input");
    assert!(totals.hits > 0, "second reference must hit the cache");
    assert_eq!(totals.evictions, 0, "unlimited budget must not evict");
    assert_eq!(
        first.profile.cache_by_dataset.len(),
        1,
        "exactly one persisted dataset:\n{}",
        first.profile.render()
    );
    // The reads happen inside executor tasks, so at least one stage profile
    // carries them (driver-side reads would have no stage attribution).
    assert!(
        first.profile.stages.iter().any(|st| !st.cache.is_empty()),
        "cache activity must be attributed to stages:\n{}",
        first.profile.render()
    );

    // Second run of the same query: the overlay is retained by the session
    // env, so every read is a hit and nothing is recomputed.
    let second = s.explain_analyze(SELF_MUL_SRC).unwrap();
    let totals = second.profile.cache_totals();
    assert_eq!(totals.misses, 0, "overlay must be reused across runs");
    assert!(totals.hits > 0);
    assert_eq!(totals.recomputes, 0);
}

#[test]
fn kill_between_map_and_reduce_resubmits_exactly_the_lost_partitions() {
    use sac_repro::sparkline::{ChaosPlan, Context};

    // Kill the executor owning map output 1 at the first shuffle barrier —
    // i.e. after every map task finished, before any reduce task fetched.
    let run = |plan: Option<ChaosPlan>| {
        let mut b = Context::builder().workers(4).executors(4);
        b = match plan {
            Some(p) => b.chaos(p),
            None => b.chaos_off(),
        };
        let ctx = b.build();
        ctx.trace();
        let sums = ctx
            .parallelize((0..40i64).map(|i| (i % 8, i)).collect(), 4)
            // Slow the (pipelined) map tasks so all four workers claim one
            // partition each and the kill loses some outputs, not all.
            .map(|kv| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                kv
            })
            .reduce_by_key(4, |a, b| a + b)
            .collect();
        (sums, ctx.take_profile(), ctx)
    };

    let (oracle, clean_profile, _) = run(None);
    assert_eq!(
        clean_profile.recovery.stages_resubmitted, 0,
        "fault-free run must not resubmit"
    );

    let plan = ChaosPlan::new().with_kill_owner_at_barrier(0, 1);
    let (sums, profile, ctx) = run(Some(plan));
    assert_eq!(sums, oracle, "recovered run must be bit-identical");

    // Exactly one executor died and exactly one resubmission repaired it.
    assert_eq!(profile.recovery.executors_lost, 1, "{}", profile.render());
    assert_eq!(
        profile.recovery.stages_resubmitted,
        1,
        "one kill between map and reduce -> one resubmission:\n{}",
        profile.render()
    );
    // The resubmission recomputes exactly the partitions the dead executor
    // owned — no more (event-count, not just final values).
    assert_eq!(
        profile.recovery.resubmitted_tasks,
        profile.recovery.lost_map_outputs,
        "{}",
        profile.render()
    );
    assert!(profile.recovery.lost_map_outputs >= 1);
    assert!(
        profile.recovery.lost_map_outputs < 4,
        "one executor of four cannot own every map output"
    );
    let resubmit_stages: Vec<_> = profile
        .stages
        .iter()
        .filter(|st| st.label.starts_with("shuffle.resubmit"))
        .collect();
    assert_eq!(resubmit_stages.len(), 1);
    assert_eq!(
        resubmit_stages[0].tasks as u64,
        profile.recovery.lost_map_outputs
    );
    // Fresh shuffle-stage accounting is not inflated by the resubmission.
    assert_eq!(profile.shuffle_stage_count(), 1, "{}", profile.render());
    assert_eq!(
        ctx.executor_status()
            .iter()
            .map(|s| s.restarts)
            .sum::<u64>(),
        1
    );
}

#[test]
fn narrow_chain_runs_as_one_fused_operator_pipeline() {
    use sac_repro::sparkline::Context;
    // chaos_off: retried or speculated attempts would emit extra
    // operator_output events and skew the exact per-operator counts.
    let c = Context::builder()
        .workers(4)
        .default_parallelism(4)
        .chaos_off()
        .build();
    let d = c
        .parallelize((0..1000i64).collect(), 4)
        .map(|x| x * 2)
        .filter(|x| x % 4 == 0)
        .map(|x| x + 1);
    c.trace();
    let out = d.collect();
    let profile = c.take_profile();
    assert_eq!(out.len(), 500);

    // The whole map -> filter -> map chain pipelines inside ONE stage: no
    // intermediate stage (and certainly no shuffle) between the narrow ops.
    assert_eq!(profile.jobs.len(), 1);
    assert_eq!(
        profile.stages.len(),
        1,
        "narrow chain must fuse into a single stage:\n{}",
        profile.render()
    );
    let stage = &profile.stages[0];
    assert_eq!(stage.tasks, 4);

    // ... and that single fused stage still reports per-operator output
    // cardinalities. Same-named operators aggregate: the two `map`s report
    // 1000 + 500 rows.
    let rows = |op: &str| {
        stage
            .operator_stats(op)
            .unwrap_or_else(|| panic!("no stats for {op}:\n{}", profile.render()))
            .rows
    };
    assert_eq!(rows("source"), 1000);
    assert_eq!(rows("map"), 1500);
    assert_eq!(rows("filter"), 500);
    // bytes_out is the shallow per-row estimate: rows * size_of::<i64>().
    assert_eq!(stage.operator_stats("source").unwrap().bytes, 8000);
    // The rendered profile surfaces the pipeline for explain_analyze.
    assert!(
        stage.render().contains("operators ["),
        "render must show per-operator cardinalities: {}",
        stage.render()
    );
}

/// Fusible region: `a + b*0.5` — two loads, a folded scalar constant, a
/// multiply and an add, all elementwise over co-partitioned tiles.
const FUSED_SRC: &str =
    "tiled(n,n)[ ((i,j), a + b*0.5) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]";

#[test]
fn fused_region_executes_as_one_operator_and_no_shuffle() {
    // The whole `a + b*0.5` region lowers to ONE Plan::FusedEltwise node and
    // runs as ONE tile-level operator: exactly one `fused_eltwise` operator
    // entry across every traced stage, no per-op intermediates, no shuffle.
    let s = session(8, 4);
    let analysis = s.explain_analyze(FUSED_SRC).unwrap();
    assert!(analysis.plan.contains("eltwise/fused"), "{}", analysis.plan);
    assert!(!analysis.profile.jobs.is_empty(), "trace saw no jobs");
    assert_eq!(
        shuffle_stages(&analysis.profile),
        0,
        "co-partitioned fused eltwise must not shuffle:\n{}",
        analysis.profile.render()
    );

    // Exactly one operator entry for the region, over all stages: the fused
    // kernel. No unfused per-op `map` chain survives between the join and
    // the output tiles.
    let fused_entries: Vec<_> = analysis
        .profile
        .stages
        .iter()
        .flat_map(|st| st.operators.iter())
        .filter(|o| o.operator == "fused_eltwise")
        .collect();
    assert_eq!(
        fused_entries.len(),
        1,
        "the region must surface as exactly one operator:\n{}",
        analysis.profile.render()
    );
    // 8x8 over 4x4 tiles -> a 2x2 grid of output tiles.
    assert_eq!(fused_entries[0].rows, 4, "{}", analysis.profile.render());

    // The planner announced the fusion on the event bus: one region, both
    // inputs, with the traced postfix signature carrying the folded constant.
    assert_eq!(
        analysis.profile.fused_regions.len(),
        1,
        "{}",
        analysis.profile.render()
    );
    let region = &analysis.profile.fused_regions[0];
    assert_eq!(region.inputs, 2);
    assert!(region.ops >= 4, "loads + const + mul + add: {region:?}");
    assert!(
        region.signature.contains("mul") && region.signature.contains("add"),
        "{region:?}"
    );
}

#[test]
fn failed_attempts_emit_no_partial_operator_counts() {
    use sac_repro::sparkline::{ChaosPlan, Context};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // A map attempt panics partway through its partition (after yielding 3
    // of 25 rows) while a kill-at-task plan loses executors underneath.
    // Failed attempts must contribute ZERO operator_output rows — the
    // on-drop emission is suppressed while unwinding — so every traced
    // per-operator total stays a multiple of whole 25-row partitions.
    // (A kill never truncates a drain: the task runs to completion and the
    // epoch gate discards its *result*, so re-runs re-count whole
    // partitions — the documented double-emission, still a multiple of 25.)
    let fails = Arc::new(AtomicUsize::new(0));
    let f = fails.clone();
    let plan = ChaosPlan::new()
        .with_kill_at_task(2, 1)
        .with_kill_at_task(5, 3);
    let c = Context::builder()
        .workers(4)
        .executors(4)
        .max_task_attempts(8)
        .max_stage_attempts(12)
        .chaos(plan)
        .build();
    c.trace();
    let mut out = c
        .parallelize((0..100i64).collect(), 4)
        .map(move |x| {
            if x == 3 && f.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected mid-partition failure");
            }
            x * 2
        })
        .collect();
    let profile = c.take_profile();

    out.sort();
    assert_eq!(out, (0..100i64).map(|x| x * 2).collect::<Vec<_>>());
    assert!(
        fails.load(Ordering::SeqCst) >= 2,
        "the poisoned partition must have run at least twice"
    );
    let rows: u64 = profile
        .stages
        .iter()
        .filter_map(|st| st.operator_stats("map"))
        .map(|o| o.rows)
        .sum();
    assert!(rows >= 100, "{}", profile.render());
    assert_eq!(
        rows % 25,
        0,
        "a failed attempt leaked a partial row count:\n{}",
        profile.render()
    );
}

#[test]
fn plan_cache_hits_are_pinned_by_event_count() {
    use sac_repro::service::QueryService;
    use sac_repro::sparkline::{Event, JobProfile};

    // chaos_off: an injected fault would resubmit stages but never changes
    // service-level admission/cache events — still, keep the run hermetic.
    let svc = QueryService::builder()
        .workers(2)
        .executors(2)
        .storage_memory(64 << 20)
        .slots(2)
        .chaos_off()
        .build();
    let a = LocalMatrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
    svc.register_shared_matrix("A", &a, 4).unwrap();
    svc.register_shared_int("n", 8);

    svc.context().trace();
    // One compile, then two cache hits: an alpha-renamed variant from another
    // tenant and a verbatim re-run from the first.
    let q = "tiled(n,n)[ ((i,j), a+a) | ((i,j),a) <- A ]";
    let renamed = "tiled(n,n)[ ((r,c), x+x) | ((r,c),x) <- A ]";
    assert!(!svc.run("alice", q).unwrap().cache_hit);
    assert!(svc.run("bob", renamed).unwrap().cache_hit);
    assert!(svc.run("alice", q).unwrap().cache_hit);
    let events = svc.context().take_events();
    svc.context().stop_trace();

    // Pinned by event count, not by counters: exactly 3 admissions, exactly
    // 2 plan-cache hits, zero cancellations.
    let admitted: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::JobAdmitted { .. }))
        .collect();
    let hits: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::PlanCacheHit { tenant, key, .. } => Some((tenant.clone(), *key)),
            _ => None,
        })
        .collect();
    assert_eq!(admitted.len(), 3, "3 runs -> 3 admissions");
    assert_eq!(hits.len(), 2, "2 of the 3 runs must hit the cache");
    assert_eq!(
        hits[0].1, hits[1].1,
        "alpha-renamed query must hit the same cache key"
    );
    assert_eq!((hits[0].0.as_str(), hits[1].0.as_str()), ("bob", "alice"));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::JobCancelled { .. })),
        "nothing was cancelled"
    );

    // The profile folds the same events into ServiceStats.
    let profile = JobProfile::from_events(&events);
    assert_eq!(profile.service.jobs_admitted, 3);
    assert_eq!(profile.service.plan_cache_hits, 2);
    assert_eq!(profile.service.jobs_cancelled, 0);
    assert!(
        profile.render().contains("3 jobs admitted"),
        "{}",
        profile.render()
    );
}

#[test]
fn runtime_probe_switches_mis_estimated_join_to_broadcast() {
    // The adaptive stage driver's headline case: registration-time
    // statistics lie 8x about both contraction operands, so at plan time
    // broadcast looks over-budget and the planner freezes on reduceByKey.
    // The stage-frontier probe observes the honest bytes, re-runs the same
    // candidate cost model, and promotes the node to the broadcast
    // contraction mid-plan — exactly one plan_replanned re-decision, with a
    // final strategy different from the initial one.
    let n = 96;
    let mut s = Session::builder()
        .workers(4)
        .partitions(4)
        .broadcast_budget(100_000)
        // Explicit, so the test still pins a switch when CI re-runs the
        // whole suite under SAC_ADAPTIVE=0.
        .adaptive(true)
        .build();
    // Fully dense, small-integer values: every strategy's partial sums are
    // exact in f64, so results are bit-identical even across the switch.
    let a = LocalMatrix::from_fn(n, n, |i, j| ((i * n + j) % 7 + 1) as f64);
    let b = LocalMatrix::from_fn(n, n, |i, j| ((i + 2 * j) % 5 + 1) as f64);
    s.register_local_matrix("A", &a, 32);
    s.register_local_matrix("B", &b, 32);
    s.set_int("n", n as i64);
    // The lie: 8x the honest resident bytes, density unknown. 9 dense
    // 32x32 tiles are 74 016 bytes — claimed 592 128, past the budget.
    for name in ["A", "B"] {
        let mut lied = *s.env().stats(name).unwrap();
        lied.nnz = None;
        lied.estimated_bytes *= 8;
        s.env_mut().set_stats(name, lied);
    }

    let analysis = s.explain_analyze(MUL_SRC).unwrap();
    let choice = &analysis.profile.plan_choices[0];
    assert_eq!(
        choice.chosen, "contraction/reduceByKey",
        "the lie must freeze the plan on a shuffling strategy:\n{}",
        analysis.plan
    );
    assert!(choice.auto, "the switch is only legal on an auto decision");
    assert_eq!(
        choice.replans.len(),
        1,
        "exactly one runtime re-decision:\n{}",
        analysis.profile.render()
    );
    let replan = &choice.replans[0];
    assert_eq!(replan.from, "contraction/reduceByKey");
    assert_eq!(replan.to, "contraction/broadcast");
    assert!(
        replan.observed_bytes < replan.est_shuffle_bytes,
        "the probe must observe cheaper than the estimate: {} vs {}",
        replan.observed_bytes,
        replan.est_shuffle_bytes
    );
    assert!(
        analysis.profile.render().contains("plan.replanned"),
        "explain_analyze must render the re-decision:\n{}",
        analysis.profile.render()
    );
    // The switched node really ran on the broadcast path: no join shuffle,
    // only the single partial-combining reduce round — versus the three
    // rounds of the frozen reduceByKey plan (asserted against the oracle
    // run below).
    let adaptive_shuffles = shuffle_stages(&analysis.profile);
    assert!(
        adaptive_shuffles <= 1,
        "the re-planned broadcast contraction keeps at most the combining \
         round, got {adaptive_shuffles}:\n{}",
        analysis.profile.render()
    );

    // Bit-exactness oracle: a frozen session under the same lie runs the
    // original reduceByKey plan and must agree with the switched run
    // bit-for-bit.
    let mut frozen = Session::builder()
        .workers(4)
        .partitions(4)
        .broadcast_budget(100_000)
        .adaptive(false)
        .build();
    frozen.register_local_matrix("A", &a, 32);
    frozen.register_local_matrix("B", &b, 32);
    frozen.set_int("n", n as i64);
    for name in ["A", "B"] {
        let mut lied = *frozen.env().stats(name).unwrap();
        lied.nnz = None;
        lied.estimated_bytes *= 8;
        frozen.env_mut().set_stats(name, lied);
    }
    let frozen_analysis = frozen.explain_analyze(MUL_SRC).unwrap();
    assert!(
        frozen_analysis.profile.plan_choices[0].replans.is_empty(),
        "a frozen session must never re-decide:\n{}",
        frozen_analysis.profile.render()
    );
    assert!(
        adaptive_shuffles < shuffle_stages(&frozen_analysis.profile),
        "the switch must shed shuffle rounds against the frozen plan:\n{}",
        frozen_analysis.profile.render()
    );
    let got = s.matrix(MUL_SRC).unwrap().to_local();
    let oracle = frozen.matrix(MUL_SRC).unwrap().to_local();
    assert_eq!(got, oracle, "adaptive switch changed the result bits");
}

/// `x*2.0` over a nested elementwise `a+b` builder, and its flat twin.
const NESTED_SRC: &str = "tiled(m,m)[ ((i,j), x*2.0) | ((i,j),x) <- tiled(m,m)[ ((i,j), a+b) | \
     ((i,j),a) <- S, ((ii,jj),b) <- T, ii == i, jj == j ] ]";
const FLAT_SRC: &str =
    "tiled(m,m)[ ((i,j), (a+b)*2.0) | ((i,j),a) <- S, ((ii,jj),b) <- T, ii == i, jj == j ]";

/// A session with `S` and `T` (`side x side`, random) and `m = side`.
fn nested_session(side: usize, tile: usize) -> (Session, LocalMatrix, LocalMatrix) {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(side as u64);
    let sm = LocalMatrix::random(side, side, -2.0, 2.0, &mut rng);
    let tm = LocalMatrix::random(side, side, -2.0, 2.0, &mut rng);
    let mut s = Session::builder().workers(2).partitions(2).build();
    s.register_local_matrix("S", &sm, tile);
    s.register_local_matrix("T", &tm, tile);
    s.set_int("m", side as i64);
    (s, sm, tm)
}

fn bits(m: &LocalMatrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// The reference interpreter run directly on `src`, with `S`/`T` bound as
/// dense association lists and `m` as an integer.
fn comp_eval_matrix(src: &str, sm: &LocalMatrix, tm: &LocalMatrix, m: i64) -> LocalMatrix {
    use sac_repro::comp::{eval, parse_expr, Env, Value};
    let assoc = |x: &LocalMatrix| {
        Value::List(
            x.to_triplets()
                .into_iter()
                .map(|((i, j), v)| {
                    Value::pair(Value::pair(Value::Int(i), Value::Int(j)), Value::Float(v))
                })
                .collect(),
        )
    };
    let mut env = Env::new();
    env.bind("S", assoc(sm));
    env.bind("T", assoc(tm));
    env.bind("m", Value::Int(m));
    let out = eval(&parse_expr(src).unwrap(), &mut env).unwrap();
    let triplets: Vec<((i64, i64), f64)> = out
        .into_list()
        .unwrap()
        .into_iter()
        .map(|cell| {
            let Value::Tuple(kv) = cell else { panic!() };
            let Value::Tuple(ij) = &kv[0] else { panic!() };
            (
                (ij[0].as_i64().unwrap(), ij[1].as_i64().unwrap()),
                kv[1].as_f64().unwrap(),
            )
        })
        .collect();
    LocalMatrix::from_triplets(m as usize, m as usize, &triplets)
}

#[test]
fn nested_eltwise_fuses_into_one_region_bit_identical_to_flat() {
    for (side, tile) in [(8, 4), (16, 5), (256, 64)] {
        let (mut s, _, _) = nested_session(side, tile);
        let plan = s.explain(NESTED_SRC).unwrap();
        assert_eq!(plan, format!("eltwise/fused -> matrix {side}x{side}"));
        let nested = s.matrix(NESTED_SRC).unwrap().to_local();
        let flat = s.matrix(FLAT_SRC).unwrap().to_local();
        assert_eq!(bits(&nested), bits(&flat), "{side}²: nested != flat");
        // Without fusion the rewritten query still runs distributed, on the
        // per-op interpreter.
        s.config_mut().fuse_eltwise = false;
        assert_eq!(
            s.explain(NESTED_SRC).unwrap(),
            format!("eltwise -> matrix {side}x{side}")
        );
        let unfused = s.matrix(NESTED_SRC).unwrap().to_local();
        assert_eq!(bits(&unfused), bits(&flat), "{side}²: unfused != flat");
    }
}

#[test]
fn nested_vector_eltwise_flattens_into_one_plan() {
    use sac_repro::tiled::TiledVector;
    let mut s = Session::builder().workers(2).partitions(2).build();
    let u: Vec<f64> = (0..10).map(|i| i as f64 * 0.5 - 2.0).collect();
    let v: Vec<f64> = (0..10).map(|i| 3.0 - i as f64 * 0.25).collect();
    let (tu, tv) = (
        TiledVector::from_local(s.spark(), &u, 4, 2),
        TiledVector::from_local(s.spark(), &v, 4, 2),
    );
    s.register_vector("U", tu);
    s.register_vector("V", tv);
    s.set_int("n", 10);
    let nested = "tiled_vector(n)[ (i, x*2.0) | (i,x) <- tiled_vector(n)[ (i, a+b) | \
                  (i,a) <- U, (ii,b) <- V, ii == i ] ]";
    let flat = "tiled_vector(n)[ (i, (a+b)*2.0) | (i,a) <- U, (ii,b) <- V, ii == i ]";
    assert_eq!(s.explain(nested).unwrap(), "vectorEltwise -> vector 10");
    let got: Vec<u64> = s
        .vector(nested)
        .unwrap()
        .to_local()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let want: Vec<u64> = s
        .vector(flat)
        .unwrap()
        .to_local()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(got, want);
    // A shorter inner builder drops indices: it must not flatten.
    let cut = "tiled_vector(n)[ (i, x*2.0) | (i,x) <- tiled_vector(n-3)[ (i, a+b) | \
               (i,a) <- U, (ii,b) <- V, ii == i ] ]";
    assert!(s.explain(cut).unwrap().starts_with("localFallback"));
    let cut_vals = s.vector(cut).unwrap().to_local();
    assert_eq!(&cut_vals[7..], &[0.0; 3]);
}

#[test]
fn nested_eltwise_traces_one_fused_region_and_no_shuffle() {
    let (s, _, _) = nested_session(8, 4);
    let analysis = s.explain_analyze(NESTED_SRC).unwrap();
    assert_eq!(analysis.profile.fused_regions.len(), 1);
    assert_eq!(analysis.profile.fused_regions[0].inputs, 2);
    assert_eq!(shuffle_stages(&analysis.profile), 0);
    assert!(
        analysis.profile.plan_fallbacks.is_empty(),
        "a fused query must not report a fallback:\n{}",
        analysis.profile.render()
    );
}

#[test]
fn explain_names_the_fallback_cause() {
    let (s, _, _) = nested_session(8, 4);
    // A diagonal join is not elementwise, so nothing distributes it.
    let src = "tiled(m,m)[ ((i,j), a+b) | ((i,j),a) <- S, ((ii,jj),b) <- T, i == j, \
               ii == i, jj == j ]";
    let plan = s.explain(src).unwrap();
    assert!(
        plan.starts_with("localFallback (") && plan.ends_with(") -> matrix 8x8"),
        "{plan}"
    );
    assert_eq!(
        s.compile(src).unwrap().plan.strategy_name(),
        "localFallback"
    );
    // A traced run announces the fallback once, with the explained cause.
    let cause = plan
        .strip_prefix("localFallback (")
        .and_then(|rest| rest.strip_suffix(") -> matrix 8x8"))
        .unwrap();
    let analysis = s.explain_analyze(src).unwrap();
    assert_eq!(analysis.profile.plan_fallbacks, [cause]);
    assert!(
        analysis
            .profile
            .render()
            .contains(&format!("plan.fallback: {cause}")),
        "{}",
        analysis.profile.render()
    );
}

#[test]
fn nested_builders_that_are_not_total_still_fall_back() {
    let join = "((i,j),a) <- S, ((ii,jj),b) <- T, ii == i, jj == j";
    let cases = [
        // A value guard drops cells, which the builder zero-fills.
        format!("tiled(m,m)[ ((i,j), x*2.0) | ((i,j),x) <- tiled(m,m)[ ((i,j), a+b) | {join}, a > 0.0 ] ]"),
        // Builder smaller than the inputs: the out-of-bounds drop fires.
        format!("tiled(m,m)[ ((i,j), x*2.0) | ((i,j),x) <- tiled(m-2,m-2)[ ((i,j), a+b) | {join} ] ]"),
        // Builder larger than the inputs: zero-fill fires.
        format!("tiled(m,m)[ ((i,j), x*2.0) | ((i,j),x) <- tiled(m+2,m+2)[ ((i,j), a+b) | {join} ] ]"),
        // A grouping inner (matrix multiplication) is a plan, not a list.
        "tiled(m,m)[ ((i,j), x*2.0) | ((i,j),x) <- tiled(m,m)[ ((i,j), +/v) | \
         ((i,k),a) <- S, ((kk,j),b) <- T, kk == k, let v = a*b, group by (i,j) ] ]"
            .to_string(),
    ];
    let (s, sm, tm) = nested_session(8, 3);
    for src in &cases {
        let plan = s.explain(src).unwrap();
        assert!(plan.starts_with("localFallback"), "{src}: {plan}");
        let got = s.matrix(src).unwrap().to_local();
        let want = comp_eval_matrix(src, &sm, &tm, 8);
        assert_eq!(bits(&got), bits(&want), "{src}");
    }
}

#[test]
fn a_diagonal_over_a_large_join_fails_fast_instead_of_exhausting_memory() {
    // The cross product of two 128² generators is 2²⁸ rows; the bounded
    // interpreter refuses it with a typed error long before that.
    let (s, _, _) = nested_session(128, 32);
    let src = "tiled(m,m)[ ((i,j), a+b) | ((i,j),a) <- S, ((ii,jj),b) <- T, i == j, \
               ii == i, jj == j ]";
    assert!(s.explain(src).unwrap().starts_with("localFallback"));
    let start = std::time::Instant::now();
    let err = s
        .run(src)
        .err()
        .expect("the fallback must refuse the row set");
    assert_eq!(err.phase, sac_repro::comp::errors::Phase::Eval);
    assert!(err.message.contains("interpreter limit"), "{err}");
    assert!(start.elapsed() < std::time::Duration::from_secs(30));
}

#[test]
fn a_single_generator_scan_past_the_row_cap_still_runs() {
    // One generator run against the initial row yields one row per matrix
    // entry, so it only scans a list already in memory: the trace of a 640²
    // matrix binds 3·640² > MAX_ROW_BINDINGS variables and still evaluates.
    let side = 640;
    assert!(3 * side * side > sac_repro::comp::eval::MAX_ROW_BINDINGS);
    let m = LocalMatrix::from_fn(side, side, |i, j| ((i * 7 + j) % 5) as f64);
    let mut s = Session::builder().workers(2).partitions(2).build();
    s.register_local_matrix("A", &m, 128);
    let src = "+/[ v | ((i,j),v) <- A, i == j ]";
    assert!(s.explain(src).unwrap().starts_with("localFallback"));
    let want: f64 = (0..side).map(|i| m.get(i, i)).sum();
    assert_eq!(s.value(src).unwrap(), sac_repro::comp::Value::Float(want));
}
