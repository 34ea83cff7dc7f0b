//! Microbenchmarks of the simulator hot paths: event-queue throughput
//! (binary heap), GAM dispatch bookkeeping on its own, machine
//! steady-state event processing, the parallel
//! CBIR kernels (GEMM micro-kernel, k-means, binary and PQ encode, top-K),
//! the IVF short-list distance pass, the exact ground-truth scan, the batched DDR stream timing model,
//! host graph
//! generation (RMAT and uniform edge draws plus the CSR build), and the
//! warm-replay read path (report decode and result-store open).
//!
//! Set `REACH_BENCH_QUICK=1` to shrink every problem size (the CI
//! perf-smoke mode); the full sizes are meant for local before/after
//! comparisons when touching the dispatch path or the kernels.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use reach_accel::{AcceleratorId, ComputeLevel};
use reach_cbir::kmeans::kmeans;
use reach_cbir::linalg::{gemm_nt, Matrix};
use reach_cbir::scenarios::blueprint_with;
use reach_cbir::top_k;
use reach_cbir::{CbirMapping, CbirPipeline, CbirWorkload};
use reach_gam::{Gam, GamAction, GamConfig, Job, JobBuilder, JobId};
use reach_graph::{GraphKind, GraphSpec};
use reach_sim::rng::seeded;
use reach_sim::{EventQueue, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// `full` normally, `quick` under `REACH_BENCH_QUICK=1`.
fn scaled(full: usize, quick: usize) -> usize {
    if std::env::var_os("REACH_BENCH_QUICK").is_some() {
        quick
    } else {
        full
    }
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/event_queue");
    let n = scaled(200_000, 20_000);

    // Steady-state churn: the queue holds a working set while events are
    // pushed relative to `now` and popped in order — the machine's loop.
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("push_in_pop", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(64);
            for i in 0..64u64 {
                q.push(SimTime::from_ps(i), i);
            }
            for i in 0..n as u64 {
                let (_, ev) = q.pop().expect("non-empty");
                q.push_in(SimDuration::from_ps(64 + (ev % 7)), i);
            }
            black_box(q.len())
        });
    });

    // Same-instant bursts drained through the batch pop the machine uses.
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("pop_batch_bursts_of_16", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(n);
            for i in 0..n as u64 {
                q.push(SimTime::from_ps(i / 16), i);
            }
            let mut batch = Vec::new();
            let mut drained = 0usize;
            while q.pop_batch_into(&mut batch).is_some() {
                drained += batch.len();
            }
            black_box(drained)
        });
    });

    // One instant holding a poll per accelerator, sized the way `Machine`
    // sizes its queue, drained by a single batch pop.
    let pileup = scaled(16_384, 2_048);
    g.throughput(Throughput::Elements(pileup as u64));
    g.bench_function("same_instant_pileup", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(4 * pileup + 32);
            for i in 0..pileup as u64 {
                q.push(SimTime::from_ps(1_000), i);
            }
            let mut batch = Vec::new();
            q.pop_batch_into(&mut batch);
            black_box(batch.len())
        });
    });
    g.finish();
}

/// A Figure 13-shaped job graph: on-chip feature extraction broadcasting
/// to four near-memory short-list shards, collected by a near-storage
/// rerank.
fn fig13_graph() -> Job {
    let mut b = JobBuilder::new(0);
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
    let mut cands = vec![feats];
    let mut shortlist = Vec::new();
    for _ in 0..4 {
        let db = b.buffer("db", 64 << 20, Some(ComputeLevel::NearMemory));
        let cand = b.buffer("candidates", 4096, None);
        shortlist.push(b.task(
            "short-list",
            "GEMM-ZCU9",
            ComputeLevel::NearMemory,
            SimDuration::from_us(25),
            vec![feats, db],
            vec![cand],
            vec![fe],
        ));
        cands.push(cand);
    }
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

fn bench_gam(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/gam");
    let jobs = scaled(256, 32) as u64;
    let graph = Arc::new(fig13_graph());
    g.throughput(Throughput::Elements(jobs * graph.tasks.len() as u64));

    // The GAM alone, no machine: submit a pipelined stream of jobs sharing
    // one graph, then drain it with a synchronous executor (dispatches
    // start at once, polls complete their task, DMAs land at once). The
    // element rate is tasks dispatched per wall second.
    g.bench_function("submit_drain_fig13_stream", |b| {
        b.iter(|| {
            let mut gam = Gam::new(GamConfig::default());
            for (level, n) in [
                (ComputeLevel::OnChip, 1),
                (ComputeLevel::NearMemory, 4),
                (ComputeLevel::NearStorage, 4),
            ] {
                for index in 0..n {
                    gam.register_instance(AcceleratorId { level, index });
                }
            }
            let mut actions = Vec::new();
            for job in 0..jobs {
                gam.submit_into(
                    JobId(job),
                    Arc::clone(&graph),
                    vec![(); graph.tasks.len()],
                    &mut actions,
                );
            }
            let mut queue: VecDeque<GamAction> = actions.drain(..).collect();
            while let Some(action) = queue.pop_front() {
                match action {
                    GamAction::Dispatch { acc, task } => {
                        gam.task_started_into(task, SimTime::ZERO, &mut actions);
                        if acc.level == ComputeLevel::OnChip {
                            gam.complete_into(task, &mut actions);
                        }
                    }
                    GamAction::Poll { task, .. } => gam.complete_into(task, &mut actions),
                    GamAction::Dma { id, .. } => gam.dma_finished_into(id, &mut actions),
                    GamAction::HostInterrupt { .. } => {}
                }
                queue.extend(actions.drain(..));
            }
            black_box(gam.stats().jobs_completed)
        });
    });
    g.finish();
}

fn bench_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/machine");
    g.sample_size(10);
    let batches = scaled(64, 8);
    let blueprint = blueprint_with(4, 4);
    let pipeline = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);

    // Steady-state events/sec through submit -> dispatch -> completion with
    // the full pipeline mapped across the hierarchy. The reported element
    // rate is machine events processed per wall second.
    let events_per_run = {
        let mut m = blueprint.instantiate();
        let compiled = pipeline.build(&m);
        let report = compiled.run(&mut m, batches);
        report
            .metrics
            .counter("engine.events_processed")
            .unwrap_or(0)
    };
    g.throughput(Throughput::Elements(events_per_run));
    g.bench_function("steady_state_pipelined", |b| {
        b.iter(|| {
            let mut m = blueprint.instantiate();
            let compiled = pipeline.build(&m);
            black_box(compiled.run(&mut m, batches).makespan)
        });
    });
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    use reach_cbir::simd::{self, SimdPath};

    let mut g = c.benchmark_group("hotpath/gemm");
    eprintln!(
        "hotpath/gemm kernel dispatch: {} (auto); paired rows pin scalar vs {}",
        simd::active().name(),
        simd::best_supported().name()
    );
    let m = scaled(512, 128);
    let n = 1000;
    let k = 96;
    let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 17) as f32 - 8.0).collect());
    let bm = Matrix::from_vec(n, k, (0..n * k).map(|i| (i % 13) as f32 - 6.0).collect());
    g.throughput(Throughput::Elements((m * n * k) as u64));
    g.bench_function("rerank_shape_parallel", |b| {
        b.iter(|| black_box(gemm_nt(&a, &bm)));
    });
    // Same shape with the kernel tier pinned: the scalar baseline and the
    // widest SIMD path, bit-identical outputs, only wall time differs.
    simd::force(Some(SimdPath::Scalar));
    g.bench_function("rerank_shape_parallel_scalar", |b| {
        b.iter(|| black_box(gemm_nt(&a, &bm)));
    });
    simd::force(Some(simd::best_supported()));
    let simd_row = format!("rerank_shape_parallel_{}", simd::best_supported().name());
    g.bench_function(&simd_row, |b| {
        b.iter(|| black_box(gemm_nt(&a, &bm)));
    });
    simd::force(None);
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/kmeans");
    g.sample_size(10);
    let n = scaled(8192, 1024);
    let d = 32;
    let k = 64;
    let mut rng = seeded(42);
    let pts = Matrix::from_vec(
        n,
        d,
        (0..n * d)
            .map(|i| ((i * 2_654_435_761) % 97) as f32)
            .collect(),
    );
    g.throughput(Throughput::Elements((n * k * d) as u64));
    g.bench_function("assign_update_loop", |b| {
        b.iter(|| black_box(kmeans(&pts, k, 5, &mut rng).inertia));
    });
    // The shape the recall experiment trains most: one PQ 8x8b subspace,
    // 6,000 four-dim sub-vectors against 64 codewords.
    let n = scaled(6000, 1024);
    let d = 4;
    let sub = Matrix::from_vec(
        n,
        d,
        (0..n * d)
            .map(|i| ((i * 2_654_435_761) % 89) as f32 * 0.25)
            .collect(),
    );
    g.throughput(Throughput::Elements((n * k * d) as u64));
    g.bench_function("pq_subspace_d4", |b| {
        b.iter(|| black_box(kmeans(&sub, k, 5, &mut rng).inertia));
    });
    // One PQ 4x4b subspace: 6,000 eight-dim sub-vectors against 16
    // codewords.
    let (d, k) = (8, 16);
    let sub = Matrix::from_vec(
        n,
        d,
        (0..n * d)
            .map(|i| ((i * 2_654_435_761) % 83) as f32 * 0.25)
            .collect(),
    );
    g.throughput(Throughput::Elements((n * k * d) as u64));
    g.bench_function("pq_subspace_d8", |b| {
        b.iter(|| black_box(kmeans(&sub, k, 5, &mut rng).inertia));
    });
    g.finish();
}

fn bench_codecs(c: &mut Criterion) {
    use reach_cbir::{BinaryCoder, ProductQuantizer};

    let mut g = c.benchmark_group("hotpath/codecs");
    g.sample_size(10);
    // The recall experiment's encode shapes: 6,000 32-dim rows into
    // 256-bit binary codes and into 8x64 PQ codes; then one query's
    // exhaustive scan over each flat code buffer.
    let n = scaled(6000, 1024);
    let d = 32;
    let data = Matrix::from_vec(
        n,
        d,
        (0..n * d)
            .map(|i| ((i * 2_654_435_761) % 89) as f32 * 0.25 - 11.0)
            .collect(),
    );
    let coder = BinaryCoder::new(d, 256, &mut seeded(42));
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("binary_encode_256", |b| {
        b.iter(|| black_box(coder.encode_batch(&data)));
    });
    let pq = ProductQuantizer::train(&data, 8, 64, &mut seeded(42));
    g.bench_function("pq_encode_8x64", |b| {
        b.iter(|| black_box(pq.encode_batch(&data)));
    });
    let query = data.row(n / 2);
    let pq_codes = pq.encode_batch(&data);
    g.bench_function("pq_search_8x64", |b| {
        b.iter(|| black_box(pq.search(&pq_codes, query, 10)));
    });
    let binary_codes = coder.encode_batch(&data);
    g.bench_function("binary_search_256", |b| {
        b.iter(|| black_box(coder.search(&binary_codes, query, 10)));
    });
    g.finish();
}

fn bench_distance(c: &mut Criterion) {
    use reach_cbir::linalg::batch_dist_sq;
    use reach_cbir::IvfIndex;

    let mut g = c.benchmark_group("hotpath/distance");
    let nq = scaled(64, 16);
    let np = scaled(4096, 512);
    let d = 32;
    let queries = Matrix::from_vec(
        nq,
        d,
        (0..nq * d).map(|i| ((i * 31) % 23) as f32 - 11.0).collect(),
    );
    let points = Matrix::from_vec(
        np,
        d,
        (0..(np * d) as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54) as f32 / 50.0 - 10.0)
            .collect(),
    );
    let index = IvfIndex::build(&points, scaled(256, 64), &mut seeded(5));
    let centroids = index.centroids();
    g.throughput(Throughput::Elements((nq * centroids.rows()) as u64));
    // The reference: every batch recomputes the centroid norms.
    g.bench_function("batch_dist_sq", |b| {
        b.iter(|| black_box(batch_dist_sq(&queries, centroids)));
    });
    // The short-list pass: the same distances over the norms the index
    // stored at build time, then the top `nprobe` per query.
    g.bench_function("ivf_short_lists", |b| {
        b.iter(|| black_box(index.short_lists(&queries, 8)));
    });
    // The recall experiment's exact top 10: every query's direct distance
    // to every point, then a top-K selection.
    let ds = reach_cbir::Dataset {
        points,
        labels: vec![0; np],
        means: Matrix::zeros(1, d),
    };
    g.throughput(Throughput::Elements((nq * np) as u64));
    g.bench_function("ground_truth_top10", |b| {
        b.iter(|| black_box(ds.ground_truth(&queries, 10)));
    });
    g.finish();
}

fn bench_ddr_stream(c: &mut Criterion) {
    use reach_mem::{
        AccessKind, Dimm, DimmConfig, Interleave, MemoryController, MemoryControllerConfig,
        RowPolicy,
    };

    let mut g = c.benchmark_group("hotpath/ddr");
    let bytes = (scaled(256, 16) as u64) << 20;
    // Simulated-stream throughput: how fast the timing model itself chews
    // through a multi-hundred-MiB sequential scan (rows are reserved a
    // refresh period at a time, and the steady-state periods in one step).
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("stream_row_batched", |b| {
        b.iter(|| {
            let mut d = Dimm::new(DimmConfig::ddr4_16gb());
            black_box(
                d.stream(
                    SimTime::ZERO,
                    0,
                    bytes,
                    AccessKind::Read,
                    RowPolicy::OpenPage,
                )
                .complete,
            )
        });
    });
    // A 1 GiB scan through one of the paper's memory controllers: spread
    // over all four DIMMs at cache-line interleave (the CPU / on-chip
    // shape), and walked 1 MiB tile by tile (the near-memory shape). The
    // 64 MiB tile walk is suite-shaped: about 16 tiles per DIMM, the size
    // of the experiments' near-memory DMAs.
    let gib = (scaled(1024, 64) as u64) << 20;
    for (name, interleave, bytes) in [
        ("controller_1gib_cache_line", Interleave::CacheLine, gib),
        ("controller_1gib_tile_1mib", Interleave::Tile(1 << 20), gib),
        (
            "controller_64mib_tile_1mib",
            Interleave::Tile(1 << 20),
            64 << 20,
        ),
    ] {
        g.throughput(Throughput::Bytes(bytes));
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut mc = MemoryController::new(MemoryControllerConfig {
                    interleave,
                    ..MemoryControllerConfig::paper_mc()
                });
                black_box(
                    mc.stream(SimTime::ZERO, 0, bytes, AccessKind::Read)
                        .complete,
                )
            });
        });
    }
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/topk");
    let n = scaled(262_144, 16_384);
    let dists: Vec<(f32, usize)> = (0..n)
        .map(|i| (((i * 2_654_435_761) % 1_000_003) as f32, i))
        .collect();
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("top10_large_stream", |b| {
        b.iter(|| black_box(top_k(dists.iter().copied(), 10)));
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    use reach::{decode_report, encode_report, Scenario};
    use reach_bench::DiskCache;
    use reach_cbir::experiments::FIG13_BATCHES;
    use reach_cbir::scenarios::CbirScenario;

    let mut g = c.benchmark_group("hotpath/codec");
    // One Figure 13 steady-state report, as the suite stores it.
    let report = CbirScenario::full(
        "fig13/proper/steady",
        blueprint_with(4, 4),
        CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper),
        FIG13_BATCHES,
    )
    .execute();
    let bytes = encode_report(&report);
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("decode_suite_report", |b| {
        b.iter(|| black_box(decode_report(&bytes).expect("decodes").metrics.len()));
    });

    // A store of that report under as many fingerprints as a full suite
    // pass writes records, opened as a warm process opens it.
    let records = scaled(174, 16);
    let dir = std::env::temp_dir().join(format!("reach-hotpath-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DiskCache::open_with_stamp(&dir, 1);
    for fp in 0..records as u128 {
        store.insert(fp, &report);
    }
    store.flush();
    let store_bytes = std::fs::metadata(store.path()).map_or(0, |m| m.len());
    g.throughput(Throughput::Bytes(store_bytes));
    g.bench_function("open_filled_store", |b| {
        b.iter(|| black_box(DiskCache::open_with_stamp(&dir, 1).len()));
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/graph");
    // One `extension-graph` sweep graph per generator at its largest
    // scale: the edge draws plus the CSR build, per generated edge.
    let nodes = scaled(16_384, 2_048) as u32;
    for (name, kind) in [
        ("rmat_16k_build", GraphKind::Rmat),
        ("uniform_16k_build", GraphKind::Uniform),
    ] {
        let spec = GraphSpec {
            nodes,
            avg_degree: reach_graph::scenarios::GRAPH_DEGREE,
            kind,
            seed: reach_sim::rng::DEFAULT_SEED,
        };
        g.throughput(Throughput::Elements(spec.edge_count()));
        g.bench_function(name, |b| b.iter(|| black_box(spec.build())));
    }
    g.finish();
}

criterion_group!(
    hotpath,
    bench_event_queue,
    bench_gam,
    bench_machine,
    bench_gemm,
    bench_kmeans,
    bench_codecs,
    bench_distance,
    bench_ddr_stream,
    bench_topk,
    bench_graph,
    bench_codec
);
criterion_main!(hotpath);
