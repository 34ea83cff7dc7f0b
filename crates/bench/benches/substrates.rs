//! Microbenchmarks of the simulation substrates: how fast the models
//! themselves run (host wall-clock per simulated operation).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use reach_mem::{
    AccessKind, Dimm, DimmConfig, MemoryController, MemoryControllerConfig, RowPolicy,
};
use reach_sim::{EventQueue, SimDuration, SimTime};
use reach_storage::{PcieSwitch, Ssd, SsdConfig};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_ps((i * 37) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        });
    });
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem/dram");
    g.bench_function("line_access", |b| {
        let mut d = Dimm::new(DimmConfig::ddr4_16gb());
        let mut t = SimTime::ZERO;
        let mut addr = 0u64;
        b.iter(|| {
            let r = d.access(t, addr % (1 << 30), AccessKind::Read, RowPolicy::OpenPage);
            t = r.complete;
            addr += 64;
            black_box(r.complete)
        });
    });
    g.throughput(Throughput::Bytes(64 << 20));
    g.bench_function("stream_64mib", |b| {
        b.iter(|| {
            let mut d = Dimm::new(DimmConfig::ddr4_16gb());
            let r = d.stream(
                SimTime::ZERO,
                0,
                64 << 20,
                AccessKind::Read,
                RowPolicy::OpenPage,
            );
            black_box(r.complete)
        });
    });
    g.finish();
}

fn bench_controller(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem/controller");
    g.throughput(Throughput::Bytes(64 << 20));
    g.bench_function("interleaved_stream_64mib", |b| {
        b.iter(|| {
            let mut mc = MemoryController::new(MemoryControllerConfig::paper_mc());
            black_box(
                mc.stream(SimTime::ZERO, 0, 64 << 20, AccessKind::Read)
                    .complete,
            )
        });
    });
    g.finish();
}

fn bench_ssd(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage/ssd");
    g.throughput(Throughput::Bytes(256 << 20));
    g.bench_function("read_256mib", |b| {
        b.iter(|| {
            let mut s = Ssd::new(SsdConfig::nytro_class());
            black_box(s.read(SimTime::ZERO, 0, 256 << 20).complete)
        });
    });
    g.finish();
}

fn bench_pcie(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage/pcie");
    g.bench_function("switch_transfer", |b| {
        let mut sw = PcieSwitch::paper_host_io();
        let mut t = SimTime::ZERO;
        b.iter(|| {
            let r = sw.host_transfer(t, 1 << 20);
            t = r.ready;
            black_box(r.complete)
        });
    });
    g.finish();
}

fn bench_machine(c: &mut Criterion) {
    use reach::MachineBlueprint;
    use reach_cbir::{CbirMapping, CbirPipeline, CbirWorkload};
    let mut g = c.benchmark_group("machine");
    g.sample_size(20);
    g.bench_function("proper_mapping_one_batch", |b| {
        let p = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);
        b.iter(|| {
            let mut m = MachineBlueprint::paper().instantiate();
            black_box(p.run(&mut m, 1).makespan)
        });
    });
    let _ = SimDuration::ZERO;
    g.finish();
}

criterion_group!(
    substrates,
    bench_event_queue,
    bench_dram,
    bench_controller,
    bench_ssd,
    bench_pcie,
    bench_machine
);
criterion_main!(substrates);
