//! Demand-driven slice queries vs rebuild-per-query, under criterion.
//!
//! One SPEC-like kernel traced at a budget that retains a meaningful
//! window; the same mixed query set is answered by:
//!
//! * `rebuild-per-query` — materialize a fresh `DdgGraph` + `Slicer`
//!   for every query (the status-quo path);
//! * `indexed-single` — one `SliceService`, generation-checked refresh
//!   per query (the designed single-query path);
//! * `indexed-batched` — one `batch` call over one snapshot;
//! * `snapshot` — the cost of freezing the index once (what a reader
//!   thread pays to join).
//!
//! A second group, `stitched-queries`, asks stitched backward, forward
//! and from-address queries over an **in-memory** cold tier whose open
//! tail is non-empty, each query through a fresh `StitchedSource` (what
//! the `*_stitched` entry points do). Every cold segment, the tail
//! included, should decode once per store, so these times are the
//! walks themselves.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dift_dbi::Engine;
use dift_ddg::{DdgGraph, OnTrac, OnTracConfig};
use dift_slicing::{
    backward_from_addr_stitched, backward_stitched, forward_stitched, KindMask, SliceQuery,
    SliceService, Slicer,
};
use dift_workloads::spec::{mcf_like, Size};

fn bench_slicing(c: &mut Criterion) {
    let mut g = c.benchmark_group("slice-queries");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_millis(1500));

    let w = mcf_like(Size::Tiny);
    let mut cfg = OnTracConfig::unoptimized(16 << 10);
    cfg.record_war_waw = true;
    let m = w.machine();
    let mem = m.config().mem_words;
    let mut tracer = OnTrac::new(&w.program, mem, cfg);
    Engine::new(m).run_tool(&mut tracer);
    let buf = tracer.buffer();
    let idx = tracer.slice_index().expect("presets enable the index");

    let graph = DdgGraph::from_records(buf.records(), &w.program);
    let mut steps: Vec<u64> = graph.steps().collect();
    steps.sort_unstable();
    let queries: Vec<SliceQuery> = steps
        .iter()
        .step_by((steps.len() / 8).max(1))
        .flat_map(|&s| {
            [
                SliceQuery::Backward { criterion: vec![s], mask: KindMask::classic() },
                SliceQuery::Forward { criterion: vec![s], mask: KindMask::data_only() },
            ]
        })
        .collect();

    g.bench_function("rebuild-per-query", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                let g = DdgGraph::from_records(buf.records(), &w.program);
                let s = Slicer::new(&g);
                total += match q {
                    SliceQuery::Backward { criterion, mask } => s.backward(criterion, *mask).len(),
                    SliceQuery::Forward { criterion, mask } => s.forward(criterion, *mask).len(),
                    SliceQuery::BackwardFromAddr { addr, mask } => {
                        s.backward_from_addr(*addr, *mask).len()
                    }
                };
            }
            black_box(total)
        })
    });
    g.bench_function("indexed-single", |b| {
        b.iter(|| {
            let mut svc = SliceService::new(idx);
            let mut total = 0usize;
            for q in &queries {
                svc.refresh(idx);
                total += svc.batch(std::slice::from_ref(q))[0].len();
            }
            black_box(total)
        })
    });
    g.bench_function("indexed-batched", |b| {
        b.iter(|| {
            let mut svc = SliceService::new(idx);
            black_box(svc.batch(&queries).iter().map(|s| s.len()).sum::<usize>())
        })
    });
    g.bench_function("snapshot", |b| b.iter(|| black_box(idx.snapshot().generation())));
    g.finish();
}

fn bench_stitched(c: &mut Criterion) {
    let mut g = c.benchmark_group("stitched-queries");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_millis(1500));

    let w = mcf_like(Size::Tiny);
    let mut cfg = OnTracConfig::optimized(1 << 10);
    cfg.cold_tier = true;
    let m = w.machine();
    let mem = m.config().mem_words;
    let mut tracer = OnTrac::new(&w.program, mem, cfg);
    Engine::new(m).run_tool(&mut tracer);
    let cold = tracer.cold_store().expect("the cold tier is on");
    assert!(cold.segment_count() > cold.segment_metas().len(), "the open tail must hold records");
    let snap = tracer.slice_index().expect("presets enable the index").snapshot();
    let first = cold.first_user().expect("the budget evicts");
    let last = tracer.buffer().records().last().map_or(first, |r| r.dep.user);
    let criteria: Vec<u64> = (0..8).map(|i| first + (last - first) * i / 8).collect();
    let addrs: Vec<_> = {
        let mut a: Vec<_> = tracer.buffer().records().map(|r| r.user_addr).collect();
        a.sort_unstable();
        a.dedup();
        a.into_iter().take(4).collect()
    };

    g.bench_function("backward", |b| {
        b.iter(|| {
            let n: usize = criteria
                .iter()
                .map(|&s| backward_stitched(&snap, cold, &[s], KindMask::classic()).len())
                .sum();
            black_box(n)
        })
    });
    g.bench_function("forward", |b| {
        b.iter(|| {
            let n: usize = criteria
                .iter()
                .map(|&s| forward_stitched(&snap, cold, &[s], KindMask::data_only()).len())
                .sum();
            black_box(n)
        })
    });
    g.bench_function("from-addr", |b| {
        b.iter(|| {
            let n: usize = addrs
                .iter()
                .map(|&a| backward_from_addr_stitched(&snap, cold, a, KindMask::classic()).len())
                .sum();
            black_box(n)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_slicing, bench_stitched);
criterion_main!(benches);
