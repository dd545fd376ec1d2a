//! E7 machinery: lineage tracing with both set backends.

use criterion::{criterion_group, criterion_main, Criterion};
use dift_dbi::Engine;
use dift_lineage::{BddBackend, LineageEngine, NaiveBackend};
use dift_workloads::science::{binning, prefix_sum, sliding_window};

fn bench_lineage(c: &mut Criterion) {
    let mut g = c.benchmark_group("lineage");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_millis(1500));
    for (name, p) in [
        ("binning", binning(64, 8)),
        ("window", sliding_window(64, 16)),
        ("prefix", prefix_sum(64)),
    ] {
        g.bench_function(format!("{name}/robdd"), |b| {
            b.iter(|| {
                let mut eng = LineageEngine::new(BddBackend::new(12));
                let mut dbi = Engine::new(p.workload.machine());
                dbi.run_tool(&mut eng);
                eng.stats().unions
            })
        });
        g.bench_function(format!("{name}/naive"), |b| {
            b.iter(|| {
                let mut eng = LineageEngine::new(NaiveBackend::new());
                let mut dbi = Engine::new(p.workload.machine());
                dbi.run_tool(&mut eng);
                eng.stats().unions
            })
        });
    }
    g.finish();
}

/// roBDD lineage at sizes where many sets stay resident, so the
/// shadow-memory sample taken every 64 instructions sees a large live
/// node store. A sample that walked that store would dominate these
/// runs; incremental accounting keeps it O(1).
fn bench_resident_lineage(c: &mut Criterion) {
    let mut g = c.benchmark_group("lineage-resident");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_millis(1500));
    for (name, p) in [("window-1024", sliding_window(1024, 16)), ("prefix-1024", prefix_sum(1024))]
    {
        g.bench_function(format!("{name}/robdd"), |b| {
            b.iter(|| {
                let mut eng = LineageEngine::new(BddBackend::new(16));
                let mut dbi = Engine::new(p.workload.machine());
                dbi.run_tool(&mut eng);
                eng.stats().peak_shadow_bytes
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_lineage, bench_resident_lineage);
criterion_main!(benches);
