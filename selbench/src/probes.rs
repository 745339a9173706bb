//! Turning loop samples into metrics, and the layer sweep of the traced
//! run: short calls into each layer's public entry on the workload's
//! own inputs, each timed from outside.

use std::time::{Duration, Instant};

use gpu_sim::arch::v100;
use gpu_sim::{Device, LaunchOrigin};
use hpc_par::ThreadPool;
use sampleselect::count::count_kernel;
use sampleselect::cpu::CpuSelectConfig;
use sampleselect::filter::filter_kernel;
use sampleselect::reduce::reduce_kernel;
use sampleselect::rng::SplitMix64;
use sampleselect::splitter::sample_kernel;
use sampleselect::{plan_rank_query, sample_select_with_workspace, SampleSelectConfig, SearchTree};
use sampleselect::{SelectWorkspace, ServerSnapshot};

use crate::host::allocations;
use crate::library::{closed_loop, CallStats, Entry, LoopRun, Ranks};
use crate::metrics::{LAYERS, SIM_KERNELS, WALL_KERNELS};
use crate::report::Metrics;
use crate::schedule::KINDS;
use crate::service::{max_qps_at_slo, served_label, Rung, BACKENDS};
use crate::stats::{self, mean, median, share};
use crate::trace::{layer_self_times, Tracer};

/// Answers checked outside the main loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn add_loop(&mut self, run: &LoopRun) {
        self.attempted += run.attempted;
        self.failed += run.attempted - run.ok;
        self.wrong += run.wrong;
    }

    pub fn add_rungs(&mut self, rungs: &[Rung]) {
        for r in rungs {
            self.attempted += r.offered;
            self.failed += r.counted_failures();
            self.wrong += r.wrong();
        }
    }
}

/// Request id of the sweep's spans, apart from every loop's ids.
const SWEEP_QUERY: u64 = 1 << 40;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// End-to-end metrics of a closed library loop over inputs of `n`.
pub fn loop_end_to_end(run: &LoopRun, n: usize, m: &mut Metrics) -> stats::Tail {
    let p50 = median(&run.call_ms);
    let tail = stats::tail(&run.call_ms);
    let busy_s: f64 = run.call_ms.iter().sum::<f64>() / 1e3;
    m.set("latency_ms_p50", p50, "ms");
    m.set("latency_ms_tail", tail.value, "ms");
    m.set(
        "select_melem_s",
        (n as f64 * run.call_ms.len() as f64) / busy_s / 1e6,
        "Melem/s",
    );
    // Paired per call: both ran on the same input and rank, moments apart.
    let ratios: Vec<f64> = run
        .std_ms
        .iter()
        .zip(&run.call_ms)
        .map(|(s, c)| s / c)
        .collect();
    m.set("speedup_vs_std", median(&ratios), "x");
    m.set("ok_share", share(run.ok, run.attempted), "ratio");
    tail
}

/// Mean simulated time of the first `count` calls of a simulated loop.
pub fn sim_us_mean(run: &LoopRun, count: usize) -> f64 {
    let us: Vec<f64> = run
        .stats
        .iter()
        .filter_map(|s| match s {
            CallStats::Sim(r) => Some(r.total_time.as_us()),
            CallStats::Host(_) => None,
        })
        .take(count)
        .collect();
    assert_eq!(
        us.len(),
        count,
        "every simulated call of the fixed set must succeed"
    );
    mean(&us)
}

/// `core::cpu` metrics from a host loop over inputs of `n`.
pub fn host_call_metrics(run: &LoopRun, n: usize, m: &mut Metrics) {
    let stats: Vec<_> = run
        .stats
        .iter()
        .filter_map(|s| match s {
            CallStats::Host(s) => Some(s),
            CallStats::Sim(_) => None,
        })
        .collect();
    let scanned = mean(
        &stats
            .iter()
            .map(|s| s.elements_scanned as f64)
            .collect::<Vec<_>>(),
    );
    // Computed, not measured: every level reads its input three times
    // (histogram, per-chunk count, placement) at 4 bytes per element.
    let bytes = scanned * 4.0 * 3.0;
    let p50 = median(&run.call_ms);
    m.set(
        "cpu.levels",
        mean(
            &stats
                .iter()
                .map(|s| f64::from(s.levels))
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    m.set("cpu.scanned_per_n", scanned / n as f64, "ratio");
    m.set(
        "cpu.early_exit_share",
        share(
            stats.iter().filter(|s| s.terminated_early).count() as u64,
            stats.len() as u64,
        ),
        "ratio",
    );
    m.set("cpu.bytes_computed", bytes, "B");
    m.set("cpu.achieved_gb_s", bytes / (p50 / 1e3) / 1e9, "GB/s");
    m.set("cpu.call_ms_p50", p50, "ms");
    m.set("std.nth_ms_p50", median(&run.std_ms), "ms");
}

/// Kernel and recursion metrics from a simulated loop.
pub fn sim_call_metrics(run: &LoopRun, m: &mut Metrics) {
    let reports: Vec<_> = run
        .stats
        .iter()
        .filter_map(|s| match s {
            CallStats::Sim(r) => Some(r),
            CallStats::Host(_) => None,
        })
        .collect();
    let avg = |f: &dyn Fn(&sampleselect::SelectReport) -> f64| {
        mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    for k in SIM_KERNELS {
        m.set(
            format!("kernel.{k}.sim_us"),
            avg(&|r| r.kernel_time(k).as_us()),
            "sim_us",
        );
        m.set(
            format!("kernel.{k}.launches"),
            avg(&|r| r.kernel_launches(k) as f64),
            "count",
        );
    }
    m.set(
        "kernel.bytes_computed",
        avg(&|r| {
            r.kernels
                .iter()
                .map(|k| (k.cost.global_read_bytes + k.cost.global_write_bytes) as f64)
                .sum()
        }),
        "B",
    );
    m.set("recursion.levels", avg(&|r| f64::from(r.levels)), "count");
    m.set(
        "recursion.early_exit_share",
        avg(&|r| f64::from(u8::from(r.terminated_early))),
        "ratio",
    );
    m.set(
        "sim.launch_overhead_us",
        avg(&|r| r.launch_overhead.as_us()),
        "sim_us",
    );
    m.set("sim.query_wall_ms_p50", median(&run.call_ms), "ms");
}

/// The layer sweep: every layer's public entry called on `inputs` and
/// timed from outside, with spans recorded in `tracer`.
pub fn layer_sweep(
    pool: &ThreadPool,
    inputs: &[Vec<f32>],
    seed: u64,
    regenerate: &dyn Fn() -> Vec<f32>,
    tracer: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let n = inputs[0].len();
    let q = SWEEP_QUERY;

    // hpc-par: fork-join of an empty parallel loop.
    let threads = pool.num_threads();
    let fork: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            tracer.time("hpc_par", "parallel_for.empty", q, None, || {
                hpc_par::parallel_for_chunks(pool, threads, 1, |_| {})
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("hpc_par.fork_join_us", median(&fork), "us");

    // hpc-par: one host count pass (parallel histogram over a splitter
    // tree lookup) and single-thread lookup throughput.
    let mut rng = SplitMix64::new(seed ^ 0x4849_5354);
    let mut sample: Vec<f32> = (0..1024).map(|_| inputs[0][rng.next_below(n)]).collect();
    sample.sort_unstable_by(f32::total_cmp);
    let splitters: Vec<f32> = (1..256).map(|i| sample[i * 4]).collect();
    let tree = SearchTree::build(&splitters);
    let mut hist = Vec::new();
    let mut lookup = Vec::new();
    let mut out = vec![0u32; 4096];
    for data in inputs {
        for _ in 0..3 {
            let t = Instant::now();
            let counts = tracer.time("hpc_par", "parallel_histogram", q, None, || {
                hpc_par::parallel_histogram(pool, data.len(), tree.num_buckets(), |range, local| {
                    let mut buckets = [0u32; 128];
                    for chunk in data[range].chunks(128) {
                        tree.lookup_batch(chunk, &mut buckets[..chunk.len()]);
                        for &b in &buckets[..chunk.len()] {
                            local[b as usize] += 1;
                        }
                    }
                })
            });
            hist.push(ms(t.elapsed()));
            assert_eq!(
                counts.iter().sum::<u64>(),
                data.len() as u64,
                "histogram lost elements"
            );
        }
        let t = Instant::now();
        tracer.time("hpc_par", "lookup_batch", q, None, || {
            for chunk in data.chunks(out.len()) {
                tree.lookup_batch(chunk, &mut out[..chunk.len()]);
            }
        });
        std::hint::black_box(&out);
        lookup.push(data.len() as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    m.set("hpc_par.histogram_ms", median(&hist), "ms");
    m.set("hpc_par.lookup_gelem_s", median(&lookup), "Gelem/s");
    m.set(
        "hpc_par.simd_level",
        hpc_par::simd_level() as u8 as f64,
        "level",
    );

    // core::cpu on these inputs.
    let calls = 2 * inputs.len();
    let mut host = Entry::Host {
        pool,
        cfg: CpuSelectConfig::default(),
    };
    let run = closed_loop(
        &mut host,
        inputs,
        &mut Ranks::new(seed ^ 1),
        Duration::ZERO,
        calls,
        tracer,
        false,
        q,
    );
    host_call_metrics(&run, n, m);
    tally.add_loop(&run);

    // The simulated path on a warm pooled device.
    let mut device = Device::new(v100(), pool);
    device.enable_buffer_pool();
    let cfg = SampleSelectConfig::default();
    let mut ranks = Ranks::new(seed ^ 2);
    {
        let mut sim = Entry::Sim {
            device: &mut device,
            ws: Box::default(),
            cfg: cfg.clone(),
        };
        let mut off = Tracer::new(false);
        let warm = closed_loop(
            &mut sim,
            inputs,
            &mut ranks,
            Duration::ZERO,
            inputs.len(),
            &mut off,
            false,
            q,
        );
        tally.add_loop(&warm);
        let run = closed_loop(
            &mut sim,
            inputs,
            &mut ranks,
            Duration::ZERO,
            calls,
            tracer,
            false,
            q,
        );
        sim_call_metrics(&run, m);
        tally.add_loop(&run);
        let allocs: Vec<f64> = (0..3)
            .map(|i| {
                let data = &inputs[i % inputs.len()];
                let rank = ranks.next(data.len());
                let before = allocations();
                let ok = sim.call(data, rank).is_ok();
                assert!(ok, "warm simulated query failed");
                (allocations() - before) as f64
            })
            .collect();
        m.set("gpu_sim.allocs_per_query", median(&allocs), "count");
    }
    let mut ws = SelectWorkspace::new();
    let resets: Vec<f64> = (0..3)
        .map(|i| {
            let data = &inputs[i % inputs.len()];
            let rank = ranks.next(data.len());
            let ok = sample_select_with_workspace(&mut device, data, rank, &cfg, &mut ws).is_ok();
            assert!(ok, "simulated query failed");
            let t = Instant::now();
            tracer.time("gpu_sim.device", "reset", q, None, || device.reset());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("gpu_sim.reset_us", median(&resets), "us");

    // The public kernels, called directly on the warm device.
    let mut wall: [Vec<f64>; 4] = Default::default();
    for data in inputs {
        for _ in 0..2 {
            let rank = ranks.next(data.len());
            let mut krng = SplitMix64::new(seed ^ rank as u64);
            let mut timed = |i: usize, tracer: &mut Tracer, t: Instant| {
                wall[i].push(ms(t.elapsed()));
                tracer.record(
                    "gpu_sim.kernels",
                    WALL_KERNELS[i],
                    q,
                    None,
                    t,
                    Instant::now(),
                );
            };
            let t = Instant::now();
            let tree = sample_kernel(&mut device, data, &cfg, &mut krng, LaunchOrigin::Host)
                .expect("sample kernel on a valid input");
            timed(0, tracer, t);
            let t = Instant::now();
            let count = count_kernel(&mut device, data, &tree, &cfg, true, LaunchOrigin::Host);
            timed(1, tracer, t);
            let t = Instant::now();
            let red = reduce_kernel(&mut device, &count, LaunchOrigin::Host);
            timed(2, tracer, t);
            let b = red.bucket_for_rank(rank as u64) as u32;
            let t = Instant::now();
            let kept = filter_kernel(
                &mut device,
                data,
                &count,
                &red,
                b..b + 1,
                &cfg,
                LaunchOrigin::Host,
            );
            timed(3, tracer, t);
            assert_eq!(
                kept.len() as u64,
                red.bucket_size(b as usize),
                "filter kept a wrong count"
            );
            device.reset();
        }
    }
    for (k, w) in WALL_KERNELS.iter().zip(wall.iter()) {
        m.set(format!("kernel.{k}.wall_ms"), median(w), "ms");
    }

    // The planner's decision for a rank query on these inputs.
    let mut plan = Vec::new();
    for data in inputs {
        for _ in 0..3 {
            let rank = ranks.next(data.len());
            let t = Instant::now();
            let d = tracer.time("planner", "plan_rank_query", q, None, || {
                plan_rank_query(&v100(), data, rank, &cfg)
            });
            plan.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(d);
        }
    }
    m.set("planner.plan_us", median(&plan), "us");

    // Input generation.
    let gen: Vec<f64> = (0..2)
        .map(|_| {
            let t = Instant::now();
            let v = tracer.time("datagen", "generate", q, None, regenerate);
            std::hint::black_box(v);
            ms(t.elapsed())
        })
        .collect();
    m.set("datagen.generate_ms", median(&gen), "ms");
}

fn counter(snap: &ServerSnapshot, name: &str) -> f64 {
    snap.metrics
        .counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Per-layer metrics of the service ladder. The first rung is the
/// reference rate and the last the top of the ladder.
pub fn service_metrics(rungs: &[Rung], snap: &ServerSnapshot, m: &mut Metrics) {
    let reference = &rungs[0];
    let top = rungs.last().expect("a non-empty ladder");
    let answered: Vec<_> = reference
        .samples
        .iter()
        .filter(|s| s.verdict.is_ok())
        .collect();
    let submit: Vec<f64> = reference.samples.iter().map(|s| s.submit_us).collect();
    m.set("server.submit_us_p50", median(&submit), "us");
    m.set("server.submit_us_tail", stats::tail(&submit).value, "us");
    let wait: Vec<f64> = answered.iter().map(|s| s.wait_ms).collect();
    m.set("server.queue_wait_ms_p50", median(&wait), "ms");
    m.set("server.queue_wait_ms_tail", stats::tail(&wait).value, "ms");
    for (i, k) in KINDS.iter().enumerate() {
        let v: Vec<f64> = answered
            .iter()
            .filter(|s| s.kind == i)
            .map(|s| s.service_ms)
            .collect();
        m.set(format!("server.service_ms_p50.{k}"), median(&v), "ms");
    }

    let all: Vec<_> = rungs.iter().flat_map(|r| r.samples.iter()).collect();
    let total = all.len() as u64;
    m.set(
        "server.batched_share",
        share(all.iter().filter(|s| s.batched).count() as u64, total),
        "ratio",
    );
    for b in BACKENDS {
        let hits = all
            .iter()
            .filter(|s| {
                let label = s.backend.unwrap_or("other");
                label == b || (b == "other" && !BACKENDS.contains(&label))
            })
            .count() as u64;
        m.set(
            format!("server.backend_share.{b}"),
            share(hits, total),
            "ratio",
        );
    }
    let planned: Vec<_> = all.iter().filter(|s| s.planned.is_some()).collect();
    m.set(
        "server.replanned_share",
        share(
            planned
                .iter()
                .filter(|s| s.backend != s.planned.map(served_label))
                .count() as u64,
            planned.len() as u64,
        ),
        "ratio",
    );
    let offered: u64 = rungs.iter().map(|r| r.offered).sum();
    m.set(
        "server.reject_share.quota",
        share(rungs.iter().map(|r| r.refused_quota).sum(), offered),
        "ratio",
    );
    m.set(
        "server.reject_share.queue_full",
        share(rungs.iter().map(|r| r.refused_queue).sum(), offered),
        "ratio",
    );
    let exact: Vec<_> = reference
        .samples
        .iter()
        .filter(|s| s.kind == 0 && s.deadline)
        .collect();
    m.set(
        "server.degraded_share",
        share(
            exact
                .iter()
                .filter(|s| s.verdict == crate::verify::Verdict::Degraded)
                .count() as u64,
            exact.len() as u64,
        ),
        "ratio",
    );
    m.set("server.goodput_qps", top.goodput_qps(), "1/s");
    m.set("server.max_qps_at_slo", max_qps_at_slo(rungs), "1/s");
    m.set("server.drain_ms_top", top.drain_ms, "ms");

    m.set(
        "server.snapshot.queries_served",
        snap.queries_served as f64,
        "count",
    );
    m.set(
        "server.snapshot.rejected",
        counter(snap, "select_rejected_total"),
        "count",
    );
    m.set(
        "server.snapshot.deadline_degraded",
        counter(snap, "select_deadline_degraded_total"),
        "count",
    );
    m.set(
        "server.snapshot.batched",
        counter(snap, "select_batched_total"),
        "count",
    );
    m.set(
        "server.snapshot.breaker_open",
        counter(snap, "select_breaker_open_total"),
        "count",
    );

    for (i, name) in [
        "encode_request",
        "decode_request",
        "encode_response",
        "decode_response",
    ]
    .iter()
    .enumerate()
    {
        let v: Vec<f64> = reference.samples.iter().map(|s| s.codec_us[i]).collect();
        m.set(format!("wire.{name}_us"), median(&v), "us");
    }
    let req: Vec<f64> = reference
        .samples
        .iter()
        .map(|s| s.request_bytes as f64)
        .collect();
    let resp: Vec<f64> = reference
        .samples
        .iter()
        .map(|s| s.response_bytes as f64)
        .collect();
    m.set("wire.request_bytes", mean(&req), "B");
    m.set("wire.response_bytes", mean(&resp), "B");

    let lag: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    m.set(
        "generator.lag_ms_max",
        lag.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.set("generator.lag_ms_tail", stats::tail(&lag).value, "ms");
}

/// Mean self time per span of every reported layer.
pub fn self_time_metrics(tracer: &Tracer, m: &mut Metrics) {
    let times = layer_self_times(tracer.spans());
    for l in LAYERS {
        let t = times.get(l).copied().unwrap_or_default();
        let per = if t.spans == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.spans as f64 / 1e3
        };
        m.set(format!("self_us.{l}"), per, "us");
    }
}
