//! The four workloads, each in an untraced form (end-to-end metrics)
//! and a traced form (per-layer metrics).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gpu_sim::arch::v100;
use gpu_sim::Device;
use hpc_par::ThreadPool;
use sampleselect::cpu::CpuSelectConfig;
use sampleselect::server::dataset::{self, DatasetSpec};
use sampleselect::SampleSelectConfig;

use crate::host::peak_rss_mib;
use crate::library::{
    closed_loop, generate_input, generate_inputs, std_select, Entry, Family, Ranks, LIB_N,
    POOL_THREADS,
};
use crate::probes::{
    layer_sweep, loop_end_to_end, self_time_metrics, service_metrics, sim_us_mean, Tally,
};
use crate::report::Metrics;
use crate::schedule::{poisson_schedule, SERVICE_N};
use crate::service::{references, run_ladder, run_rung, Rung, Service, LADDER_QPS, LAG_LIMIT_MS};
use crate::stats::{self, median, share};
use crate::trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Simulated queries in the fixed, seed-determined set that
/// `sim_us_mean` averages, on 2^22 and on 2^16 elements.
pub const SIM_FIXED_CALLS: usize = 24;
pub const SIM_FIXED_CALLS_SERVICE: usize = 96;

/// Share of the measured seconds the traced run spends in the loop and
/// in the service part of a library workload.
const TRACED_LOOP_SHARE: f64 = 0.4;
const TRACED_SERVICE_SHARE: f64 = 0.3;

/// Share of the measured seconds of the untraced reference rung that
/// follows the traced ladder of `selectd-open`.
const OVERHEAD_RUNG_SHARE: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HostDistinct,
    HostDup,
    SimPaper,
    SelectdOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HostDistinct,
        Workload::HostDup,
        Workload::SimPaper,
        Workload::SelectdOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HostDistinct => "host-distinct",
            Workload::HostDup => "host-dup",
            Workload::SimPaper => "sim-paper",
            Workload::SelectdOpen => "selectd-open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input families of a library workload, used in equal shares.
    fn families(self) -> Vec<Family> {
        match self {
            Workload::HostDistinct => vec![Family::Distinct],
            Workload::HostDup => vec![Family::Repeated(16), Family::Repeated(1024)],
            Workload::SimPaper => vec![
                Family::Distinct,
                Family::Repeated(1024),
                Family::Repeated(16),
            ],
            Workload::SelectdOpen => Vec::new(),
        }
    }
}

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the spool and the span file.
    pub out_dir: PathBuf,
}

#[derive(Default)]
pub struct RunOutput {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Lines printed ahead of the result, each prefixed with `# `.
    pub notes: Vec<String>,
    /// Why the run must not be used, when it must not.
    pub invalid: Option<String>,
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    match cfg.workload {
        Workload::SelectdOpen => service(cfg),
        _ => library(cfg),
    }
}

fn set_setup(out: &mut RunOutput, setups: &[f64]) {
    out.metrics.set("setup_s", median(setups), "s");
    out.notes.push(format!(
        "setup_s is the median of {} set-ups: {setups:?}",
        setups.len()
    ));
}

fn note_tail(out: &mut RunOutput, metric: &str, tail: stats::Tail) {
    out.notes.push(format!(
        "{metric} is {} of {} samples",
        tail.label(),
        tail.samples
    ));
}

fn write_trace(cfg: &RunConfig, tracer: &Tracer, out: &mut RunOutput) {
    let path = cfg
        .out_dir
        .join(format!("trace-{}.jsonl", cfg.workload.name()));
    match tracer.write_json(&path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

fn overhead_share(traced: &[f64], untraced: &[f64]) -> f64 {
    median(traced) / median(untraced) - 1.0
}

fn library(cfg: &RunConfig) -> RunOutput {
    let families = cfg.workload.families();
    let sim = cfg.workload == Workload::SimPaper;
    let mut out = RunOutput::default();
    let mut off = Tracer::new(false);
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    for rep in 0..reps {
        // Set-up: data, pool, device, and one warm call per input.
        let t0 = Instant::now();
        let pool = ThreadPool::new(POOL_THREADS);
        let inputs = generate_inputs(&families, LIB_N, cfg.seed);
        let mut device = sim.then(|| {
            let mut d = Device::new(v100(), &pool);
            d.enable_buffer_pool();
            d
        });
        let mut entry = match device.as_mut() {
            Some(device) => Entry::Sim {
                device,
                ws: Box::default(),
                cfg: SampleSelectConfig::default(),
            },
            None => Entry::Host {
                pool: &pool,
                cfg: CpuSelectConfig::default(),
            },
        };
        let warm = closed_loop(
            &mut entry,
            &inputs,
            &mut Ranks::new(cfg.seed ^ 0x5741_524d),
            Duration::ZERO,
            inputs.len(),
            &mut off,
            false,
            0,
        );
        setups.push(t0.elapsed().as_secs_f64());
        out.tally.add_loop(&warm);
        if rep + 1 < reps {
            continue;
        }

        let mut ranks = Ranks::new(cfg.seed);
        let min_calls = if sim { SIM_FIXED_CALLS } else { 1 };
        if !cfg.trace {
            let budget = Duration::from_secs_f64(cfg.seconds);
            let run = closed_loop(
                &mut entry, &inputs, &mut ranks, budget, min_calls, &mut off, false, 0,
            );
            out.tally.add_loop(&run);
            out.metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");
            let tail = loop_end_to_end(&run, LIB_N, &mut out.metrics);
            note_tail(&mut out, "latency_ms_tail", tail);
            let sim_us = if sim {
                sim_us_mean(&run, SIM_FIXED_CALLS)
            } else {
                drop(entry);
                sim_probe(&pool, &inputs, cfg.seed, SIM_FIXED_CALLS, &mut out.tally)
            };
            out.metrics.set("sim_us_mean", sim_us, "sim_us");
            set_setup(&mut out, &setups);
        } else {
            let mut tracer = Tracer::new(true);
            let budget = Duration::from_secs_f64(cfg.seconds * TRACED_LOOP_SHARE);
            let run = closed_loop(
                &mut entry,
                &inputs,
                &mut ranks,
                budget,
                min_calls,
                &mut tracer,
                true,
                0,
            );
            out.tally.add_loop(&run);
            drop(entry);
            out.metrics.set(
                "trace.overhead_share",
                overhead_share(&run.traced_ms, &run.untraced_ms),
                "ratio",
            );
            let family = families[0];
            let seed0 = cfg.seed.wrapping_mul(31);
            let regenerate = move || generate_input(family, LIB_N, seed0);
            layer_sweep(
                &pool,
                &inputs,
                cfg.seed,
                &regenerate,
                &mut tracer,
                &mut out.metrics,
                &mut out.tally,
            );
            drop(inputs);
            service_layers(
                cfg,
                cfg.seconds * TRACED_SERVICE_SHARE,
                &mut tracer,
                &mut out,
                false,
            );
            self_time_metrics(&tracer, &mut out.metrics);
            write_trace(cfg, &tracer, &mut out);
        }
    }
    out
}

/// `sim_us_mean` of a workload whose loop is not the simulated path:
/// the simulated time of the fixed query set on its inputs.
fn sim_probe(
    pool: &ThreadPool,
    inputs: &[Vec<f32>],
    seed: u64,
    calls: usize,
    tally: &mut Tally,
) -> f64 {
    let mut device = Device::new(v100(), pool);
    device.enable_buffer_pool();
    let mut entry = Entry::Sim {
        device: &mut device,
        ws: Box::default(),
        cfg: SampleSelectConfig::default(),
    };
    let run = closed_loop(
        &mut entry,
        inputs,
        &mut Ranks::new(seed),
        Duration::ZERO,
        calls,
        &mut Tracer::new(false),
        false,
        0,
    );
    tally.add_loop(&run);
    sim_us_mean(&run, calls)
}

fn spool_dir(cfg: &RunConfig, rep: usize) -> PathBuf {
    cfg.out_dir
        .join(format!("spool-{}-{rep}", std::process::id()))
}

/// Every service dataset, instantiated, with the time each took.
fn instantiate_all(datasets: &[DatasetSpec]) -> (Vec<Vec<f32>>, Vec<f64>) {
    datasets
        .iter()
        .map(|s| {
            let t = Instant::now();
            let v = dataset::instantiate(s);
            (v, t.elapsed().as_secs_f64() * 1e3)
        })
        .unzip()
}

/// The latency of the answered requests of a rung.
fn answered_latency(rung: &Rung) -> Vec<f64> {
    rung.samples
        .iter()
        .filter(|s| s.verdict.is_ok())
        .map(|s| s.latency_ms)
        .collect()
}

/// Start a server, run the ladder over `seconds`, stop it, and report
/// the service's per-layer metrics. With `overhead_rung`, an untraced
/// reference rung follows the ladder to give the tracing overhead.
fn service_layers(
    cfg: &RunConfig,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut RunOutput,
    overhead_rung: bool,
) {
    let svc = Service::start(cfg.seed, &spool_dir(cfg, 0));
    let (data, inst_ms) = instantiate_all(&svc.datasets);
    out.metrics
        .set("dataset.instantiate_ms", median(&inst_ms), "ms");
    let refs = references(&svc.datasets);
    let mut next_query = 0;
    let rungs = run_ladder(
        &svc,
        cfg.seed,
        seconds,
        &refs,
        tracer,
        &mut next_query,
        &mut || {},
    );
    out.tally.add_rungs(&rungs);
    if overhead_rung {
        let duration = seconds * OVERHEAD_RUNG_SHARE;
        let arrivals = poisson_schedule(
            &svc.datasets,
            cfg.seed.wrapping_add(100),
            LADDER_QPS[0],
            duration,
        );
        let plain = run_rung(
            &svc,
            arrivals,
            LADDER_QPS[0],
            duration,
            &refs,
            &mut Tracer::new(false),
            &mut next_query,
            &mut || {},
        );
        out.tally.add_rungs(std::slice::from_ref(&plain));
        out.metrics.set(
            "trace.overhead_share",
            overhead_share(&answered_latency(&rungs[0]), &answered_latency(&plain)),
            "ratio",
        );
    }
    let snap = svc.stop();
    service_metrics(&rungs, &snap, &mut out.metrics);
    check_generator(&rungs, out);
    drop(data);
}

/// Mark the run invalid when the generator ran too late to offer the
/// schedule it claims.
fn check_generator(rungs: &[Rung], out: &mut RunOutput) {
    let lag: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    let tail = stats::tail(&lag);
    out.notes.push(format!(
        "generator lateness {} = {:.3} ms over {} arrivals (limit {LAG_LIMIT_MS} ms)",
        tail.label(),
        tail.value,
        tail.samples
    ));
    if tail.value > LAG_LIMIT_MS {
        out.invalid = Some(format!(
            "generator lateness {} of {:.1} ms exceeds {LAG_LIMIT_MS} ms",
            tail.label(),
            tail.value
        ));
    }
}

fn service(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    if cfg.trace {
        let mut tracer = Tracer::new(true);
        service_layers(cfg, cfg.seconds, &mut tracer, &mut out, true);
        let pool = ThreadPool::new(POOL_THREADS);
        let datasets = crate::schedule::service_datasets(cfg.seed);
        let (data, _) = instantiate_all(&datasets);
        let first = datasets[0];
        let regenerate = move || dataset::instantiate(&first);
        layer_sweep(
            &pool,
            &data,
            cfg.seed,
            &regenerate,
            &mut tracer,
            &mut out.metrics,
            &mut out.tally,
        );
        self_time_metrics(&tracer, &mut out.metrics);
        write_trace(cfg, &tracer, &mut out);
        return out;
    }

    let datasets = crate::schedule::service_datasets(cfg.seed);
    let refs = references(&datasets);
    let (data, _) = instantiate_all(&datasets);
    let mut setups = Vec::new();
    let mut svc = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Service::start(cfg.seed, &spool_dir(cfg, rep));
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = svc.replace(s) {
            prev.stop();
        }
    }
    let svc = svc.expect("at least one set-up");
    let mut next_query = 0;
    // The std baseline runs on the generator thread in its idle time on
    // the reference rung, over the same stretch of time as the latency
    // it is compared with: one call on a copy of a dataset per pause.
    let mut std_ranks = Ranks::new(cfg.seed ^ 0x5354_4400);
    let mut std_ms = Vec::new();
    let mut buf = Vec::new();
    let mut baseline = || {
        let d = &data[std_ms.len() % data.len()];
        buf.clear();
        buf.extend_from_slice(d);
        let rank = std_ranks.next(d.len());
        let t = Instant::now();
        std::hint::black_box(std_select(&mut buf, rank));
        std_ms.push(t.elapsed().as_secs_f64() * 1e3);
    };
    let rungs = run_ladder(
        &svc,
        cfg.seed,
        cfg.seconds,
        &refs,
        &mut Tracer::new(false),
        &mut next_query,
        &mut baseline,
    );
    out.metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");
    svc.stop();
    out.tally.add_rungs(&rungs);
    check_generator(&rungs, &mut out);

    let reference = &rungs[0];
    let latency = answered_latency(reference);
    let p50 = median(&latency);
    let tail = stats::tail(&latency);
    let top = rungs.last().expect("a non-empty ladder");
    let m = &mut out.metrics;
    m.set("latency_ms_p50", p50, "ms");
    m.set("latency_ms_tail", tail.value, "ms");
    m.set(
        "ok_share",
        share(reference.ok(), reference.offered),
        "ratio",
    );
    m.set(
        "select_melem_s",
        top.goodput_qps() * SERVICE_N as f64 / 1e6,
        "Melem/s",
    );
    for r in &rungs {
        out.notes.push(format!(
            "rung {} qps: offered {}, ok {}, refused {}/{}/{}, latency {} {:.3} ms, drain {:.3} ms, goodput {:.1} qps",
            r.rate,
            r.offered,
            r.ok(),
            r.refused_quota,
            r.refused_queue,
            r.refused_other,
            r.latency_tail().label(),
            r.latency_tail().value,
            r.drain_ms,
            r.goodput_qps()
        ));
    }
    note_tail(&mut out, "latency_ms_tail", tail);

    // The paper clock of the fixed query set on the same datasets.
    out.metrics
        .set("speedup_vs_std", median(&std_ms) / p50, "x");
    let pool = ThreadPool::new(POOL_THREADS);
    let sim_us = sim_probe(
        &pool,
        &data,
        cfg.seed,
        SIM_FIXED_CALLS_SERVICE,
        &mut out.tally,
    );
    out.metrics.set("sim_us_mean", sim_us, "sim_us");
    set_setup(&mut out, &setups);
    out
}
