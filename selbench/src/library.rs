//! The library workloads: one caller thread in a closed loop on a
//! 2-thread pool, calling the host backend (`host-*`) or the simulated
//! paper path (`sim-paper`), with std `select_nth_unstable_by` on a
//! copy of the same input and rank interleaved as the baseline and as
//! the bit-exact reference.

use std::time::{Duration, Instant};

use gpu_sim::Device;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampleselect::cpu::{cpu_sample_select, CpuSelectConfig, CpuSelectStats};
use sampleselect::rng::SplitMix64;
use sampleselect::{
    sample_select_with_workspace, SampleSelectConfig, SelectError, SelectReport, SelectWorkspace,
};
use select_datagen::{generate, Distribution};

use crate::trace::Tracer;
use crate::verify::same_bits;

/// Elements per library input (16 MiB of f32: beyond L2, inside L3).
pub const LIB_N: usize = 1 << 22;

/// Threads of the library workloads' pool.
pub const POOL_THREADS: usize = 2;

/// The input families of the library workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A seeded permutation of `n` distinct values.
    Distinct,
    /// Uniform over `d` evenly spaced values (the paper's §V-A data).
    Repeated(usize),
}

/// Generate one input of `family` from `seed`.
pub fn generate_input(family: Family, n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        Family::Distinct => {
            let mut v: Vec<f32> = generate(n, Distribution::SortedAscending, &mut rng);
            let mut shuffle = SplitMix64::new(seed ^ 0x5348_5546);
            for i in (1..v.len()).rev() {
                v.swap(i, shuffle.next_below(i + 1));
            }
            v
        }
        Family::Repeated(d) => generate(n, Distribution::UniformDistinct { distinct: d }, &mut rng),
    }
}

/// The inputs of a run, one per family, each from its own seed.
pub fn generate_inputs(families: &[Family], n: usize, seed: u64) -> Vec<Vec<f32>> {
    families
        .iter()
        .enumerate()
        .map(|(i, &f)| generate_input(f, n, seed.wrapping_mul(31).wrapping_add(i as u64)))
        .collect()
}

/// Seeded random ranks, one stream per run.
pub struct Ranks(SplitMix64);

impl Ranks {
    pub fn new(seed: u64) -> Self {
        Ranks(SplitMix64::new(seed ^ 0x5241_4e4b))
    }

    pub fn next(&mut self, n: usize) -> usize {
        self.0.next_below(n)
    }
}

/// Which program entry a library loop calls.
pub enum Entry<'a, 'p> {
    Host {
        pool: &'p hpc_par::ThreadPool,
        cfg: CpuSelectConfig,
    },
    Sim {
        device: &'a mut Device<'p>,
        ws: Box<SelectWorkspace<f32>>,
        cfg: SampleSelectConfig,
    },
}

/// What one call returned besides its value.
pub enum CallStats {
    Host(CpuSelectStats),
    Sim(Box<SelectReport>),
}

impl Entry<'_, '_> {
    fn layer(&self) -> (&'static str, &'static str) {
        match self {
            Entry::Host { .. } => ("core.cpu", "cpu_sample_select"),
            Entry::Sim { .. } => ("core.recursion", "sample_select_with_workspace"),
        }
    }

    /// One selection.
    pub fn call(&mut self, data: &[f32], rank: usize) -> Result<(f32, CallStats), SelectError> {
        match self {
            Entry::Host { pool, cfg } => {
                cpu_sample_select(pool, data, rank, cfg).map(|(v, s)| (v, CallStats::Host(s)))
            }
            Entry::Sim { device, ws, cfg } => {
                let out = sample_select_with_workspace(device, data, rank, cfg, ws);
                device.reset();
                out.map(|r| (r.value, CallStats::Sim(Box::new(r.report))))
            }
        }
    }
}

/// std's nth element on `buf`, a scratch copy of the input.
pub fn std_select(buf: &mut [f32], rank: usize) -> f32 {
    let (_, kth, _) = buf.select_nth_unstable_by(rank, f32::total_cmp);
    *kth
}

/// Samples of a closed library loop.
#[derive(Default)]
pub struct LoopRun {
    /// Wall ms of each program call.
    pub call_ms: Vec<f64>,
    /// Wall ms of each std baseline call.
    pub std_ms: Vec<f64>,
    /// Program call wall ms of traced and of untraced iterations.
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    pub stats: Vec<CallStats>,
    pub attempted: u64,
    pub ok: u64,
    pub wrong: u64,
}

/// Run the closed loop for `budget`: per iteration a fresh seeded rank,
/// the program call and the std baseline on a copy, in alternating
/// order, then a bit-exact comparison outside both timed calls. With
/// `alternate` set, only every other iteration is traced, which gives
/// the tracing overhead from the same run. At least `min_calls`
/// iterations run whatever the budget.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    entry: &mut Entry,
    inputs: &[Vec<f32>],
    ranks: &mut Ranks,
    budget: Duration,
    min_calls: usize,
    tracer: &mut Tracer,
    alternate: bool,
    first_query: u64,
) -> LoopRun {
    let mut run = LoopRun::default();
    let mut buf = vec![0f32; inputs.iter().map(Vec::len).max().unwrap_or(0)];
    let mut off = Tracer::new(false);
    let (layer, name) = entry.layer();
    let start = Instant::now();
    let mut i = 0usize;
    while i < min_calls || start.elapsed() < budget {
        let data = &inputs[i % inputs.len()];
        let rank = ranks.next(data.len());
        let query = first_query + i as u64;
        let traced = tracer.enabled() && (!alternate || i.is_multiple_of(2));
        let t: &mut Tracer = if traced { &mut *tracer } else { &mut off };
        let root = t.open("harness", "request", query, None, Instant::now());
        let buf = &mut buf[..data.len()];
        t.time("harness", "copy", query, root, || buf.copy_from_slice(data));

        let std_first = i.is_multiple_of(2);
        let mut want = 0f32;
        let mut std_call = |t: &mut Tracer| {
            let s = Instant::now();
            want = t.time("std", "select_nth_unstable_by", query, root, || {
                std_select(buf, rank)
            });
            s.elapsed()
        };
        let mut std_took = Duration::ZERO;
        if std_first {
            std_took = std_call(t);
        }
        let s = Instant::now();
        let got = t.time(layer, name, query, root, || entry.call(data, rank));
        let took = s.elapsed();
        if !std_first {
            std_took = std_call(t);
        }

        run.attempted += 1;
        match got {
            Ok((value, stats)) => {
                if t.time("verify", "compare", query, root, || same_bits(value, want)) {
                    run.ok += 1;
                } else {
                    run.wrong += 1;
                    eprintln!("wrong answer: rank {rank}: got {value}, std says {want}");
                }
                run.stats.push(stats);
            }
            Err(e) => eprintln!("call failed: rank {rank}: {e}"),
        }
        t.close(root, Instant::now());
        let ms = took.as_secs_f64() * 1e3;
        run.call_ms.push(ms);
        run.std_ms.push(std_took.as_secs_f64() * 1e3);
        if traced {
            run.traced_ms.push(ms);
        } else {
            run.untraced_ms.push(ms);
        }
        i += 1;
    }
    run
}
