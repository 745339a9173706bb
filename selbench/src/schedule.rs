//! The open-loop arrival schedule of the service workload.
//!
//! Every arrival time and every request is drawn up front from the
//! workload seed, so the generator thread does nothing but wait for the
//! next due time and submit. The same seed and rate always give the
//! same schedule.

use sampleselect::rng::SplitMix64;
use sampleselect::server::dataset::{DatasetSpec, DistCode};
use sampleselect::{QueryKind, QueryRequest};

/// Elements per service dataset.
pub const SERVICE_N: u64 = 1 << 16;

/// Deadline carried by every exact query, in milliseconds.
pub const EXACT_DEADLINE_MS: u32 = 50;

/// Expected-recall target of the approximate top-k tenant.
pub const APPROX_TOPK_RECALL: f32 = 0.9;

/// The query kinds of the tenant mix, in reporting order.
pub const KINDS: [&str; 5] = ["exact", "approx", "topk", "approx_topk", "qstream"];

/// The service datasets: {uniform, d16, exponential} x two seeds.
pub fn service_datasets(seed: u64) -> Vec<DatasetSpec> {
    let mut out = Vec::new();
    for dist in [
        DistCode::Uniform,
        DistCode::Distinct16,
        DistCode::Exponential,
    ] {
        for i in 0..2u64 {
            out.push(DatasetSpec {
                dist,
                n: SERVICE_N,
                seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i + 1),
            });
        }
    }
    out
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time, in seconds from the start of the rung.
    pub at_s: f64,
    pub req: QueryRequest,
}

/// Index into [`KINDS`] of a query kind.
pub fn kind_index(kind: &QueryKind) -> usize {
    match kind {
        QueryKind::Exact { .. } => 0,
        QueryKind::Approx { .. } => 1,
        QueryKind::TopK { .. } => 2,
        QueryKind::ApproxTopK { .. } => 3,
        _ => 4,
    }
}

/// Poisson arrivals at `rate` per second over `duration_s` seconds,
/// each carrying one request of the tenant mix against one of
/// `datasets`: exact with a deadline
/// (5/14), approximate (3/14), top-k (2/14), approximate top-k at
/// recall 0.9 (2/14) and a windowed quantile stream (2/14).
pub fn poisson_schedule(
    datasets: &[DatasetSpec],
    seed: u64,
    rate: f64,
    duration_s: f64,
) -> Vec<Arrival> {
    assert!(
        rate > 0.0 && duration_s > 0.0,
        "rate and duration must be positive"
    );
    assert!(!datasets.is_empty(), "a schedule needs datasets");
    let mut rng = SplitMix64::new(seed ^ rate.to_bits().rotate_left(17));
    let n = SERVICE_N;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -rng.next_f64().max(1e-12).ln() / rate;
        if t >= duration_s {
            return out;
        }
        let dataset = datasets[rng.next_below(datasets.len())];
        let (tenant, kind, deadline_ms) = match rng.next_below(14) {
            0..=4 => (
                "tenant-exact",
                QueryKind::Exact {
                    rank: rng.next_below(n as usize) as u64,
                },
                Some(EXACT_DEADLINE_MS),
            ),
            5..=7 => (
                "tenant-approx",
                QueryKind::Approx {
                    rank: rng.next_below(n as usize) as u64,
                },
                None,
            ),
            8..=9 => (
                "tenant-topk",
                QueryKind::TopK {
                    k: 1 + rng.next_below(256) as u64,
                },
                None,
            ),
            10..=11 => (
                "tenant-approx-topk",
                QueryKind::ApproxTopK {
                    k: 1 + rng.next_below(256) as u64,
                    recall_bits: APPROX_TOPK_RECALL.to_bits(),
                },
                None,
            ),
            _ => (
                "tenant-qstream",
                QueryKind::QuantileStream {
                    window_len: n / 4,
                    slide: n / 4,
                    chunk_len: 1 << 14,
                },
                None,
            ),
        };
        out.push(Arrival {
            at_s: t,
            req: QueryRequest {
                tenant: tenant.to_string(),
                kind,
                dataset,
                deadline_ms,
                seed: rng.next_u64(),
            },
        });
    }
}
