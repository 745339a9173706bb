//! The `selectd-open` workload: one generator thread drives an
//! in-process [`SelectServer`] open-loop over a ladder of fixed offered
//! rates. Every request and response is round-tripped through the wire
//! codec in memory, and every answer is verified after the rung.
//!
//! Latency is timed from each request's scheduled due time: the time
//! `submit` returned minus the due time, plus the response's queue wait
//! and service time, plus the response codec round trip. A generator
//! that falls behind therefore shows up in latency, and its lateness is
//! reported on its own.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sampleselect::server::dataset::{self, DatasetSpec};
use sampleselect::server::wire::{self, Request, Response};
use sampleselect::{SelectError, SelectServer, ServerConfig, ServerSnapshot};

use crate::schedule::{kind_index, poisson_schedule, service_datasets, Arrival, KINDS};
use crate::stats::{self, Tail};
use crate::trace::{SpanId, Tracer};
use crate::verify::{Reference, Verdict};

/// Offered rates of the ladder, in queries per second, ascending. The
/// first rung is the reference rate, below the knee.
pub const LADDER_QPS: [f64; 4] = [300.0, 600.0, 900.0, 1400.0];

/// Share of the measured seconds each rung runs for.
pub const RUNG_SHARE: [f64; 4] = [0.55, 0.15, 0.15, 0.15];

/// Latency limit on the tail percentile for `max_qps_at_slo`, in ms.
pub const SLO_MS: f64 = 25.0;

/// Highest failed share at which a rung still meets the objective.
pub const SLO_FAIL_SHARE: f64 = 0.01;

/// A run whose generator tail lateness exceeds this (ms) is invalid.
pub const LAG_LIMIT_MS: f64 = 25.0;

/// Pause between rungs, so token buckets refill and queues empty.
const RUNG_GAP: Duration = Duration::from_millis(250);

/// Backend labels reported as `server.backend_share.<label>`.
pub const BACKENDS: [&str; 10] = [
    "sampleselect",
    "quickselect",
    "radixselect",
    "cpu-sort",
    "multiselect",
    "approx",
    "topk",
    "approx-topk",
    "quantile-stream",
    "other",
];

/// The serving label a planned backend is reported under when it runs
/// as planned (the planner names the fused top-k kernel after its
/// algorithm, the server after its query kind).
pub fn served_label(planned: &'static str) -> &'static str {
    match planned {
        "topk-sampleselect" => "topk",
        other => other,
    }
}

/// One admitted request and its answer.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: usize,
    pub latency_ms: f64,
    pub submit_us: f64,
    pub wait_ms: f64,
    pub service_ms: f64,
    pub verdict: Verdict,
    pub batched: bool,
    pub backend: Option<&'static str>,
    pub planned: Option<&'static str>,
    pub deadline: bool,
    pub codec_us: [f64; 4],
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// Outcome of one rung of the ladder.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    pub rate: f64,
    pub duration_s: f64,
    pub offered: u64,
    pub refused_quota: u64,
    pub refused_queue: u64,
    pub refused_other: u64,
    pub samples: Vec<Sample>,
    /// Generator lateness per arrival, in ms.
    pub lag_ms: Vec<f64>,
    /// From the end of the rung's window to the last response, in ms.
    pub drain_ms: f64,
}

impl Rung {
    pub fn ok(&self) -> u64 {
        self.samples.iter().filter(|s| s.verdict.is_ok()).count() as u64
    }

    /// Refusals, failures and wrong answers.
    pub fn failed(&self) -> u64 {
        self.offered - self.ok()
    }

    /// Failed statuses and wrong answers, refusals left out.
    pub fn errors(&self) -> u64 {
        self.samples.iter().filter(|s| !s.verdict.is_ok()).count() as u64
    }

    /// Failures as the result line counts them. At the reference rate
    /// every refusal is a failure; above it the ladder offers more than
    /// the server admits by design, and an explicit refusal there is
    /// the backpressure being measured (`server.reject_share.*`).
    pub fn counted_failures(&self) -> u64 {
        if self.rate <= LADDER_QPS[0] {
            self.failed()
        } else {
            self.errors()
        }
    }

    pub fn wrong(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::Wrong(_)))
            .count() as u64
    }

    /// Latency of every request; a refused, failed or wrong one counts
    /// as missing any limit, so it enters as infinitely late.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let refused = self.refused_quota + self.refused_queue + self.refused_other;
        self.samples
            .iter()
            .map(|s| {
                if s.verdict.is_ok() {
                    s.latency_ms
                } else {
                    f64::INFINITY
                }
            })
            .chain((0..refused).map(|_| f64::INFINITY))
            .collect()
    }

    pub fn latency_tail(&self) -> Tail {
        stats::tail(&self.latencies_ms())
    }

    pub fn goodput_qps(&self) -> f64 {
        self.ok() as f64 / self.duration_s
    }

    /// Whether the rung meets the latency objective without a backlog
    /// that outlasts the limit.
    pub fn meets_slo(&self) -> bool {
        self.latency_tail().value <= SLO_MS
            && stats::share(self.failed(), self.offered) <= SLO_FAIL_SHARE
            && self.drain_ms <= SLO_MS
    }
}

/// The server as the workload runs it, with its spool directory.
pub struct Service {
    pub server: SelectServer,
    spool: PathBuf,
    pub datasets: Vec<DatasetSpec>,
}

impl Service {
    /// Start `ServerConfig::default()` with a spool directory, then warm
    /// it: one query of every kind against every dataset fills the
    /// dataset cache and each worker's device and workspace.
    pub fn start(seed: u64, spool: &Path) -> Service {
        std::fs::create_dir_all(spool).expect("create the spool directory");
        let cfg = ServerConfig {
            spool_dir: Some(spool.to_path_buf()),
            ..ServerConfig::default()
        };
        let server = SelectServer::start(cfg);
        let datasets = service_datasets(seed);
        let schedule = poisson_schedule(&datasets, seed ^ 0x5741_524d, 2000.0, 0.1);
        let warm: Vec<&Arrival> = (0..KINDS.len())
            .filter_map(|k| schedule.iter().find(|a| kind_index(&a.req.kind) == k))
            .collect();
        for spec in &datasets {
            let tickets: Vec<_> = warm
                .iter()
                .filter_map(|a| {
                    let mut req = a.req.clone();
                    req.dataset = *spec;
                    server.submit(req).ok()
                })
                .collect();
            for t in tickets {
                t.wait();
            }
        }
        Service {
            server,
            spool: spool.to_path_buf(),
            datasets,
        }
    }

    /// Drain the server, join its workers and remove the spool.
    pub fn stop(self) -> ServerSnapshot {
        let snap = self.server.drain();
        let _ = std::fs::remove_dir_all(&self.spool);
        snap
    }
}

/// Sorted references of every service dataset.
pub fn references(datasets: &[DatasetSpec]) -> HashMap<DatasetSpec, Reference> {
    datasets
        .iter()
        .map(|s| (*s, Reference::new(&dataset::instantiate(s))))
        .collect()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

struct Pending {
    arrival: Arrival,
    ticket: sampleselect::server::QueryTicket,
    due: Instant,
    submitted: Instant,
    submit_us: f64,
    codec_us: [f64; 2],
    request_bytes: usize,
    query: u64,
    root: Option<SpanId>,
    wire_ok: bool,
}

/// Slack before the next due time below which the generator does
/// nothing but wait.
const IDLE_SLACK: Duration = Duration::from_millis(1);

/// Run one rung: submit `arrivals` at their due times, then collect and
/// verify every response. After a submission, when the next arrival is
/// more than [`IDLE_SLACK`] away, the generator calls `idle` once.
#[allow(clippy::too_many_arguments)]
pub fn run_rung(
    svc: &Service,
    arrivals: Vec<Arrival>,
    rate: f64,
    duration_s: f64,
    refs: &HashMap<DatasetSpec, Reference>,
    tracer: &mut Tracer,
    next_query: &mut u64,
    idle: &mut dyn FnMut(),
) -> Rung {
    let mut rung = Rung {
        rate,
        duration_s,
        offered: arrivals.len() as u64,
        ..Rung::default()
    };
    let mut pending = Vec::with_capacity(arrivals.len());
    let start = Instant::now() + Duration::from_millis(2);
    let dues: Vec<Instant> = arrivals
        .iter()
        .map(|a| start + Duration::from_secs_f64(a.at_s))
        .collect();
    for (i, arrival) in arrivals.into_iter().enumerate() {
        let due = dues[i];
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t_gen = Instant::now();
        rung.lag_ms
            .push(t_gen.saturating_duration_since(due).as_secs_f64() * 1e3);
        let query = *next_query;
        *next_query += 1;

        let request = Request::Query(arrival.req.clone());
        let t0 = Instant::now();
        let bytes = wire::encode_request(&request).expect("generated requests encode");
        let t1 = Instant::now();
        let decoded = wire::decode_request(&bytes);
        let t2 = Instant::now();
        let (req, wire_ok) = match decoded {
            Ok(Request::Query(req)) => {
                let same = req == arrival.req;
                (req, same)
            }
            _ => (arrival.req.clone(), false),
        };
        let t3 = Instant::now();
        let submitted = svc.server.submit(req);
        let t4 = Instant::now();
        // The request span runs from the due time to the response; it is
        // closed when the response is collected.
        let root = tracer.open("harness", "request", query, None, due);
        tracer.record("generator", "generator.lag", query, root, due, t_gen);
        tracer.record("wire", "wire.encode_request", query, root, t0, t1);
        tracer.record("wire", "wire.decode_request", query, root, t1, t2);
        tracer.record("server.admission", "server.submit", query, root, t3, t4);
        if submitted.is_err() {
            tracer.close(root, t4);
        }
        match submitted {
            Ok(ticket) => pending.push(Pending {
                arrival,
                ticket,
                due,
                submitted: t4,
                submit_us: us(t4 - t3),
                codec_us: [us(t1 - t0), us(t2 - t1)],
                request_bytes: bytes.len(),
                query,
                root,
                wire_ok,
            }),
            Err(SelectError::Overloaded { reason, .. }) => match reason {
                "quota" => rung.refused_quota += 1,
                "queue-full" => rung.refused_queue += 1,
                _ => rung.refused_other += 1,
            },
            Err(_) => rung.refused_other += 1,
        }
        if dues
            .get(i + 1)
            .is_some_and(|&next| next > Instant::now() + IDLE_SLACK)
        {
            idle();
        }
    }
    let last_due = start + Duration::from_secs_f64(duration_s);

    let mut last_done = last_due;
    for p in pending {
        let resp = p.ticket.wait();
        let message = Response::Done {
            status: resp.status.clone(),
            batched: resp.batched,
        };
        let t0 = Instant::now();
        let bytes = wire::encode_response(&message).expect("server responses encode");
        let t1 = Instant::now();
        let decoded = wire::decode_response(&bytes);
        let t2 = Instant::now();
        let spec = p.arrival.req.dataset;
        let kind = p.arrival.req.kind;
        let verdict = match (decoded, refs.get(&spec)) {
            (Ok(Response::Done { status, .. }), Some(r)) if p.wire_ok && status == resp.status => {
                r.check(&kind, &status)
            }
            _ => Verdict::Wrong("wire round trip changed the message".to_string()),
        };
        if let Verdict::Wrong(why) = &verdict {
            eprintln!("wrong answer: {why}");
        }
        let wait = Duration::from_secs_f64(resp.wait_ms.max(0.0) / 1e3);
        let service = Duration::from_secs_f64(resp.service_ms.max(0.0) / 1e3);
        let codec = (t1 - t0) + (t2 - t1);
        let queued = p.submitted;
        let picked = queued + wait;
        let answered = picked + service;
        let done = answered + codec;
        last_done = last_done.max(done);
        if tracer.enabled() {
            let root = p.root;
            tracer.close(root, done);
            tracer.record(
                "server.queue",
                "server.queue",
                p.query,
                root,
                queued,
                picked,
            );
            tracer.record(
                "server.execute",
                "server.execute",
                p.query,
                root,
                picked,
                answered,
            );
            tracer.record("wire", "wire.response", p.query, root, answered, done);
        }
        rung.samples.push(Sample {
            kind: kind_index(&kind),
            latency_ms: done.saturating_duration_since(p.due).as_secs_f64() * 1e3,
            submit_us: p.submit_us,
            wait_ms: resp.wait_ms,
            service_ms: resp.service_ms,
            verdict,
            batched: resp.batched,
            backend: resp.backend,
            planned: resp.planned,
            deadline: p.arrival.req.deadline_ms.is_some(),
            codec_us: [p.codec_us[0], p.codec_us[1], us(t1 - t0), us(t2 - t1)],
            request_bytes: p.request_bytes,
            response_bytes: bytes.len(),
        });
    }
    rung.drain_ms = last_done.saturating_duration_since(last_due).as_secs_f64() * 1e3;
    rung
}

/// Run the whole ladder, each rung for its share of `seconds`; `idle`
/// is the generator's idle work on the reference rung.
pub fn run_ladder(
    svc: &Service,
    seed: u64,
    seconds: f64,
    refs: &HashMap<DatasetSpec, Reference>,
    tracer: &mut Tracer,
    next_query: &mut u64,
    idle: &mut dyn FnMut(),
) -> Vec<Rung> {
    let mut rungs = Vec::new();
    for (i, (&rate, &share)) in LADDER_QPS.iter().zip(RUNG_SHARE.iter()).enumerate() {
        let duration = seconds * share;
        let arrivals = poisson_schedule(&svc.datasets, seed.wrapping_add(i as u64), rate, duration);
        let mut nothing = || {};
        let idle: &mut dyn FnMut() = if i == 0 { &mut *idle } else { &mut nothing };
        rungs.push(run_rung(
            svc, arrivals, rate, duration, refs, tracer, next_query, idle,
        ));
        std::thread::sleep(RUNG_GAP);
    }
    rungs
}

/// The highest ladder rate that meets the objective (0 if none does).
pub fn max_qps_at_slo(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.meets_slo())
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}
