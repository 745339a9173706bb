//! Tests of the benchmark harness itself: the tail-percentile rule, the
//! open-loop schedule, the answer verifier, span self time, and the
//! agreement between the metric names and `BENCHMARK.json`.

use sampleselect::server::dataset::{DatasetSpec, DistCode};
use sampleselect::{QueryKind, QueryStatus};
use selbench::metrics::{per_layer, END_TO_END};
use selbench::schedule::{poisson_schedule, service_datasets};
use selbench::stats::{tail, tail_percentile};
use selbench::trace::{layer_self_times, span_self_ns, Span};
use selbench::verify::{Reference, Verdict};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(0.5));
    assert_eq!(tail_percentile(99), Some(0.5));
    assert_eq!(tail_percentile(100), Some(0.9));
    assert_eq!(tail_percentile(999), Some(0.9));
    assert_eq!(tail_percentile(1000), Some(0.99));
    assert_eq!(tail_percentile(9999), Some(0.99));
    assert_eq!(tail_percentile(10_000), Some(0.999));

    // 1..=100 shuffled: p90 is 90, with exactly 91..=100 beyond it.
    let values: Vec<f64> = (1..=100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
    let t = tail(&values);
    assert_eq!((t.pct, t.value, t.samples), (0.9, 90.0, 100));
    assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    assert_eq!(t.label(), "p90");

    // Too small for any ladder percentile: the maximum, labelled p100.
    let t = tail(&[3.0, 1.0, 2.0]);
    assert_eq!((t.pct, t.value), (1.0, 3.0));
}

#[test]
fn poisson_schedule_is_a_pure_function_of_the_seed() {
    let datasets = service_datasets(7);
    let a = poisson_schedule(&datasets, 7, 500.0, 2.0);
    let b = poisson_schedule(&datasets, 7, 500.0, 2.0);
    assert_eq!(a, b, "same seed, same schedule");
    let c = poisson_schedule(&datasets, 8, 500.0, 2.0);
    assert_ne!(a, c, "another seed, another schedule");

    // Increasing due times inside the window, about rate x duration of
    // them (1000 expected; 5 sigma is about 160), every request against
    // one of the given datasets.
    assert!(a.windows(2).all(|w| w[0].at_s < w[1].at_s));
    assert!(a.iter().all(|x| x.at_s > 0.0 && x.at_s < 2.0));
    assert!((840..=1160).contains(&a.len()), "{} arrivals", a.len());
    assert!(a.iter().all(|x| datasets.contains(&x.req.dataset)));
    assert_eq!(service_datasets(7), datasets, "datasets follow the seed");
}

fn reference() -> (Vec<f32>, Reference) {
    let data = sampleselect::server::dataset::instantiate(&DatasetSpec {
        dist: DistCode::Distinct16,
        n: 4096,
        seed: 3,
    });
    let r = Reference::new(&data);
    (data, r)
}

#[test]
fn verifier_accepts_true_answers_and_rejects_corrupted_ones() {
    let (data, r) = reference();
    let mut sorted = data.clone();
    sorted.sort_by(f32::total_cmp);
    let n = data.len() as u64;

    let exact = QueryKind::Exact { rank: 1000 };
    let want = sorted[1000];
    assert_eq!(
        r.check(&exact, &QueryStatus::Exact { value: want }),
        Verdict::Exact
    );
    let corrupted = f32::from_bits(want.to_bits() + 1);
    assert!(matches!(
        r.check(&exact, &QueryStatus::Exact { value: corrupted }),
        Verdict::Wrong(_)
    ));

    // An approximate answer is truthful about the elements below it.
    let value = sorted[2000];
    let below = sorted.iter().filter(|&&x| x < value).count() as u64;
    let approx = |achieved_rank: u64, rank_error: u64, degraded: bool| QueryStatus::Approximate {
        value,
        achieved_rank,
        rank_error,
        deadline_degraded: degraded,
    };
    let ask = QueryKind::Approx { rank: 1900 };
    assert_eq!(
        r.check(&ask, &approx(below, below.abs_diff(1900), false)),
        Verdict::Honest
    );
    assert!(matches!(
        r.check(&ask, &approx(below + 1, below + 1 - 1900, false)),
        Verdict::Wrong(_)
    ));
    assert!(matches!(
        r.check(&ask, &approx(below, 0, false)),
        Verdict::Wrong(_)
    ));
    assert_eq!(
        r.check(&exact, &approx(below, below.abs_diff(1000), true)),
        Verdict::Degraded
    );

    let topk = QueryKind::TopK { k: 10 };
    let threshold = sorted[(n - 10) as usize];
    assert_eq!(
        r.check(&topk, &QueryStatus::TopK { threshold, k: 10 }),
        Verdict::Exact
    );
    assert!(matches!(
        r.check(
            &topk,
            &QueryStatus::TopK {
                threshold: threshold + 1.0,
                k: 10
            }
        ),
        Verdict::Wrong(_)
    ));

    let atopk = QueryKind::ApproxTopK {
        k: 10,
        recall_bits: 0.9f32.to_bits(),
    };
    let ok = QueryStatus::ApproxTopK {
        threshold: sorted[0],
        k: 10,
        expected_recall: 0.95,
    };
    assert_eq!(r.check(&atopk, &ok), Verdict::Honest);
    let above = QueryStatus::ApproxTopK {
        threshold: threshold + 1.0,
        k: 10,
        expected_recall: 0.95,
    };
    assert!(matches!(r.check(&atopk, &above), Verdict::Wrong(_)));

    let qs = QueryKind::QuantileStream {
        window_len: 1024,
        slide: 1024,
        chunk_len: 512,
    };
    let ordered = vec![sorted[100], sorted[2000], sorted[3000], sorted[4000]];
    let status = |values: Vec<f32>| QueryStatus::QuantileStream { windows: 4, values };
    assert_eq!(r.check(&qs, &status(ordered.clone())), Verdict::Exact);
    let mut unordered = ordered;
    unordered.swap(0, 3);
    assert!(matches!(
        r.check(&qs, &status(unordered)),
        Verdict::Wrong(_)
    ));

    let failed = QueryStatus::Failed {
        message: "boom".into(),
    };
    assert_eq!(r.check(&exact, &failed), Verdict::Failed("boom".into()));
    assert!(matches!(
        r.check(&exact, &QueryStatus::TopK { threshold, k: 10 }),
        Verdict::Wrong(_)
    ));
}

fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        layer,
        name: layer,
        query: 1,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = vec![
        span("harness", None, 0, 100),
        // Two overlapping children: together they cover 10..60.
        span("core.cpu", Some(0), 10, 40),
        span("std", Some(0), 30, 60),
        // A grandchild inside the first child.
        span("hpc_par", Some(1), 15, 20),
        // A child that outlives its parent is clipped to 90..100.
        span("verify", Some(0), 90, 120),
    ];
    assert_eq!(span_self_ns(&spans), vec![40, 25, 30, 5, 30]);

    let per_layer = layer_self_times(&spans);
    assert_eq!(per_layer["harness"].self_ns, 40);
    assert_eq!(per_layer["core.cpu"].self_ns, 25);
    assert_eq!(per_layer["hpc_par"].spans, 1);
    let total: u64 = per_layer.values().map(|t| t.self_ns).sum();
    assert_eq!(total, 130);
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = gpu_sim::jsonv::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        json.get(key)
            .and_then(|v| v.as_arr())
            .expect("a metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("a name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("end_to_end"), END_TO_END.to_vec());
    assert_eq!(names("per_layer"), per_layer());
    let workloads = names("workloads");
    let known: Vec<&str> = selbench::workloads::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads, known);
}
