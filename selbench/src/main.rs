//! `selbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the repository benchmark and prints, as its
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`.
//! Lines before it start with `# ` and record the host fingerprint,
//! copy bandwidth and which tail percentile each tail metric is.
//! Exits 1 on a wrong answer, 2 on bad arguments and 3 when the run is
//! invalid (the open-loop generator fell behind its schedule).

use std::path::PathBuf;
use std::process::exit;

use selbench::host::{copy_bandwidth, CountingAlloc, Fingerprint};
use selbench::library::POOL_THREADS;
use selbench::metrics::{per_layer, END_TO_END};
use selbench::report::result_line;
use selbench::workloads::{run, RunConfig, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: selbench --workload host-distinct|host-dup|sim-paper|selectd-open \
--seed N --seconds S --trace 0|1";

fn fail_usage(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    exit(2)
}

fn parse_args() -> RunConfig {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail_usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| fail_usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => fail_usage(&format!("unknown flag {flag}")),
        }
    }
    RunConfig {
        workload: workload.unwrap_or_else(|| fail_usage("--workload is required")),
        seed: seed.unwrap_or_else(|| fail_usage("--seed must be an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| fail_usage("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| fail_usage("--trace must be 0 or 1")),
        out_dir: PathBuf::from(".bench_out"),
    }
}

fn main() {
    let cfg = parse_args();
    let mut out = run(&cfg);

    // Host fingerprint and memory bandwidth, measured after the workload
    // so that neither touches its timings or its memory high-water mark.
    let fp = Fingerprint::probe(POOL_THREADS);
    let l3 = if fp.l3_bytes > 0 {
        fp.l3_bytes as usize
    } else {
        32 << 20
    };
    let resident = copy_bandwidth(l3 / 8, 20);
    let dram = copy_bandwidth(2 * l3, 3);
    if cfg.trace {
        out.metrics.set("mem.copy_gb_s_l3", resident.gb_s, "GB/s");
        out.metrics.set("mem.copy_gb_s_dram", dram.gb_s, "GB/s");
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("# host {}", fp.to_json());
    println!(
        "# copy bandwidth (computed bytes: read + write): {:.2} GB/s with two {} B arrays (L3-resident), {:.2} GB/s with two {} B arrays (4x L3)",
        resident.gb_s, resident.array_bytes, dram.gb_s, dram.array_bytes
    );
    for note in &out.notes {
        println!("# {note}");
    }

    if let Some(why) = &out.invalid {
        eprintln!("invalid run: {why}");
        exit(3);
    }
    let wanted: Vec<String> = if cfg.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let wanted: Vec<&str> = wanted.iter().map(String::as_str).collect();
    let (metrics, missing) = out.metrics.select(&wanted);
    let bad = metrics.non_finite();
    if !missing.is_empty() || !bad.is_empty() {
        eprintln!("metrics not measured: {missing:?}; not finite: {bad:?}");
        exit(1);
    }
    let t = out.tally;
    println!(
        "{}",
        result_line(t.wrong == 0, t.attempted, t.failed, &metrics)
    );
    if t.wrong > 0 {
        exit(1);
    }
}
