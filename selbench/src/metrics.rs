//! The metric names the benchmark reports, exactly as `BENCHMARK.json`
//! lists them. Every untraced run reports every end-to-end metric and
//! every traced run every per-layer metric, whatever the workload: a
//! layer the workload itself does not drive is measured by a short
//! probe on the workload's inputs.

/// End-to-end metrics (untraced runs).
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "peak_rss_mb",
    "ok_share",
    "latency_ms_p50",
    "latency_ms_tail",
    "select_melem_s",
    "speedup_vs_std",
    "sim_us_mean",
];

/// Kernels of the simulated SampleSelect, as its report names them.
pub const SIM_KERNELS: [&str; 6] = [
    "sample",
    "count",
    "reduce",
    "select_bucket",
    "filter",
    "base_sort",
];

/// Kernels timed by direct calls on a warm device.
pub const WALL_KERNELS: [&str; 4] = ["sample", "count", "reduce", "filter"];

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 15] = [
    "harness",
    "std",
    "verify",
    "core.cpu",
    "core.recursion",
    "hpc_par",
    "gpu_sim.kernels",
    "gpu_sim.device",
    "planner",
    "datagen",
    "generator",
    "wire",
    "server.admission",
    "server.queue",
    "server.execute",
];

/// Per-layer metrics (traced runs), in reporting order.
pub fn per_layer() -> Vec<String> {
    let mut v: Vec<String> = [
        "hpc_par.fork_join_us",
        "hpc_par.histogram_ms",
        "hpc_par.lookup_gelem_s",
        "hpc_par.simd_level",
        "cpu.levels",
        "cpu.scanned_per_n",
        "cpu.early_exit_share",
        "cpu.bytes_computed",
        "cpu.achieved_gb_s",
        "cpu.call_ms_p50",
        "std.nth_ms_p50",
        "mem.copy_gb_s_l3",
        "mem.copy_gb_s_dram",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for k in SIM_KERNELS {
        v.push(format!("kernel.{k}.sim_us"));
        v.push(format!("kernel.{k}.launches"));
    }
    for k in WALL_KERNELS {
        v.push(format!("kernel.{k}.wall_ms"));
    }
    for s in [
        "kernel.bytes_computed",
        "recursion.levels",
        "recursion.early_exit_share",
        "sim.launch_overhead_us",
        "sim.query_wall_ms_p50",
        "gpu_sim.allocs_per_query",
        "gpu_sim.reset_us",
        "server.submit_us_p50",
        "server.submit_us_tail",
        "planner.plan_us",
        "dataset.instantiate_ms",
        "datagen.generate_ms",
        "server.queue_wait_ms_p50",
        "server.queue_wait_ms_tail",
    ] {
        v.push(s.to_string());
    }
    for k in crate::schedule::KINDS {
        v.push(format!("server.service_ms_p50.{k}"));
    }
    v.push("server.batched_share".to_string());
    for b in crate::service::BACKENDS {
        v.push(format!("server.backend_share.{b}"));
    }
    for s in [
        "server.replanned_share",
        "server.reject_share.quota",
        "server.reject_share.queue_full",
        "server.degraded_share",
        "server.goodput_qps",
        "server.max_qps_at_slo",
        "server.drain_ms_top",
        "server.snapshot.queries_served",
        "server.snapshot.rejected",
        "server.snapshot.deadline_degraded",
        "server.snapshot.batched",
        "server.snapshot.breaker_open",
        "wire.encode_request_us",
        "wire.decode_request_us",
        "wire.encode_response_us",
        "wire.decode_response_us",
        "wire.request_bytes",
        "wire.response_bytes",
        "generator.lag_ms_max",
        "generator.lag_ms_tail",
        "trace.overhead_share",
    ] {
        v.push(s.to_string());
    }
    for l in LAYERS {
        v.push(format!("self_us.{l}"));
    }
    v
}
