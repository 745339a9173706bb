//! The host fingerprint, memory high-water mark, copy bandwidth and an
//! allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A system allocator that counts allocations. The benchmark binary
/// installs it as the global allocator to count heap allocations per
/// warm simulated query.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations so far (0 unless [`CountingAlloc`] is installed).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Process resident-set high-water mark, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:").unwrap_or(0.0)
}

/// Size in bytes of the cache at sysfs `index` of CPU 0.
fn cache_bytes(index: u32) -> Option<u64> {
    let raw = std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .ok()?;
    let raw = raw.trim();
    let (num, mult) = match raw.strip_suffix('K') {
        Some(k) => (k, 1024),
        None => match raw.strip_suffix('M') {
            Some(m) => (m, 1 << 20),
            None => (raw, 1),
        },
    };
    num.parse::<u64>().ok().map(|v| v * mult)
}

/// What the results depend on about the machine and the build.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
    pub simd_level: &'static str,
    pub pool_threads: usize,
    pub rustc: &'static str,
    pub commit: &'static str,
    pub source_digest: &'static str,
}

impl Fingerprint {
    pub fn probe(pool_threads: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_bytes: cache_bytes(2).unwrap_or(0),
            l3_bytes: cache_bytes(3).unwrap_or(0),
            simd_level: hpc_par::simd_level().name(),
            pool_threads,
            rustc: env!("SELBENCH_RUSTC"),
            commit: env!("SELBENCH_COMMIT"),
            source_digest: env!("SELBENCH_SOURCE_DIGEST"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"l2_bytes\": {}, \"l3_bytes\": {}, \"simd_level\": \"{}\", \"pool_threads\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\"}}",
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.l2_bytes,
            self.l3_bytes,
            self.simd_level,
            self.pool_threads,
            self.rustc,
            self.commit,
            self.source_digest
        )
    }
}

/// Single-thread `memcpy` bandwidth at one array size.
#[derive(Debug, Clone, Copy)]
pub struct CopyBandwidth {
    /// Bytes in each of the source and destination arrays.
    pub array_bytes: usize,
    /// Computed bytes moved (read + write) per second, in GB/s.
    pub gb_s: f64,
}

/// Median bandwidth of `reps` copies between two `array_bytes` arrays.
pub fn copy_bandwidth(array_bytes: usize, reps: usize) -> CopyBandwidth {
    let words = (array_bytes / 8).max(1);
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    dst.copy_from_slice(&src);
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        let secs = t.elapsed().as_secs_f64().max(1e-9);
        rates.push(2.0 * (words * 8) as f64 / secs / 1e9);
    }
    CopyBandwidth {
        array_bytes: words * 8,
        gb_s: crate::stats::median(&rates),
    }
}
