//! The host record every report carries: cores, the MC pool width, and
//! a measured parallel probe, plus the process's peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// What the host offers the workload.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Worker count of the production MC pool (`NEUSPIN_THREADS` or
    /// the core count).
    pub pool_width: usize,
    /// Throughput of two spinning threads over one (2.0 = perfect).
    pub parallel_probe: f64,
}

impl Host {
    /// Measures the host (the probe spins for about 0.2 s).
    pub fn probe() -> Self {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_width: neuspin_core::ThreadPool::from_env().threads(),
            parallel_probe: parallel_probe(),
        }
    }

    /// Whether the pool width is backed by measured parallel capacity.
    /// A width above the probe (with 10 % slack) is not a scaling
    /// measurement: the workers time-share fewer cores than they claim.
    pub fn is_scaling_measurement(&self) -> bool {
        self.pool_width == 1 || self.pool_width as f64 <= self.parallel_probe * 1.1
    }
}

/// A fixed chunk of integer work that the optimiser cannot remove.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = black_box(x.rotate_left(5) ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    x
}

/// Two-thread over one-thread throughput of [`spin`]: each side runs
/// the same per-thread work, best of three.
fn parallel_probe() -> f64 {
    const ITERS: u64 = 4_000_000;
    let time = |threads: usize| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| s.spawn(|| black_box(spin(ITERS))))
                        .collect();
                    for h in handles {
                        h.join().expect("probe thread panicked");
                    }
                });
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = time(1);
    let two = time(2);
    2.0 * one / two
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
