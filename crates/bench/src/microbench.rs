//! Minimal wall-clock microbenchmark runner.
//!
//! The workspace builds offline without Criterion, so the `benches/` targets
//! use this instead: adaptive batch sizing (double the iteration count until
//! a batch is long enough to time reliably), then a fixed number of
//! measurement windows, reporting the median ns/iter of the windows and
//! their interquartile range — the row's own spread, against which a
//! difference between two rows can be read. Run via `cargo bench` as usual;
//! set `DJSTAR_BENCH_MS` to change the per-benchmark measurement time.

use djstar_stats::Summary;
use std::time::{Duration, Instant};

/// Measurement windows per benchmark: the samples of its median and IQR.
const WINDOWS: u32 = 15;

/// Measurement time per benchmark (milliseconds), `DJSTAR_BENCH_MS`, split
/// into [`WINDOWS`] windows.
fn window_ms() -> u64 {
    std::env::var("DJSTAR_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Time `f`, printing `name  <median> ns/iter  (IQR <q3 − q1> ns = <%>, ...)`
/// over `WINDOWS` (15) windows that split the measurement time evenly; each
/// window runs whole batches, at least one.
///
/// The closure's return value is passed through [`std::hint::black_box`] so
/// the optimizer cannot delete the measured work.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    // Warm up and find a batch size that runs for at least ~2 ms.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        if t0.elapsed() >= Duration::from_millis(2) || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let window = Duration::from_millis(window_ms()) / WINDOWS;
    let per_iter: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let start = Instant::now();
            let mut batches = 0u64;
            while batches == 0 || start.elapsed() < window {
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                batches += 1;
            }
            start.elapsed().as_nanos() as f64 / (batches * iters) as f64
        })
        .collect();
    let q = |p| Summary::percentile(&per_iter, p).expect("WINDOWS > 0");
    let (median, iqr) = (q(50.0), q(75.0) - q(25.0));
    let pct = 100.0 * iqr / median;
    println!(
        "{name:<44} {median:>12.1} ns/iter   (IQR {iqr:.1} = {pct:.1} %, {WINDOWS} windows x {iters})"
    );
}

/// Print a section header, mirroring Criterion's group labels.
pub fn group(name: &str) {
    println!("\n## {name}");
}
