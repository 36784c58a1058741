//! Small measurement helpers: nearest-rank percentiles with the
//! "ten samples beyond" rule, medians, a reply digest, the process's
//! peak resident set, the calling thread's CPU time, and a fixed loop
//! that gauges the host's speed.

use std::time::Instant;

/// Nearest-rank percentile `pct` (0..=100) of an ascending slice, or
/// `None` unless at least ten samples lie beyond the chosen rank: a
/// percentile backed by fewer tail samples is not reported.
pub fn nearest_rank(sorted: &[f64], pct: usize) -> Option<f64> {
    assert!(pct <= 100, "percentile must be in 0..=100");
    let n = sorted.len();
    // Integer ceil(pct·n/100) keeps the rank exact (0.99·1000 is not).
    let rank = (pct * n).div_ceil(100).max(1);
    if n < rank + 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean, `0.0` for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, `0.0` when `den` is zero (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a stream of byte strings: a stable digest of replies or
/// selections that two runs of one seed must reproduce exactly.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Length-delimit so ("ab","c") and ("a","bc") differ.
        for b in (bytes.len() as u64).to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The process's high-water resident set in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU seconds the calling thread has used (`CLOCK_THREAD_CPUTIME_ID`).
/// Unlike wall time, it leaves out time the host took the vCPU away.
pub fn thread_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Milliseconds a fixed single-threaded loop takes: 32 products of two
/// cache-resident 64×64 f32 matrices, the kind of work the model does.
/// It runs none of the program's code, so a code change cannot move it;
/// when it moves between runs, the host changed speed.
pub fn calibrate_ms() -> f64 {
    const N: usize = 64;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.125).collect();
    let mut c = vec![0.0f32; N * N];
    let t = Instant::now();
    for _ in 0..32 {
        for i in 0..N {
            for k in 0..N {
                let x = std::hint::black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += x * a[k * N + j];
                }
            }
        }
    }
    std::hint::black_box(&c);
    t.elapsed().as_secs_f64() * 1e3
}

/// Print the host-speed gauge taken at several points of a run, so two
/// runs can be compared for host drift apart from the program.
pub fn print_calibration(ms: &[f64]) {
    let shown: Vec<String> = ms.iter().map(|v| format!("{v:.3}")).collect();
    println!(
        "host_calib_ms: median {:.3} over {} points [{}]",
        median(ms),
        ms.len(),
        shown.join(" ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(nearest_rank(&ramp(999), 99), None);
        // n = 1000: rank 990, samples 991..=1000 lie beyond it.
        assert_eq!(nearest_rank(&ramp(1000), 99), Some(990.0));
        assert_eq!(nearest_rank(&ramp(2000), 99), Some(1980.0));
    }

    #[test]
    fn p50_is_nearest_rank() {
        assert_eq!(nearest_rank(&ramp(21), 50), Some(11.0));
        assert_eq!(nearest_rank(&ramp(20), 50), Some(10.0));
        // Too few samples for ten beyond the median.
        assert_eq!(nearest_rank(&ramp(19), 50), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn thread_cpu_counts_work_not_sleep() {
        let t = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_s() - t;
        let t = thread_cpu_s();
        let wall = std::time::Instant::now();
        let mut x = 0u64;
        while wall.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let worked = thread_cpu_s() - t;
        assert!(slept < 0.01, "sleeping used {slept} s of CPU");
        assert!(worked > 0.02, "spinning used only {worked} s of CPU");
    }

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let d = |parts: &[&str]| {
            let mut g = Digest::new();
            for p in parts {
                g.bytes(p.as_bytes());
            }
            g.hex()
        };
        assert_eq!(d(&["ab", "c"]), d(&["ab", "c"]));
        assert_ne!(d(&["ab", "c"]), d(&["a", "bc"]));
        assert_ne!(d(&["ab", "c"]), d(&["c", "ab"]));
    }
}
