//! Timing, order statistics, and process counters.
//!
//! All wall-clock reads go through one `wr_obs::MonotonicClock` started at
//! process entry, so `now_ns()` is also "time since the benchmark began".

use std::sync::OnceLock;

use wr_obs::{Clock, MonotonicClock};

static CLOCK: OnceLock<MonotonicClock> = OnceLock::new();

/// Start the process clock. Called first thing in `main`.
pub fn start_clock() {
    CLOCK.get_or_init(MonotonicClock::new);
}

/// Nanoseconds since [`start_clock`].
pub fn now_ns() -> u64 {
    CLOCK.get_or_init(MonotonicClock::new).now_ns()
}

/// Milliseconds elapsed since `t0_ns`.
pub fn ms_since(t0_ns: u64) -> f64 {
    now_ns().saturating_sub(t0_ns) as f64 / 1e6
}

/// Time one call, in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now_ns();
    let out = f();
    (out, ms_since(t0))
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Samples strictly above the nearest-rank `p`-th percentile's position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank)
}

/// `getrusage(RUSAGE_SELF)` fields the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_us: u64,
    pub sys_us: u64,
    pub minor_faults: u64,
    pub max_rss_kb: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource usage of this process so far (Linux, 64-bit layout).
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (two timevals then fourteen longs); getrusage writes only
    // within it and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let us = |t: &Timeval| (t.sec.max(0) as u64) * 1_000_000 + t.usec.max(0) as u64;
    Usage {
        user_us: us(&ru.utime),
        sys_us: us(&ru.stime),
        minor_faults: ru.longs[4].max(0) as u64,
        max_rss_kb: ru.longs[0].max(0) as u64,
    }
}

/// Process and pool counters sampled together around a timed window.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub usage: Usage,
    pub pool: wr_runtime::PoolStats,
}

pub fn counters() -> Counters {
    Counters {
        usage: usage(),
        pool: wr_runtime::pool_stats(),
    }
}

/// Counter growth over one or more timed windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    minor_faults: u64,
    sys_us: u64,
    user_us: u64,
    par_dispatches: u64,
    jobs_by_caller: u64,
    jobs_by_workers: u64,
}

impl Delta {
    pub fn between(a: &Counters, b: &Counters) -> Delta {
        Delta {
            minor_faults: b.usage.minor_faults.saturating_sub(a.usage.minor_faults),
            sys_us: b.usage.sys_us.saturating_sub(a.usage.sys_us),
            user_us: b.usage.user_us.saturating_sub(a.usage.user_us),
            par_dispatches: b.pool.par_dispatches.saturating_sub(a.pool.par_dispatches),
            jobs_by_caller: b.pool.jobs_by_caller.saturating_sub(a.pool.jobs_by_caller),
            jobs_by_workers: b
                .pool
                .jobs_by_workers
                .saturating_sub(a.pool.jobs_by_workers),
        }
    }

    pub fn add(&mut self, d: Delta) {
        self.minor_faults += d.minor_faults;
        self.sys_us += d.sys_us;
        self.user_us += d.user_us;
        self.par_dispatches += d.par_dispatches;
        self.jobs_by_caller += d.jobs_by_caller;
        self.jobs_by_workers += d.jobs_by_workers;
    }

    /// The `process.*` and `runtime.*` per-layer metrics, per operation.
    pub fn per_op(&self, ops: usize) -> Vec<(&'static str, f64, &'static str)> {
        let n = ops.max(1) as f64;
        let jobs = (self.jobs_by_caller + self.jobs_by_workers) as f64;
        vec![
            (
                "process.minor_faults_per_batch",
                self.minor_faults as f64 / n,
                "count",
            ),
            (
                "process.sys_cpu_ms_per_batch",
                self.sys_us as f64 / 1e3 / n,
                "ms",
            ),
            (
                "process.user_cpu_ms_per_batch",
                self.user_us as f64 / 1e3 / n,
                "ms",
            ),
            (
                "runtime.par_dispatches_per_batch",
                self.par_dispatches as f64 / n,
                "count",
            ),
            (
                "runtime.caller_job_fraction",
                if jobs > 0.0 {
                    self.jobs_by_caller as f64 / jobs
                } else {
                    1.0
                },
                "ratio",
            ),
        ]
    }
}

/// 64-bit FNV-1a, for configuration and history digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One 64-bit word into an FNV-1a state, without allocating.
pub fn fnv_word(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derive an independent sub-seed from the workload seed (splitmix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
