//! The machine a result was measured on, reported with every result.

use std::process::{Command, Stdio};
use std::time::Instant;

/// Machine context of one benchmark run.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `SPLIT_THREADS` as set in the environment, if it is.
    pub split_threads_env: Option<String>,
    /// Worker count the pool resolves to.
    pub pool_threads: usize,
    /// Git revision of the measured tree, when it is a git checkout.
    pub git_rev: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Wall time of one busy-work unit on one thread, ms: the host's
    /// single-thread speed, which tells host drift from a regression.
    pub unit_ms: f64,
    /// Wall time of one busy-work unit on each of two threads at once ÷
    /// wall time of the same unit on one thread: 1.0 when two cores are
    /// free, 2.0 when the two threads share one core.
    pub par2_ratio: f64,
    /// Whether the peak resident set can be reset, which `peak_rss_mb`
    /// needs.
    pub rss_reset: bool,
}

impl Machine {
    /// Probe the machine (takes about a tenth of a second).
    pub fn probe() -> Self {
        let (unit_ms, par2_ratio) = busy_timings();
        Machine {
            nproc: nproc(),
            split_threads_env: std::env::var("SPLIT_THREADS").ok(),
            pool_threads: rayon::current_threads(),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            unit_ms,
            par2_ratio,
            rss_reset: RssProbe::start().reset,
        }
    }

    /// Effective cores two threads get: 2 ÷ `par2_ratio`.
    pub fn par2_capacity(&self) -> f64 {
        2.0 / self.par2_ratio
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "machine: nproc={} SPLIT_THREADS={} pool_threads={} git={} rustc=\"{}\" \
             unit_ms={:.3} par2_ratio={:.3} (two threads get {:.2} cores) rss_reset={}",
            self.nproc,
            self.split_threads_env.as_deref().unwrap_or("unset"),
            self.pool_threads,
            self.git_rev,
            self.rustc,
            self.unit_ms,
            self.par2_ratio,
            self.par2_capacity(),
            self.rss_reset
        )
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// A fixed amount of integer work the optimizer cannot remove.
fn busy_unit() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..4_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Medians over five trials of one thread doing one unit (ms), and of
/// (two threads doing one unit each) ÷ (one thread doing one unit).
fn busy_timings() -> (f64, f64) {
    let (mut one_ms, mut ratios) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        busy_unit();
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            let h = s.spawn(busy_unit);
            busy_unit();
            h.join().expect("busy thread panicked");
        });
        one_ms.push(one * 1e3);
        ratios.push(t.elapsed().as_secs_f64() / one);
    }
    (crate::stats::median(&one_ms), crate::stats::median(&ratios))
}

/// Peak resident set of one measured call. Workloads report the lowest
/// over their calls: the others carry more of what the allocator and the
/// thread-stack cache kept from earlier calls, and on the live server the
/// flight-ring snapshots of burn-rate alerts that host noise sets off.
pub struct RssProbe {
    reset: bool,
}

impl RssProbe {
    /// Hand the heap the allocator keeps from freed blocks back to the
    /// kernel, then reset the peak resident set (VmHWM) to the current
    /// resident set (Linux 4.0 and later), so the peak read next is the
    /// call's and not that of earlier calls' freed memory.
    pub fn start() -> Self {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn malloc_trim(pad: usize) -> i32;
            }
            // SAFETY: glibc's malloc_trim only releases free heap pages; it
            // takes the allocator's own locks and touches no live block.
            unsafe {
                malloc_trim(0);
            }
        }
        RssProbe {
            reset: std::fs::write("/proc/self/clear_refs", "5").is_ok(),
        }
    }

    /// Peak resident set since [`RssProbe::start`], MiB; NaN when the
    /// kernel refused the reset (a metric that reads NaN fails the run's
    /// checks).
    pub fn peak_mb(&self) -> f64 {
        if self.reset {
            peak_rss_mb()
        } else {
            f64::NAN
        }
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
