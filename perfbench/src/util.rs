//! Shared helpers: timing loops, host calibration, statistics,
//! digests, seeded draws, peak RSS, process set-up (CPU pinning, one
//! malloc arena), and reference-file paths.

use std::path::PathBuf;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The least of a run's per-round samples. The traced run compares
/// its traced and untraced rounds by their fastest, the ones the host
/// disturbed least.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn least(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "least of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `min/median/max` of a sample, for the human-readable report.
pub fn spread(values: &[f64]) -> String {
    let max = values.iter().copied().fold(0.0, f64::max);
    format!("{:.4}/{:.4}/{max:.4}", least(values), median(values))
}

/// Words sorted by one call of the sort kernel.
const SORT_WORDS: usize = 200_000;
/// Calls of each kernel per calibration; the median call counts.
const CAL_CALLS: usize = 3;
/// The reference calibration time, in seconds: the geometric mean of
/// the kernels' median calls on the 2-vCPU Xeon VM the benchmark was
/// written on. Scaled times are in seconds at that speed.
const CAL_REF_S: f64 = 0.004;

/// A sliding-window similarity scan over a phased synthetic trace: the
/// data-dependent branches and counter tables of the program's
/// detector loops, at a chosen working-set size.
#[derive(Debug)]
struct WindowKernel {
    trace: Vec<u32>,
    current: Vec<u32>,
    trailing: Vec<u32>,
    current_len: usize,
    trailing_len: usize,
}

impl WindowKernel {
    /// A trace of `len` elements over `alphabet` ids that changes its
    /// working set every 5,000 elements, scanned with windows of
    /// `current_len` and `trailing_len`.
    fn new(seed: u64, len: usize, alphabet: u32, current_len: usize, trailing_len: usize) -> Self {
        let mut rng = SplitMix::new(seed);
        let mut base = 0;
        let trace = (0..len)
            .map(|i| {
                if i % 5000 == 0 {
                    base = rng.next_u64() % u64::from(alphabet);
                }
                let x = rng.next_u64();
                ((base + (x % 64) * ((x >> 8) % 3)) % u64::from(alphabet)) as u32
            })
            .collect();
        WindowKernel {
            trace,
            current: vec![0; alphabet as usize],
            trailing: vec![0; alphabet as usize],
            current_len,
            trailing_len,
        }
    }

    /// Slides the current window and the trailing window over the
    /// trace, keeping their multiset overlap incrementally, and starts
    /// a new phase whenever the overlap passes 70% of the current
    /// window. Returns the number of phases.
    fn run(&mut self) -> u64 {
        let (cur, old, trace) = (&mut self.current, &mut self.trailing, &self.trace);
        let (cw, tw) = (self.current_len, self.trailing_len);
        cur.fill(0);
        old.fill(0);
        let mut overlap = 0usize;
        let mut phases = 0;
        let mut start = 0;
        for i in 0..trace.len() {
            let e = trace[i] as usize;
            if cur[e] < old[e] {
                overlap += 1;
            }
            cur[e] += 1;
            if i < start + cw {
                continue;
            }
            let m = trace[i - cw] as usize;
            cur[m] -= 1;
            if cur[m] < old[m] {
                overlap -= 1;
            }
            if old[m] < cur[m] {
                overlap += 1;
            }
            old[m] += 1;
            if i >= start + cw + tw {
                let o = trace[i - cw - tw] as usize;
                if old[o] <= cur[o] {
                    overlap -= 1;
                }
                old[o] -= 1;
                if overlap * 10 > cw * 7 {
                    phases += 1;
                    start = i + 1;
                    cur.fill(0);
                    old.fill(0);
                    overlap = 0;
                }
            }
        }
        phases
    }
}

/// Fixed, program-independent calibration kernels that measure how
/// fast the host runs right now.
///
/// On a shared VM, other tenants slow a whole run by up to 2x for
/// minutes at a time, and raw round times of the same code then differ
/// more between runs than any bound a regression gate can use. Three
/// kernels run here, all on data drawn from fixed seeds: a
/// `sort_unstable` of 200,000 words, and two sliding-window similarity
/// scans ([`WindowKernel`]), one over 200,000 elements of 1,024 ids and
/// one over a million elements of 65,536 ids, whose 4 MiB trace and
/// 512 KiB of counters spill out of a core's L2. Of the kernels tried,
/// purely arithmetic or streaming ones slowed far less than the
/// program did, and small-footprint ones somewhat less; the geometric
/// mean of these three tracked the sweep's slowdowns about one for one.
/// Every round is timed between two calibrations and its times are
/// scaled by the reference time over the calibrations' mean, so a
/// slower host moves the kernels and the round alike and the scaled
/// time stays put. The kernels use only the standard library and
/// buffers allocated once, so no change to the program moves them.
#[derive(Debug)]
pub struct Calibration {
    words: Vec<u32>,
    small: WindowKernel,
    large: WindowKernel,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            words: vec![0; SORT_WORDS],
            small: WindowKernel::new(0xCA11_B8A7, 200_000, 1 << 10, 64, 128),
            large: WindowKernel::new(0x1A26_E5EE, 1_000_000, 1 << 16, 512, 1024),
        }
    }

    fn sort_kernel(&mut self) -> u32 {
        let mut rng = SplitMix::new(0x5047_1DA7);
        for w in &mut self.words {
            *w = rng.next_u64() as u32;
        }
        self.words.sort_unstable();
        self.words[SORT_WORDS / 2]
    }

    /// Seconds of one calibration right now: the geometric mean of the
    /// three kernels' median calls.
    pub fn measure(&mut self) -> f64 {
        let mut times = [(); 3].map(|()| Vec::with_capacity(CAL_CALLS));
        for _ in 0..CAL_CALLS {
            let started = Instant::now();
            std::hint::black_box(self.sort_kernel());
            times[0].push(started.elapsed().as_secs_f64());
            let started = Instant::now();
            std::hint::black_box(self.small.run());
            times[1].push(started.elapsed().as_secs_f64());
            let started = Instant::now();
            std::hint::black_box(self.large.run());
            times[2].push(started.elapsed().as_secs_f64());
        }
        times.iter().map(|t| median(t)).product::<f64>().cbrt()
    }

    /// The factor that turns times measured between calibrations
    /// `before` and `after` into seconds at the reference speed.
    pub fn scale(before: f64, after: f64) -> f64 {
        2.0 * CAL_REF_S / (before + after)
    }
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// glibc's `M_ARENA_MAX` parameter.
const M_ARENA_MAX: i32 = -8;

/// Makes every thread allocate from one malloc arena (glibc
/// `M_ARENA_MAX` 1). `paper_tables` starts eight preparation threads
/// per experiment; with an arena each, its peak RSS depended on how
/// the threads happened to overlap and grew from round to round as the
/// arenas kept freed memory.
pub fn single_malloc_arena() -> Result<(), String> {
    // SAFETY: `mallopt` only sets an allocator tuning parameter; it is
    // called before the process starts any thread.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 1 {
        Ok(())
    } else {
        Err("mallopt(M_ARENA_MAX, 1) failed".into())
    }
}

/// Pins the process, and every thread it starts later, to the CPU it
/// is running on now. The program starts threads even on one worker
/// (`prepare_all` one per workload, the service its worker), and on a
/// shared VM the two vCPUs run at different speeds from moment to
/// moment; pinned, the calibration and the measured work always share
/// a vCPU. Returns the CPU, or an error if the kernel refused.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: both calls only read the arguments given; the mask is a
    // live array of the size passed.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).map_err(|_| "sched_getcpu failed")?;
        let mut mask = [0u64; 16];
        if cpu >= mask.len() * 64 {
            return Err(format!("CPU {cpu} is beyond the affinity mask"));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
        if sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(cpu)
    }
}

/// Repeats `round` until `seconds` of wall-clock time have passed and
/// at least `min_rounds` rounds ran, stopping at the first error.
/// `round` times its own regions (set-up and the measured work) and
/// does untimed work, such as output checks, around them.
pub fn repeat_for(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < seconds {
        round()?;
        rounds += 1;
    }
    Ok(())
}

/// Resets the process's peak-RSS mark to its current RSS (Linux
/// `clear_refs`), so the next [`peak_rss_mb`] covers one round.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak RSS through /proc/self/clear_refs: {e}"))
}

/// Calls `f` `reps` times, appending each call's time to `times`, and
/// returns the last result. Earlier results are dropped before the
/// next call, so repetitions do not stack up in memory.
pub fn timed_reps<T>(reps: usize, times: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        let out = std::hint::black_box(f());
        times.push(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    last.expect("at least one repetition")
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// 64-bit FNV-1a over a word stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(self, w: u64) -> Fnv {
        self.bytes(&w.to_le_bytes())
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of seeded draws.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Where the recorded reference outputs live.
pub fn reference_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(name)
}

/// Where traced runs write their span logs.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Reads a reference file, naming the `--record` remedy on failure.
pub fn read_reference(name: &str) -> Result<Vec<u8>, String> {
    let path = reference_path(name);
    std::fs::read(&path).map_err(|e| {
        format!(
            "cannot read reference {}: {e} (regenerate with --record)",
            path.display()
        )
    })
}

/// Writes a reference file, creating the directory.
pub fn write_reference(name: &str, bytes: &[u8]) -> Result<(), String> {
    let path = reference_path(name);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_kernels_keep_their_counts_consistent() {
        // Debug builds check every counter update for underflow.
        let mut calibration = Calibration::new();
        for kernel in [&mut calibration.small, &mut calibration.large] {
            let phases = kernel.run();
            assert!(phases > 0, "the synthetic trace has phases");
            assert_eq!(phases, kernel.run(), "the kernel is deterministic");
        }
        assert!(calibration.measure() > 0.0);
    }
}
