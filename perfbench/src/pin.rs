//! The read-only query phase's host: the whole process on one CPU, with
//! the time the hypervisor took from that CPU counted.
//!
//! On a shared virtual machine a query's wall time includes steal — time
//! the vCPU was runnable but the host ran something else — and steal
//! came and went from run to run (from none to over half of a vCPU's
//! time in seconds-long stretches on the reference host). The host-speed
//! reference kernel (`calib`) ran on the main thread, while a query runs
//! on whichever vCPU the scheduler picks for the server's threads, and a
//! few 3 ms samples miss most of the steal: in runs with heavy steal the
//! calibrated query median came out up to twice the quiet one. So the
//! read-only query phase runs with every thread of the process — the
//! server's workers, batcher and writer, the load generators, and the
//! reference kernel — pinned to one CPU, and its times are scaled both
//! by the share of the wall time that CPU was not stolen, as
//! `/proc/stat` counts it, and by the reference kernel, which then
//! tracks what steal does not: the CPU's own speed and other load on it.
//! Either alone failed one case: steal correction alone read a query
//! phase sharing its CPU with a busy loop at 2.0x, the kernel alone read
//! heavy steal at up to 1.8x; together they stayed within 0.93x-1.18x
//! of the quiet reading in both.
//!
//! Linux only (`sched_setaffinity` on every task in `/proc/self/task`);
//! elsewhere, or when a call fails, the phase runs unpinned and
//! uncorrected.

use std::time::Instant;

/// Words of a CPU mask (1024 CPUs).
const WORDS: usize = 16;
type Mask = [u64; WORDS];

/// `sysconf` name of the `/proc/stat` tick rate.
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn get(tid: i32) -> Option<Mask> {
    let mut mask: Mask = [0; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(tid: i32, mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// Thread ids of every task of this process.
fn tasks() -> Vec<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// The process pinned to one CPU; dropping it restores every task's
/// allowed CPUs to the set the pinning thread had before.
pub struct Pinned {
    saved: Mask,
    /// The CPU every task is pinned to.
    pub cpu: usize,
    /// `/proc/stat` ticks per second.
    hz: f64,
}

impl Pinned {
    /// Pin every task of the process to the lowest CPU the calling
    /// thread may run on. Threads started while pinned inherit the pin.
    /// `None` when the affinity calls or the CPU's `/proc/stat` line are
    /// unavailable.
    pub fn lowest_cpu() -> Option<Pinned> {
        let saved = get(0)?;
        let cpu = (0..WORDS * 64).find(|c| saved[c / 64] >> (c % 64) & 1 == 1)?;
        // SAFETY: `sysconf` only reads its argument.
        let hz = unsafe { sysconf(SC_CLK_TCK) };
        let mut one: Mask = [0; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        let pinned = Pinned {
            saved,
            cpu,
            hz: hz as f64,
        };
        if hz <= 0 || pinned.stolen_s().is_none() || !tasks().iter().all(|&tid| set(tid, &one)) {
            return None; // `pinned` drops here and restores what was set
        }
        Some(pinned)
    }

    /// Total steal of the pinned CPU since boot, seconds (the eighth
    /// value of its `/proc/stat` line).
    pub fn stolen_s(&self) -> Option<f64> {
        let name = format!("cpu{}", self.cpu);
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name.as_str()))?;
        let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
        Some(ticks / self.hz)
    }
}

/// Run `f` on the `pinned` process and return its result with the share
/// of its wall time the pinned CPU was not stolen (1 when unpinned).
pub fn unstolen<T>(pinned: Option<&Pinned>, f: impl FnOnce() -> T) -> (T, f64) {
    let stolen = || pinned.and_then(Pinned::stolen_s);
    let (before, t) = (stolen(), Instant::now());
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    let share = match (before, stolen()) {
        (Some(a), Some(b)) if wall > 0.0 => (1.0 - (b - a) / wall).clamp(0.0, 1.0),
        _ => 1.0,
    };
    (out, share)
}

impl Drop for Pinned {
    fn drop(&mut self) {
        for tid in tasks() {
            set(tid, &self.saved);
        }
    }
}
