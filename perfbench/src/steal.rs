//! Hypervisor steal: time the host ran something else on this machine's
//! virtual CPUs. On a shared host it comes in bursts that stretch every
//! wall-clock sample they overlap, whatever the program does, so each
//! timed sample carries the steal counted during it on the CPU the timing
//! thread ran on, and statistics are taken over the samples the host
//! disturbed least.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Charge samples the steal of every CPU rather than the timing thread's.
static ALL_CPUS: AtomicBool = AtomicBool::new(false);

/// Charge every CPU's steal from now on. For workloads whose critical path
/// alternates between processes — a client and its shard servers — steal
/// on any CPU delays it. In-process workloads keep the default: the other
/// CPU's steal goes to kernel threads (paged I/O) and charging it
/// over-corrected paged training by up to half.
pub fn charge_all_cpus() {
    ALL_CPUS.store(true, Ordering::Relaxed);
}

/// Seconds per steal tick (`USER_HZ` is 100 on Linux).
const TICK_SECS: f64 = 0.01;

/// Steal so far of each CPU, in `USER_HZ` ticks (empty where the kernel
/// does not report it).
fn per_cpu_ticks() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .skip(1)
        .take_while(|l| l.starts_with("cpu"))
        .map(|l| {
            l.split_whitespace()
                .nth(8)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        })
        .collect()
}

/// The CPU the calling thread last ran on (field 39 of its `stat`).
fn current_cpu() -> usize {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| {
            let fields = s.rsplit_once(')')?.1;
            fields.split_whitespace().nth(36)?.parse().ok()
        })
        .unwrap_or(0)
}

/// One timed interval: its wall-clock seconds and the steal during it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub secs: f64,
    pub steal: u64,
}

impl Sample {
    /// Wall-clock seconds less the steal charged to the sample: an
    /// estimate of the time on an unshared host. Meaningful for samples
    /// much longer than a tick.
    pub fn adjusted_secs(&self) -> f64 {
        (self.secs - self.steal as f64 * TICK_SECS).max(0.0)
    }
}

/// A stopwatch that also counts the steal of the CPU it runs on.
#[derive(Clone)]
pub struct Stopwatch {
    start: Instant,
    cpu: usize,
    steal: Vec<u64>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        let (cpu, steal) = (current_cpu(), per_cpu_ticks());
        Stopwatch {
            start: Instant::now(),
            cpu,
            steal,
        }
    }

    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The interval so far, charged the steal of the timing thread's CPU
    /// (the smaller of two, if the thread moved), or of every CPU after
    /// [`charge_all_cpus`].
    pub fn sample(&self) -> Sample {
        let secs = self.start.elapsed().as_secs_f64();
        let now = per_cpu_ticks();
        let stolen = |cpu: usize| match (now.get(cpu), self.steal.get(cpu)) {
            (Some(b), Some(a)) => b.saturating_sub(*a),
            _ => 0,
        };
        let end_cpu = current_cpu();
        let steal = if ALL_CPUS.load(Ordering::Relaxed) {
            (0..now.len()).map(stolen).sum()
        } else if end_cpu == self.cpu {
            stolen(self.cpu)
        } else {
            stolen(self.cpu).min(stolen(end_cpu))
        };
        Sample { secs, steal }
    }
}

/// Indices of the samples the host disturbed least: those whose steal is
/// at most the median sample's — at least half of them, and all of them
/// when nothing was stolen.
pub fn calm(samples: &[Sample]) -> Vec<usize> {
    let mut steals: Vec<u64> = samples.iter().map(|s| s.steal).collect();
    steals.sort_unstable();
    let Some(&limit) = steals.get(steals.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    (0..samples.len())
        .filter(|&i| samples[i].steal <= limit)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: f64, steal: u64) -> Sample {
        Sample { secs, steal }
    }

    #[test]
    fn calm_keeps_the_least_stolen_half() {
        let v = [s(1.0, 0), s(9.0, 40), s(1.1, 0), s(5.0, 7)];
        assert_eq!(calm(&v), vec![0, 2]);
        let quiet = [s(1.0, 0), s(2.0, 0), s(3.0, 0)];
        assert_eq!(calm(&quiet), vec![0, 1, 2]);
        assert!(calm(&[]).is_empty());
        assert!((s(2.0, 50).adjusted_secs() - 1.5).abs() < 1e-12);
    }
}
