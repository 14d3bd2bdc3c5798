//! Host speed. The host runs other machines' work beside this one, and
//! spells of it slow this machine's CPUs without any steal being counted:
//! for tens of seconds at a time, the in-process workloads' scoring
//! requests (each rebuilds a hash index of every fact row) took up to half
//! as long again, even their fastest requests did, and the run medians of
//! five seeds spread 0.19–0.32 (interquartile range over median) where the
//! bound is 0.25.
//!
//! So the benchmark times a fixed probe, a hash-table build that belongs
//! to the benchmark, around every set-up, between training iterations and
//! between the slices of each scoring window, and reports every time at
//! the reference host speed, a host on which the probe takes
//! [`REFERENCE_MS`]: the time times `REFERENCE_MS` over the probe time
//! around it. A program change moves the timed work and not the probe; the
//! host moves both. Over two sets of ten seeds, scaling narrowed the
//! in-process workloads' request spreads from 0.11–0.28 to 0.04–0.12. The
//! probe runs while nothing of the program's is in flight, and its table
//! is allocated once and reused, so the program's heap does not reach
//! into it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

use crate::steal::Sample;

/// Keys the probe inserts per timing.
const KEYS: u64 = 30_000;

/// The probe time scaled times are reported at: about the probe's median
/// on the 2-vCPU Xeon virtual machine the benchmark was tuned on, where a
/// probe took 1.2–2.6 ms.
pub const REFERENCE_MS: f64 = 2.0;

/// The probe: a hash table kept across timings (fixed hash keys, so every
/// process does the same work).
pub struct Probe {
    table: HashMap<u64, [u64; 2], BuildHasherDefault<DefaultHasher>>,
}

impl Default for Probe {
    fn default() -> Probe {
        let mut probe = Probe {
            table: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
        };
        // Warm-up: the first timing pays for faulting the table in.
        probe.time_ms();
        probe
    }
}

impl Probe {
    /// Time one probe: insert [`KEYS`] pseudo-random keys into the emptied
    /// table, then read every value back.
    pub fn time_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        self.table.clear();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.table.insert(x, [i, x]);
        }
        let sum = self
            .table
            .values()
            .fold(0u64, |acc, v| acc.wrapping_add(v[1]));
        std::hint::black_box(sum);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// A timed interval with the host speed during it: the mean probe time
/// around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub sample: Sample,
    pub probe_ms: f64,
}

impl Timed {
    /// Seconds less steal, at the reference host speed when `scale`.
    pub fn secs(&self, scale: bool) -> f64 {
        let secs = self.sample.adjusted_secs();
        if scale {
            secs * self.reference_factor()
        } else {
            secs
        }
    }

    /// The factor that brings a time to the reference host speed.
    fn reference_factor(&self) -> f64 {
        REFERENCE_MS / self.probe_ms.max(1e-9)
    }
}

/// The samples the host disturbed least (see `steal.rs`).
pub fn calm(v: &[Timed]) -> Vec<usize> {
    let samples: Vec<Sample> = v.iter().map(|t| t.sample).collect();
    crate::steal::calm(&samples)
}

/// Times of the calm samples, less their steal and, when `scale`, at the
/// reference host speed.
pub fn calm_secs(v: &[Timed], scale: bool) -> Vec<f64> {
    calm(v).into_iter().map(|i| v[i].secs(scale)).collect()
}

/// Wall-clock times of the calm samples at the reference host speed, for
/// samples too short to subtract steal ticks from (set-ups).
pub fn calm_wall_secs(v: &[Timed]) -> Vec<f64> {
    calm(v)
        .into_iter()
        .map(|i| v[i].sample.secs * v[i].reference_factor())
        .collect()
}
