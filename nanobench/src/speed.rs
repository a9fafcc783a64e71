//! The host-speed probe that puts CPU-bound end-to-end times on one
//! scale.
//!
//! On the reference host (a 2-vCPU VM on a shared machine) the same
//! call runs up to ~1.9x slower in some minutes than in others, in
//! spells of seconds to minutes, so whole runs land in a fast or a slow
//! spell and their wall times spread by more than any bound a
//! regression check could use. Longer runs do not help: over 100
//! consecutive `paper_suite` rounds, windows of 5 to 20 rounds spread
//! alike (IQR/median 0.2–0.3).
//!
//! So a workload whose time is CPU-bound brackets every timed unit (a
//! CLI call or a set-up) with a fixed kernel of the benchmark's own,
//! which no change to the program can move, and scales the unit's wall
//! time by [`REFERENCE_MS`] over the kernel's mean time around the
//! unit: the wall time the unit takes at the reference speed. The
//! slowdowns come mostly from the memory side (a cache-bound kernel
//! swings ~2.5x as much as a register-bound one), and each kind of work
//! follows the kernels that share its bottleneck. Over 34 cold calls of
//! each kind, log call time against log kernel time:
//! - sweeps, hill climbs and `optimize` against [`Kernel::Memory`]:
//!   slopes 1.0–1.2, correlation 0.7–0.9; scaling cut the spread of
//!   three-round medians of their sum from 0.23 to 0.03 (IQR/median);
//! - `mc` calls, fast and exact, sit between the two: slopes 0.6–0.7
//!   against `Memory` and 1.5–2.4 against [`Kernel::Compute`]. Scaling
//!   by the geometric mean of both cut that spread from 0.14 to 0.06,
//!   where either kernel alone left 0.09–0.11.
//!
//! `serve_mix` is not scaled: most of its time is the server's ~40 ms
//! per-response stall, a timer the host's speed does not move. The
//! unscaled wall times stay in each run's detail record.

use std::time::Instant;

/// What a probe kernel is bound by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Random reads over a 4 MiB table — the working-set size of the
    /// suite's larger plans — with a data-dependent branch and a `ln`
    /// or `sqrt` per step.
    Memory,
    /// A dependent chain of `exp` and `ln` in registers, as in the
    /// device models a Newton solve evaluates.
    Compute,
}

/// Entries of the [`Kernel::Memory`] table.
const WORDS: usize = 1 << 19;
/// Steps per pass of either kernel.
const STEPS: usize = 1 << 18;
/// Passes per sample. A sample is their median, so a blip in one pass
/// (a preemption, the table evicted by the call before) does not move
/// it.
const PASSES: usize = 5;
/// Median time of one pass of either kernel on the reference host
/// \[ms\].
pub const REFERENCE_MS: f64 = 6.25;

/// The kernels a workload is scaled by, the memory kernel's table, and
/// the last sample, which opens the next bracket.
pub struct Probe {
    kernels: Vec<Kernel>,
    table: Vec<u64>,
    last_ms: Option<f64>,
    samples_ms: Vec<f64>,
}

impl Probe {
    pub fn new(kernels: &[Kernel]) -> Probe {
        let table = if kernels.contains(&Kernel::Memory) {
            (0..WORDS as u64).map(|i| nanoleak_core::exec::mix(0x5eed, i)).collect()
        } else {
            Vec::new()
        };
        Probe { kernels: kernels.to_vec(), table, last_ms: None, samples_ms: Vec::new() }
    }

    /// One sample \[ms\]: per kernel, the median time of [`PASSES`]
    /// passes; over the kernels, the geometric mean.
    fn sample(&mut self) -> f64 {
        let log_sum: f64 = self
            .kernels
            .iter()
            .map(|&k| {
                let passes: Vec<f64> = (0..PASSES).map(|_| self.pass(k)).collect();
                crate::report::median(&passes).ln()
            })
            .sum();
        let ms = (log_sum / self.kernels.len() as f64).exp();
        self.samples_ms.push(ms);
        ms
    }

    /// Times one pass of `kernel` \[ms\]: the same steps on the same
    /// data every time.
    fn pass(&self, kernel: Kernel) -> f64 {
        let start = Instant::now();
        let mut acc = 0.0f64;
        match kernel {
            Kernel::Memory => {
                let mut x = 0x2545_f491_4f6c_dd1d_u64;
                for _ in 0..STEPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let f =
                        (self.table[x as usize & (WORDS - 1)] >> 11) as f64 / (1u64 << 53) as f64;
                    acc += if f > 0.5 { (1.0 + f).ln() } else { f.sqrt() };
                }
            }
            Kernel::Compute => {
                let mut x = 0.3f64;
                for i in 0..STEPS {
                    let s = 1.0 / (1.0 + (-x).exp());
                    acc += s.ln();
                    x = s * 2.0 - 0.4 + (i & 7) as f64 * 0.01;
                }
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Runs `f` between two samples and returns its output with the
    /// scale from its wall time to the reference speed. The closing
    /// sample opens the next bracket, so back-to-back units share it.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last_ms {
            Some(ms) => ms,
            None => self.sample(),
        };
        let out = f();
        let after = self.sample();
        self.last_ms = Some(after);
        (out, scale(before, after))
    }

    /// Median sample (pass) time of this run \[ms\]; `0.0` before any
    /// sample.
    pub fn median_ms(&self) -> f64 {
        crate::report::median(&self.samples_ms)
    }
}

/// The scale that converts a wall time to the reference speed, given
/// the kernel's samples before and after the timed unit \[ms\].
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_the_probe_time_onto_the_reference() {
        assert_eq!(scale(REFERENCE_MS, REFERENCE_MS), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), 0.5);
        assert_eq!(scale(0.5 * REFERENCE_MS, 1.5 * REFERENCE_MS), 1.0);
    }

    #[test]
    fn back_to_back_units_share_a_sample() {
        for kernels in
            [&[Kernel::Memory][..], &[Kernel::Compute], &[Kernel::Memory, Kernel::Compute]]
        {
            let mut p = Probe::new(kernels);
            let (out, k) = p.around(|| 7);
            assert_eq!(out, 7);
            assert!(k.is_finite() && k > 0.0, "{kernels:?}: {k}");
            p.around(|| ());
            assert_eq!(p.samples_ms.len(), 3, "two brackets, one shared sample");
        }
    }
}
