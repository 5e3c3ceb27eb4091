//! CPU-speed calibration.
//!
//! The VM this benchmark was developed on runs identical pure-CPU work
//! 25–30 % faster or slower for seconds at a time (a fixed loop
//! alternates between 7.1 ms and 9.5 ms; README, "Noise floor"), with
//! nothing else running in the guest: the host decides. Raw wall-clock
//! numbers from a 10 s run therefore land 10–27 % apart depending on
//! which regime the run met — wider than any bound worth gating on.
//!
//! So the timed loops interleave a fixed kernel with the operations
//! they time, and divide each latency by how much slower than nominal
//! the kernel ran around it. The result is a latency in milliseconds
//! *on a CPU that runs the kernel in [`NOMINAL_US`]*: the same
//! operation, the same bytes, with the host's mood divided out. The
//! kernel lives in this (frozen) package and shares no code with the
//! program under test, so both sides of a comparison are scaled by the
//! same yardstick.

use std::time::Instant;

/// What the kernel takes on the development box between its fast and
/// its slow regime. A constant, not a per-run reference: a run that
/// never meets the fast regime must still be corrected.
pub const NOMINAL_US: f64 = 20.0;
/// Ticks whose median is the current speed estimate.
const WINDOW: usize = 9;
/// At most one tick per this many microseconds of timed work, so the
/// kernel never costs a loop more than a few percent.
const MIN_GAP_US: f64 = 500.0;

/// L1-resident state: the kernel measures the core, not the memory
/// system. (Working sets of 256 KB, 1 MB and 4 MB were tried: their own
/// timing is noisier than what they correct, and the normalized
/// `serve_point` median spread 7.8 %, 5.8 % and 13.4 % over 30 rounds
/// against 2.7 % with this one.)
const WORDS: usize = 256;
const STEPS: usize = 3000;

pub struct Calibrator {
    words: [u64; WORDS],
    recent: [f64; WINDOW],
    /// Median of `recent` over nominal, refreshed at every tick so that
    /// normalizing a sample is one division.
    slowdown: f64,
    ticks: usize,
    last_tick: Instant,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut me = Calibrator {
            words: [0x9e37_79b9_7f4a_7c15; WORDS],
            recent: [NOMINAL_US; WINDOW],
            slowdown: 1.0,
            ticks: 0,
            last_tick: Instant::now(),
        };
        for _ in 0..WINDOW {
            me.tick();
        }
        me
    }

    /// A dependent chain of shifts, multiplies and table updates with
    /// data-dependent branches: integer work shaped like a query
    /// engine's inner loops, small enough to stay in L1.
    fn kernel(&mut self) -> u64 {
        let mut x = self.words[0] | 1;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x >> 32) as usize % WORDS;
            if self.words[i] & 1 == 0 {
                self.words[i] = self.words[i]
                    .wrapping_mul(0x2545_f491_4f6c_dd1d)
                    .wrapping_add(x);
            } else {
                self.words[i] ^= x.rotate_left(29);
            }
            x = x.wrapping_add(self.words[(i * 7 + 1) % WORDS]);
        }
        x
    }

    /// Run the kernel once and fold its duration into the estimate.
    pub fn tick(&mut self) {
        let started = Instant::now();
        std::hint::black_box(self.kernel());
        self.recent[self.ticks % WINDOW] = started.elapsed().as_secs_f64() * 1e6;
        self.ticks += 1;
        self.refresh();
        self.last_tick = Instant::now();
    }

    /// Tick if enough timed work has passed since the last one. Call
    /// between operations, never inside a timed interval.
    pub fn maybe_tick(&mut self) {
        if self.last_tick.elapsed().as_secs_f64() * 1e6 >= MIN_GAP_US {
            self.tick();
        }
    }

    /// How much slower than nominal the CPU currently runs (1.0 =
    /// nominal; 1.25 = a quarter slower).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    fn refresh(&mut self) {
        let mut window = self.recent;
        window.sort_by(f64::total_cmp);
        self.slowdown = window[WINDOW / 2] / NOMINAL_US;
    }

    /// `raw` (any time unit) as it would have read at nominal speed.
    pub fn normalize(&self, raw: f64) -> f64 {
        raw / self.slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_window_median_over_nominal() {
        let mut cal = Calibrator::new();
        cal.recent = [10.0, 40.0, 30.0, 20.0, 30.0, 30.0, 50.0, 30.0, 10.0];
        cal.refresh();
        assert_eq!(cal.slowdown(), 30.0 / NOMINAL_US);
        assert_eq!(cal.normalize(3.0), 3.0 / (30.0 / NOMINAL_US));
    }

    #[test]
    fn kernel_takes_measurable_time_and_is_deterministic_work() {
        let mut a = Calibrator::new();
        let mut b = Calibrator::new();
        assert_eq!(a.kernel(), b.kernel(), "same state, same work");
        assert!(a.slowdown() > 0.0);
        let before = a.ticks;
        a.maybe_tick();
        assert!(a.ticks <= before + 1);
    }
}
