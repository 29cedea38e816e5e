//! Machine-speed calibration for host timings.
//!
//! The benchmark runs on shared machines whose speed drifts by ±10–20% over
//! tens of seconds, while steal time stays near zero: the same pass can take
//! 0.6 s in one minute and 0.8 s in the next. A median over one run cannot
//! remove a drift that lasts the whole run, so every pass is bracketed by a
//! fixed loop of the benchmark's own, and its host timings are scaled by
//! how fast that loop ran around it. The loop does the same work on every
//! run and no code of the program runs in it, so a change to the program
//! moves the scaled timings as much as the raw ones.

use std::time::Instant;

/// What [`Calibrator::measure`] takes on the reference machine, a 2-vCPU
/// Intel Xeon VM at 2.1 GHz: a scaled timing is the host time the pass
/// would have taken there.
pub const REFERENCE_S: f64 = 0.011;

/// Table the loop walks: 4 MiB, past the per-core caches, so the loop
/// feels both the core's speed and contention for the shared cache.
const WORDS: usize = 1 << 19;

/// Read-modify-write steps per measurement.
const STEPS: u32 = 3_000_000;

/// The calibration loop and its table, allocated once per run so that no
/// measurement includes page faults.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator { table: vec![0; WORDS] };
        c.measure(); // warm the table into memory
        c
    }

    /// Host seconds for one fixed run of the loop: pseudo-random
    /// read-modify-write steps over the table, the same addresses in the
    /// same order every time.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 1u64;
        for _ in 0..STEPS {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (x >> 40) as usize & (WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(x);
        }
        std::hint::black_box(&self.table);
        t.elapsed().as_secs_f64()
    }
}

/// The factor that turns host seconds measured while the loop took
/// `before` and `after` seconds into reference-machine seconds.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}
