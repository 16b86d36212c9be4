//! The reference kernel: a fixed piece of the benchmark's own arithmetic,
//! timed between the ops of an untraced run.
//!
//! The hosts this benchmark runs on share their cores: whole runs come out
//! 10–30 % slower or faster than their neighbours, for tens of seconds at
//! a time, whatever the code does, and even the fastest reading of a pure
//! arithmetic loop moves by a quarter from one run to the next (the README
//! has the measured series). No percentile of raw op times repeats under
//! that. The slowdown hits the reference kernel and the op alike, so the
//! ratio of an op's time to the reference time read around it does repeat.
//! `op_quiet_ms` is the median of that ratio, expressed in milliseconds of
//! a quiet reference host.

use std::hint::black_box;
use std::time::Instant;

/// What one run of the kernel takes on the reference host (2 vCPU, AVX2)
/// at its quietest (the lowest decile read 4.3 to 4.5 ms in the quietest
/// of thirty runs): the constant that turns the op/reference ratio back
/// into milliseconds. Changing it, or the kernel, rescales every
/// `op_quiet_ms` ever recorded.
pub const REFERENCE_QUIET_MS: f64 = 4.4;

const PARTS: u32 = 4;
const CHAIN_STEPS: u32 = 250_000;
const STREAM_ELEMS: usize = 4096;
const STREAM_PASSES: u32 = 1_750;

/// The kernel and its buffer.
pub struct Reference {
    stream: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            stream: vec![1.0; STREAM_ELEMS],
        }
    }

    /// Two phases: a serial multiply-add chain, which waits on latency and
    /// barely notices a busy sibling thread, then the same recurrence
    /// streamed over an L1-resident buffer, which is throughput-bound and
    /// notices it most. Product code sits between the two, and the sum
    /// tracked all five workloads better than either phase alone. About
    /// 1.1 ms a part, so that a timer tick is a small part of it.
    fn kernel(&mut self) -> f32 {
        let mut chain = 1.0f32;
        for step in 0..CHAIN_STEPS {
            let k = 1.0 - (step & 7) as f32 * 1e-7;
            chain = black_box(chain * k + 1e-9);
        }
        for pass in 0..STREAM_PASSES {
            let k = 1.0 - (pass & 7) as f32 * 1e-7;
            for x in &mut self.stream {
                *x = *x * k + 1e-9;
            }
        }
        chain + self.stream[17]
    }

    /// One reading, in milliseconds: the kernel runs `PARTS` times and the
    /// fastest part counts for all of them. Kernel threads that clean up
    /// after an op (write-back, freed pages) interrupt a reading in short
    /// bursts that the op itself did not pay for; the fastest part steps
    /// over them, while a busy sibling thread or a slow clock still shows
    /// in every part.
    pub fn time_ms(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..PARTS {
            let t = Instant::now();
            black_box(self.kernel());
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best * PARTS as f64
    }
}

/// `op_ms[i]` over the mean of the reference times taken just before and
/// just after op `i`; `ref_ms` holds one more reading than there are ops.
pub fn ratios(op_ms: &[f64], ref_ms: &[f64]) -> Vec<f64> {
    assert_eq!(
        ref_ms.len(),
        op_ms.len() + 1,
        "one reference reading around every op"
    );
    op_ms
        .iter()
        .zip(ref_ms.windows(2))
        .map(|(op, around)| op / ((around[0] + around[1]) / 2.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_divide_out_a_common_slowdown() {
        // An 80 ms op on a host that runs 1×, 1.5× and 2× slow, with a
        // 4 ms reference read at every op boundary: the raw op times
        // double, the ratios stay at 20.
        let op = [80.0, 120.0, 160.0];
        let reference = [3.0, 5.0, 7.0, 9.0];
        assert_eq!(ratios(&op, &reference), [20.0, 20.0, 20.0]);
    }

    #[test]
    fn the_kernel_takes_time_and_stays_finite() {
        let mut r = Reference::new();
        assert!(r.kernel().is_finite());
        assert!(r.time_ms() > 0.0);
    }
}
