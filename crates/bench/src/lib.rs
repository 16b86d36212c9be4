//! The in-process speed-ratio gates behind `cargo bench -p zfgan-bench`.
//!
//! Each bench in `benches/` times a fast path against its baseline in
//! paired, interleaved rounds ([`paired_ratio`]) and asserts the median
//! ratio holds a floor ([`gate`], [`fan_out_gate`]); none writes a file.
//! The paper's tables and figures are `zfgan paper <name>`.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

/// Paired, interleaved in-process speed ratio `base / fast`: every round
/// times one `base` call and one `fast` call back to back, alternating
/// which goes first, and yields one ratio from those two adjacent samples;
/// the median round ratio is returned. Host drift and a process's
/// allocation-layout luck hit both arms of a round alike and cancel out of
/// its ratio, which is why a gate on this number needs no retries (the
/// unpaired min-vs-min ratios of separate measurement windows swing by
/// ~30 % between processes on a shared host; an interleaved probe measured
/// the paired spread at 1.3 %).
///
/// # Panics
///
/// Panics if `rounds` is zero.
pub fn paired_ratio(rounds: usize, mut base: impl FnMut(), mut fast: impl FnMut()) -> f64 {
    assert!(rounds > 0, "a paired ratio needs at least one round");
    median(
        (0..rounds)
            .map(|round| round_ratio(round, &mut base, &mut fast))
            .collect(),
    )
}

/// One round of [`paired_ratio`]: `base` and `fast` timed back to back,
/// `base` first in even rounds, and the ratio of the two times.
fn round_ratio(round: usize, base: &mut dyn FnMut(), fast: &mut dyn FnMut()) -> f64 {
    let time = |f: &mut dyn FnMut()| {
        let t = std::time::Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (b, f) = if round.is_multiple_of(2) {
        let b = time(base);
        (b, time(fast))
    } else {
        let f = time(fast);
        (time(base), f)
    };
    b / f
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// A fixed stretch of multiply–add work on eight chains that never leave
/// L1, about a millisecond on one core: what it measures is the core, not
/// the memory two cores share.
fn capacity_unit() {
    let mut acc = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
    for _ in 0..150_000 {
        for a in &mut acc {
            *a = std::hint::black_box(*a) * 0.999_999 + 1.0e-6;
        }
    }
    std::hint::black_box(acc);
}

/// [`paired_ratio`] for a fan-out gate, with a host-capacity reading taken
/// in the same rounds: each round also times two `capacity_unit`s run one
/// after the other on the calling thread against the same two as one
/// two-task pool batch. That second ratio is what the host gave the pool
/// while the gate ran: about 2 when a second core was free, about 1 when a
/// neighbour held it — so a red fan-out gate says whether the host or the
/// pool failed. Returns `(gate ratio, capacity ratio)`, each the median
/// over the rounds.
///
/// # Panics
///
/// Panics if `rounds` is zero.
pub fn paired_ratio_with_capacity(
    rounds: usize,
    mut base: impl FnMut(),
    mut fast: impl FnMut(),
) -> (f64, f64) {
    assert!(rounds > 0, "a paired ratio needs at least one round");
    let mut one_thread = || (0..2).for_each(|_| capacity_unit());
    let mut two_threads = || {
        zfgan_pool::parallel_for(2, |_| capacity_unit()).expect("capacity unit panicked");
    };
    let (gates, capacity) = (0..rounds)
        .map(|round| {
            (
                round_ratio(round, &mut base, &mut fast),
                round_ratio(round, &mut one_thread, &mut two_threads),
            )
        })
        .unzip();
    (median(gates), median(capacity))
}

/// [`gate`] for a fan-out ratio from [`paired_ratio_with_capacity`]: the
/// host-capacity reading is printed beside the ratio and named in the
/// failure.
///
/// # Panics
///
/// Panics if `ratio` is under `floor`.
pub fn fan_out_gate(name: &str, floor: f64, (ratio, capacity): (f64, f64)) {
    println!(
        "gate {name}: {} vs >={floor}x (host capacity {})",
        fmt_x(ratio),
        fmt_x(capacity)
    );
    assert!(
        ratio >= floor,
        "{name}: {} fell below its {floor}x gate at host capacity {}",
        fmt_x(ratio),
        fmt_x(capacity)
    );
}

/// Prints one ratio gate's reading and asserts it holds its floor.
///
/// # Panics
///
/// Panics if `ratio` is under `floor`.
pub fn gate(name: &str, floor: f64, ratio: f64) {
    println!("gate {name}: {} vs >={floor}x", fmt_x(ratio));
    assert!(
        ratio >= floor,
        "{name}: {} fell below its {floor}x gate",
        fmt_x(ratio)
    );
}

/// Formats a ratio with two decimals and an `x` suffix.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_x(4.3), "4.30x");
    }

    #[test]
    fn paired_ratio_alternates_which_side_goes_first() {
        let calls = std::cell::RefCell::new(String::new());
        paired_ratio(
            4,
            || calls.borrow_mut().push('b'),
            || calls.borrow_mut().push('f'),
        );
        assert_eq!(*calls.borrow(), "bffbbffb");
    }

    #[test]
    fn paired_ratio_is_the_middle_round_of_an_odd_count() {
        // Round r sleeps its base side for SLEEPS[r] ms and its fast side
        // for 10 ms: round ratios near 40, 1 and 10, whose median is the
        // last round's however far a sleep overshoots.
        const SLEEPS: [u64; 3] = [400, 10, 100];
        let round = std::cell::Cell::new(0);
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let ratio = paired_ratio(
            3,
            || {
                sleep(SLEEPS[round.get()]);
                round.set(round.get() + 1);
            },
            || sleep(10),
        );
        assert!((3.0..25.0).contains(&ratio), "{ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn paired_ratio_rejects_zero_rounds() {
        paired_ratio(0, || (), || ());
    }
}
