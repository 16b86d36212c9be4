//! The benchmark's arithmetic: percentiles, run-to-run spread, the
//! `units_per_s` derivation, `compare` verdicts, the seeded permutation
//! behind `dse_explore_cold`'s PE budgets and the FNV-64 digest.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between order statistics. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty series");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The 10th percentile: what the traced run reports for a layer's spans.
/// Contention only ever adds time, so the low decile is nearer the quiet
/// time than the median is.
pub fn p10(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.10)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.50)
}

/// The three quartile cut points of `values`, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// `calibrate` reports the spread the driver will compute. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let x = sorted(values);
    let ld = x.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the driver gates each metric on.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    share(q3 - q1, q2)
}

/// `width` as a share of `mid`; an interval around zero is either empty or
/// immeasurably wide.
fn share(width: f64, mid: f64) -> f64 {
    if mid != 0.0 {
        width / mid.abs()
    } else if width == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// `units_per_s = units_per_op × 1000 / op_quiet_ms`.
pub fn units_per_s(units_per_op: f64, op_quiet_ms: f64) -> f64 {
    units_per_op * 1000.0 / op_quiet_ms
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// `compare`'s verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Full range of `values` as a share of their median; stands in for the
/// quartile spread when a set has fewer than four runs.
fn range_share(values: &[f64]) -> f64 {
    let x = sorted(values);
    share(x[x.len() - 1] - x[0], percentile(&x, 0.5))
}

fn set_spread(values: &[f64]) -> f64 {
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => range_share(values),
        _ => spread(values),
    }
}

/// Judges run set `b` against run set `a` on one metric.
///
/// * every run of `b` on the good side of every run of `a`, and the
///   medians apart by more than `a`'s own spread: `Better`;
/// * the median of `b` worse than that of `a` by more than `bound` (a
///   share of `a`'s median), with either the spread inside the bound or
///   the two sets fully separated: `Worse`;
/// * otherwise, a spread wider than the bound hides the answer:
///   `Unresolved`;
/// * otherwise `WithinBound`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "verdict needs runs on both sides"
    );
    let (ma, mb) = (median(a), median(b));
    // Signed change of the median in the *worse* direction, as a share of
    // the baseline median.
    let worse_by = |from: f64, to: f64| {
        let d = match better {
            Better::Lower => to - from,
            Better::Higher => from - to,
        };
        if from == 0.0 {
            if d == 0.0 {
                0.0
            } else {
                d.signum() * f64::INFINITY
            }
        } else {
            d / from.abs()
        }
    };
    let change = worse_by(ma, mb);
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_beats_all = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let a_beats_all = a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    let wide = set_spread(a).max(set_spread(b)) > bound;
    if b_beats_all && -change > set_spread(a) {
        Verdict::Better
    } else if change > bound && (!wide || a_beats_all) {
        Verdict::Worse
    } else if wide {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// SplitMix64: the benchmark's own generator for workload inputs it
/// derives itself (the product's generators seed the product's operands).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A seeded Fisher–Yates permutation of `lo..=hi`: every value exactly
/// once, so a PE budget drawn from it never repeats within a process.
pub fn permutation(seed: u64, lo: usize, hi: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (lo..=hi).collect();
    let mut rng = SplitMix64(seed);
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Incremental FNV-1a 64: the digest of a workload's simulated
/// statistics, so two commits can be compared exactly.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(pub u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 0.10), 1.0);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 9.5);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn p10_ignores_one_sided_contention() {
        // 80 ms ops of which a third were stretched by a neighbour: the
        // low decile still reads the quiet time, the median does not.
        let mut v = vec![80.0; 20];
        v.extend([120.0; 11]);
        assert_eq!(p10(&v), 80.0);
        let mut noisier = vec![80.0; 14];
        noisier.extend([130.0; 17]);
        assert_eq!(p10(&noisier), 80.0);
        assert_ne!(median(&v), median(&noisier));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn units_per_s_derivation() {
        // 4 samples in 80 ms is 50 samples/s.
        assert_eq!(units_per_s(4.0, 80.0), 50.0);
        assert_eq!(units_per_s(30.0, 100.0), 300.0);
    }

    #[test]
    fn compare_verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same numbers: within bound.
        assert_eq!(verdict(&a, &a, Better::Lower, 0.10), Verdict::WithinBound);
        // 5 % slower: inside a 10 % bound.
        let b5: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &b5, Better::Lower, 0.10), Verdict::WithinBound);
        // 20 % slower: worse; 20 % faster: better.
        let b20: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &b20, Better::Lower, 0.10), Verdict::Worse);
        let f20: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &f20, Better::Lower, 0.10), Verdict::Better);
        // Direction flips for a higher-is-better metric.
        assert_eq!(verdict(&a, &b20, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(&a, &f20, Better::Higher, 0.10), Verdict::Worse);
        // Runs that wander by more than the bound and overlap: unresolved.
        let wide_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let wide_b = [85.0, 105.0, 125.0, 95.0, 112.0];
        assert_eq!(
            verdict(&wide_a, &wide_b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide but fully separated and far apart: still worse.
        let far: Vec<f64> = wide_a.iter().map(|x| x * 2.0).collect();
        assert_eq!(verdict(&wide_a, &far, Better::Lower, 0.10), Verdict::Worse);
        // A count that must not move: any increase beyond the bound is worse.
        assert_eq!(
            verdict(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0], Better::Lower, 0.02),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0], Better::Lower, 0.02),
            Verdict::WithinBound
        );
    }

    #[test]
    fn seeded_permutation_never_repeats_a_pe_budget() {
        for seed in [0u64, 1, 29, 0xdead_beef] {
            let p = permutation(seed, 512, 4096);
            assert_eq!(p.len(), 4096 - 512 + 1);
            let mut seen = vec![false; 4097];
            for &b in &p {
                assert!((512..=4096).contains(&b));
                assert!(!seen[b], "budget {b} drawn twice under seed {seed}");
                seen[b] = true;
            }
        }
        assert_eq!(permutation(7, 512, 4096), permutation(7, 512, 4096));
        assert_ne!(permutation(7, 512, 4096), permutation(8, 512, 4096));
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        let mut h = Fnv64::default();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
