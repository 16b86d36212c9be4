//! Shared plumbing for the evaluation harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the index). They print an aligned text table to
//! stdout — the same rows/series the paper reports — and drop a
//! machine-readable JSON copy under `results/` so `EXPERIMENTS.md` can be
//! regenerated and diffed.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// A simple aligned-column text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let sep = widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ");
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Where sidecars land: `results/` unless `ZFGAN_RESULTS_DIR` redirects
/// it (CI smoke runs point it at a temp dir so short measurement windows
/// never clobber the tracked numbers).
fn results_dir() -> PathBuf {
    std::env::var_os("ZFGAN_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Prints a figure/table banner, the rendered table, and writes the JSON
/// sidecar under `results/<name>.json` (best effort — the harness still
/// succeeds if the directory is read-only).
pub fn emit<T: Serialize>(name: &str, title: &str, table: &TextTable, data: &T) {
    println!("== {title} ==");
    println!("{}", table.render());
    let dir = results_dir();
    let _ = fs::create_dir_all(&dir);
    match serde_json::to_string_pretty(data) {
        Ok(json) => {
            let path = dir.join(format!("{name}.json"));
            if fs::write(&path, json).is_ok() {
                println!("[wrote {}]", path.display());
            }
        }
        Err(err) => eprintln!("warning: could not serialise {name}: {err}"),
    }
    println!();
}

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

/// Formats a byte count with an SI suffix.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut v = b as f64;
    let mut i = 0;
    while v >= 1000.0 && i < UNITS.len() - 1 {
        v /= 1000.0;
        i += 1;
    }
    if i == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["alpha", "1"]).row(["b", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert!(t.render().contains('1'));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(125_829_120), "125.8 MB");
    }

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
