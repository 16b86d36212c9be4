//! The [`Dataflow`] trait and shared helpers.

use std::fmt;

use serde::{Deserialize, Serialize};
use zfgan_sim::{ConvKind, ConvShape, PhaseStats};

/// Integer ceiling division — tiling maths used by every cycle model.
///
/// # Panics
///
/// Panics if `b` is zero.
#[inline]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    assert!(b > 0, "division by zero tile size");
    a.div_ceil(b)
}

/// Which of the five evaluated architectures a configuration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchKind {
    /// No-Local-Reuse (Fig. 5a), improved with zero-skipping per the
    /// paper's evaluation methodology.
    Nlr,
    /// Weight-Stationary (Fig. 5b).
    Wst,
    /// Output-Stationary (Fig. 5c).
    Ost,
    /// Zero-Free Output-Stationary — the paper's ST-ARCH design (Fig. 11).
    Zfost,
    /// Zero-Free Weight-Stationary — the paper's W-ARCH design (Fig. 13).
    Zfwst,
}

impl ArchKind {
    /// All five architectures, in the paper's presentation order.
    pub const ALL: [ArchKind; 5] = [
        ArchKind::Nlr,
        ArchKind::Wst,
        ArchKind::Ost,
        ArchKind::Zfost,
        ArchKind::Zfwst,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ArchKind::Nlr => "NLR",
            ArchKind::Wst => "WST",
            ArchKind::Ost => "OST",
            ArchKind::Zfost => "ZFOST",
            ArchKind::Zfwst => "ZFWST",
        }
    }
}

impl fmt::Display for ArchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Publish one scheduled phase to the telemetry layer: a
/// `schedule/<arch>/<conv-kind>` span carrying the deterministic schedule
/// quantities (cycles, MACs, buffer accesses, DRAM bytes, idle-PE cycles,
/// utilization in ppm) plus arch-labelled running counters. No-op when
/// telemetry is off; the provided [`Dataflow::schedule`] calls this on the
/// model's result so all five architectures report through one channel.
fn record_schedule(kind: ArchKind, phase: &ConvShape, stats: &PhaseStats) {
    if !zfgan_telemetry::enabled() {
        return;
    }
    let conv = match phase.kind() {
        ConvKind::S => "s_conv",
        ConvKind::T => "t_conv",
        ConvKind::WGradS => "wgrad_s",
        ConvKind::WGradT => "wgrad_t",
    };
    let idle = (stats.cycles * stats.n_pes).saturating_sub(stats.effectual_macs);
    let mut span = zfgan_telemetry::span!("schedule/{}/{conv}", kind.name());
    span.record("cycles", stats.cycles);
    span.record("effectual_macs", stats.effectual_macs);
    span.record("n_pes", stats.n_pes);
    span.record("buffer_accesses", stats.access.total());
    span.record("dram_bytes", stats.dram.total_bytes());
    span.record("idle_pe_cycles", idle);
    span.record("util_ppm", (stats.utilization() * 1e6) as u64);
    let labels: &[(&str, &str)] = &[("arch", kind.name())];
    zfgan_telemetry::count("schedule_phases_total", labels, 1);
    zfgan_telemetry::count("schedule_cycles_total", labels, stats.cycles);
    zfgan_telemetry::count(
        "schedule_effectual_macs_total",
        labels,
        stats.effectual_macs,
    );
    zfgan_telemetry::count(
        "schedule_buffer_accesses_total",
        labels,
        stats.access.total(),
    );
    zfgan_telemetry::count(
        "schedule_dram_bytes_total",
        labels,
        stats.dram.total_bytes(),
    );
    zfgan_telemetry::count("schedule_idle_pe_cycles_total", labels, idle);
}

/// A dataflow architecture: maps a convolution phase onto a PE array and
/// reports the resulting schedule.
///
/// Implementors are *configurations* (an architecture plus its unrolling
/// factors); the same `Ost` type with different factors models the paper's
/// per-phase tuning of Table V.
pub trait Dataflow: fmt::Debug + Send + Sync {
    /// The architecture family.
    fn kind(&self) -> ArchKind;

    /// Number of PEs this configuration instantiates.
    fn n_pes(&self) -> u64;

    /// The closed-form cycle model of one convolution phase: cycles, access
    /// counts and PE occupancy as a pure function of the configuration and
    /// the phase. It records nothing, so a search can score thousands of
    /// candidates on it. `effectual_macs` is
    /// [`ConvShape::effectual_macs`] of `phase` — the one term that costs a
    /// loop and does not depend on the configuration, so a caller walking
    /// many configurations computes it once.
    fn model(&self, phase: &ConvShape, effectual_macs: u64) -> PhaseStats;

    /// Schedules one convolution phase: the [`Dataflow::model`] result,
    /// published to the telemetry layer.
    fn schedule(&self, phase: &ConvShape) -> PhaseStats {
        let stats = self.model(phase, phase.effectual_macs());
        record_schedule(self.kind(), phase, &stats);
        stats
    }

    /// Schedules a sequence of phases back-to-back on this array.
    fn schedule_all(&self, phases: &[ConvShape]) -> PhaseStats {
        let mut total = PhaseStats {
            n_pes: self.n_pes(),
            ..Default::default()
        };
        for p in phases {
            total = total.merged(self.schedule(p));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_div_rounds_up() {
        assert_eq!(ceil_div(10, 5), 2);
        assert_eq!(ceil_div(11, 5), 3);
        assert_eq!(ceil_div(0, 5), 0);
        assert_eq!(ceil_div(1, 1), 1);
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn ceil_div_rejects_zero() {
        let _ = ceil_div(1, 0);
    }

    #[test]
    fn arch_kind_names() {
        assert_eq!(ArchKind::Zfost.to_string(), "ZFOST");
        assert_eq!(ArchKind::ALL.len(), 5);
    }
}
