//! Host interference: the hypervisor's steal time, read from
//! `/proc/stat`, marks the windows in which this VM was kept off its
//! CPUs. The benchmark summarizes the quieter windows (steal at or below
//! the run's median), so a burst of neighbour load cannot masquerade as a
//! program regression. The rule looks only at steal, never at the
//! measured numbers, and a run without steal keeps every window.

/// Cumulative CPU ticks of the whole machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ticks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks (user through steal).
    pub total: u64,
}

/// Reads the aggregate `cpu` line of `/proc/stat`; zero ticks where it
/// is unavailable (then every window counts as quiet).
pub fn read() -> Ticks {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Ticks::default();
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return Ticks::default();
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Ticks {
        steal: fields.get(7).copied().unwrap_or(0),
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user).
        total: fields.iter().take(8).sum(),
    }
}

/// Stolen share of the interval between two readings.
pub fn fraction(from: Ticks, to: Ticks) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        return 0.0;
    }
    to.steal.saturating_sub(from.steal) as f64 / total as f64
}

/// Stolen share of each interval between consecutive readings.
pub fn fractions(readings: &[Ticks]) -> Vec<f64> {
    readings.windows(2).map(|w| fraction(w[0], w[1])).collect()
}

/// Which intervals are quiet: steal at or below the median steal of the
/// run. At least half of the intervals are always kept, all of them when
/// steal is flat.
pub fn quiet(fractions: &[f64]) -> Vec<bool> {
    let median = crate::stats::Samples::new(fractions.to_vec()).median();
    fractions.iter().map(|&f| f <= median).collect()
}

/// Median of the values measured over quiet intervals, from
/// `(value, steal share)` pairs.
pub fn quiet_median(samples: &[(f64, f64)]) -> f64 {
    let keep = quiet(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    let kept: Vec<f64> = samples
        .iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(s, _)| s.0)
        .collect();
    crate::stats::Samples::new(kept).median()
}

/// Median stolen share of a run's intervals, percent (for the run
/// block).
pub fn median_pct(fractions: &[f64]) -> f64 {
    crate::stats::Samples::new(fractions.to_vec()).median() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_fraction_is_the_stolen_share_of_the_interval() {
        let a = Ticks {
            steal: 10,
            total: 1000,
        };
        let b = Ticks {
            steal: 30,
            total: 1200,
        };
        assert_eq!(fraction(a, b), 0.1);
        assert_eq!(fraction(a, a), 0.0);
        assert_eq!(fractions(&[a, b, b]), vec![0.1, 0.0]);
    }

    #[test]
    fn quiet_keeps_the_calmer_half_and_every_tie() {
        assert_eq!(quiet(&[0.3, 0.0, 0.1, 0.2]), vec![false, true, true, false]);
        assert_eq!(quiet(&[0.0, 0.0, 0.0]), vec![true, true, true]);
        assert_eq!(
            quiet(&[0.2, 0.1, 0.1, 0.5, 0.1]),
            vec![false, true, true, false, true]
        );
    }

    #[test]
    fn quiet_median_ignores_the_stolen_samples() {
        assert_eq!(quiet_median(&[(1.0, 0.0), (9.0, 0.4), (2.0, 0.1)]), 1.5);
        assert_eq!(quiet_median(&[(3.0, 0.0), (1.0, 0.0), (2.0, 0.0)]), 2.0);
    }

    #[test]
    fn reads_this_host() {
        let t = read();
        assert!(t.steal <= t.total);
    }
}
