//! Evaluation statistics.

use co_calculus::MatchStats;
use std::fmt;
use std::time::Duration;

/// Statistics of one fixpoint run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Applications of the rule set `R` (iterations), including the one
    /// that confirmed the fixpoint.
    pub iterations: u64,
    /// Individual rule applications (`iterations × |R|` unless short-cut).
    pub rule_applications: u64,
    /// Matching work units dispatched: one per rule per iteration when
    /// sequential; one per rule × partition when parallel (see
    /// `Engine::parallelism`).
    pub work_units: u64,
    /// Matcher statistics accumulated over the run.
    pub matching: MatchStats,
    /// Store garbage collections run by the engine (see
    /// `Engine::gc_cadence`).
    pub gc_sweeps: u64,
    /// Interned nodes those collections freed.
    pub gc_freed_nodes: u64,
    /// Database size (nodes) after each iteration.
    pub sizes: Vec<u64>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl EvalStats {
    /// Final database size, when at least one iteration ran.
    pub fn final_size(&self) -> Option<u64> {
        self.sizes.last().copied()
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} iterations, {} rule applications, {} work units, \
             {} candidates tried, {} matches, final size {}, {:?}",
            self.iterations,
            self.rule_applications,
            self.work_units,
            self.matching.candidates_tried,
            self.matching.matches,
            self.final_size().unwrap_or(0),
            self.elapsed,
        )?;
        if self.gc_sweeps > 0 {
            write!(
                f,
                ", {} gc sweeps freeing {} nodes",
                self.gc_sweeps, self.gc_freed_nodes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_size_tracks_last_iteration() {
        let mut s = EvalStats::default();
        assert_eq!(s.final_size(), None);
        s.sizes = vec![10, 20, 25];
        assert_eq!(s.final_size(), Some(25));
    }

    #[test]
    fn display_is_informative() {
        let s = EvalStats {
            iterations: 3,
            rule_applications: 6,
            sizes: vec![5, 9],
            ..EvalStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("3 iterations"));
        assert!(text.contains("final size 9"));
    }
}
