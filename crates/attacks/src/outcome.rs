//! Attack outcome records.

use dlk_dnn::BitIndex;

/// One point of an attack trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackPoint {
    /// Attack iteration (0 = clean model).
    pub iteration: usize,
    /// Cumulative bit flips achieved so far.
    pub flips: usize,
    /// Model accuracy after this iteration.
    pub accuracy: f64,
    /// The bit flipped this iteration, if any.
    pub flipped: Option<BitIndex>,
}

/// A full attack trajectory: accuracy as a function of iterations.
///
/// # Example
///
/// ```
/// use dlk_attacks::{AttackCurve, AttackPoint};
/// let mut curve = AttackCurve::new("demo");
/// curve.push(AttackPoint { iteration: 0, flips: 0, accuracy: 0.9, flipped: None });
/// curve.push(AttackPoint { iteration: 1, flips: 1, accuracy: 0.4, flipped: None });
/// assert_eq!(curve.final_accuracy(), 0.4);
/// assert_eq!(curve.flips_to_reach(0.5), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttackCurve {
    /// Label for reports (e.g. "BFA", "random").
    pub label: String,
    /// Trajectory points in iteration order.
    pub points: Vec<AttackPoint>,
}

impl AttackCurve {
    /// Creates an empty curve.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, point: AttackPoint) {
        self.points.push(point);
    }

    /// Accuracy after the last iteration (1.0 for empty curves).
    pub fn final_accuracy(&self) -> f64 {
        self.points.last().map_or(1.0, |p| p.accuracy)
    }

    /// Accuracy before the attack started.
    pub fn clean_accuracy(&self) -> f64 {
        self.points.first().map_or(1.0, |p| p.accuracy)
    }

    /// Minimum flips needed to push accuracy to or below `threshold`,
    /// or `None` if the curve never got there.
    pub fn flips_to_reach(&self, threshold: f64) -> Option<usize> {
        self.points.iter().find(|p| p.accuracy <= threshold).map(|p| p.flips)
    }

    /// Total bit flips achieved.
    pub fn total_flips(&self) -> usize {
        self.points.last().map_or(0, |p| p.flips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(iteration: usize, flips: usize, accuracy: f64) -> AttackPoint {
        AttackPoint { iteration, flips, accuracy, flipped: None }
    }

    #[test]
    fn accessors_on_simple_curve() {
        let mut curve = AttackCurve::new("test");
        curve.push(point(0, 0, 0.9));
        curve.push(point(1, 1, 0.5));
        curve.push(point(2, 2, 0.1));
        assert_eq!(curve.clean_accuracy(), 0.9);
        assert_eq!(curve.final_accuracy(), 0.1);
        assert_eq!(curve.total_flips(), 2);
        assert_eq!(curve.flips_to_reach(0.5), Some(1));
        assert_eq!(curve.flips_to_reach(0.05), None);
    }

    #[test]
    fn empty_curve_defaults() {
        let curve = AttackCurve::new("empty");
        assert_eq!(curve.final_accuracy(), 1.0);
        assert_eq!(curve.total_flips(), 0);
    }
}
