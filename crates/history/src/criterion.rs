//! Consistency criteria as executable predicates (Definition 2.5).
//!
//! A consistency criterion `C : T → P(H)` maps an abstract data type to the
//! set of concurrent histories it admits.  For a *fixed* ADT this is a
//! predicate over histories, which is what we implement: a
//! [`ConsistencyCriterion`] inspects a [`ConcurrentHistory`] and returns a
//! [`Verdict`] — either the history is admitted, or it is rejected together
//! with a list of [`Violation`]s naming the offending operations.
//!
//! The BT-specific properties (Block Validity, Local Monotonic Read, Strong
//! Prefix, Ever-Growing Tree, Eventual Prefix) live in `btadt-core` and
//! implement this trait, as do the SC and EC criteria built there as
//! conjunctions of them, mirroring how the paper defines the criteria.

use std::fmt;

use crate::event::OpId;
use crate::history::ConcurrentHistory;

/// One violation of a property, naming the operations that witness it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated property.
    pub property: &'static str,
    /// Operations witnessing the violation (order is property-specific).
    pub witnesses: Vec<OpId>,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} (witnesses: {:?})",
            self.property, self.detail, self.witnesses
        )
    }
}

/// The outcome of checking a criterion against a history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Violations found; the history is admitted iff this is empty.
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// A verdict admitting the history.
    pub fn admitted() -> Self {
        Verdict {
            violations: Vec::new(),
        }
    }

    /// A verdict with a single violation.
    pub fn rejected(v: Violation) -> Self {
        Verdict {
            violations: vec![v],
        }
    }

    /// Returns `true` iff the history is admitted by the criterion.
    pub fn is_admitted(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges another verdict into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.violations.extend(other.violations);
    }

    /// Convenience constructor from a list of violations.
    pub fn from_violations(violations: Vec<Violation>) -> Self {
        Verdict { violations }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_admitted() {
            write!(f, "admitted")
        } else {
            writeln!(f, "rejected ({} violations):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// A consistency criterion (or a single property contributing to one) over
/// histories with operations `Op` and responses `Resp`.
pub trait ConsistencyCriterion<Op, Resp>: Send + Sync {
    /// Checks the history and reports the violations found.
    fn check(&self, history: &ConcurrentHistory<Op, Resp>) -> Verdict;

    /// Name of the criterion (used by reports and benchmark output).
    fn name(&self) -> &'static str;

    /// Convenience: `true` iff the history is admitted.
    fn admits(&self, history: &ConcurrentHistory<Op, Resp>) -> bool {
        self.check(history).is_admitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProcessId;
    use crate::history::HistoryRecorder;

    /// Property: every response is non-zero.
    struct NonZero;
    impl ConsistencyCriterion<&'static str, u32> for NonZero {
        fn check(&self, history: &ConcurrentHistory<&'static str, u32>) -> Verdict {
            let violations = history
                .complete()
                .filter(|r| r.response == Some(0))
                .map(|r| Violation {
                    property: "non-zero",
                    witnesses: vec![r.id],
                    detail: format!("operation {:?} returned zero", r.op),
                })
                .collect();
            Verdict::from_violations(violations)
        }
        fn name(&self) -> &'static str {
            "non-zero"
        }
    }

    fn sample_history(values: &[(u32, u32)]) -> ConcurrentHistory<&'static str, u32> {
        let mut rec = HistoryRecorder::new();
        for (p, v) in values {
            rec.instantaneous(ProcessId(*p), "op", *v);
        }
        rec.into_history()
    }

    #[test]
    fn verdict_admitted_and_rejected() {
        let ok = Verdict::admitted();
        assert!(ok.is_admitted());
        assert_eq!(format!("{ok}"), "admitted");

        let bad = Verdict::rejected(Violation {
            property: "p",
            witnesses: vec![OpId(1)],
            detail: "boom".into(),
        });
        assert!(!bad.is_admitted());
        assert!(format!("{bad}").contains("rejected"));
        assert!(format!("{bad}").contains("boom"));
    }

    #[test]
    fn single_property_detects_violation() {
        let good = sample_history(&[(0, 1), (0, 2)]);
        let bad = sample_history(&[(0, 1), (0, 0)]);
        assert!(NonZero.admits(&good));
        let verdict = NonZero.check(&bad);
        assert_eq!(verdict.violations.len(), 1);
        assert_eq!(verdict.violations[0].property, "non-zero");
    }
}
