//! Channel models.
//!
//! The paper distinguishes (Section 4.2):
//!
//! * **synchronous** channels — a message sent by a correct process at time
//!   `t` is delivered by `t + δ`;
//! * **weakly / partially synchronous** channels — there exists an unknown
//!   time `τ` (the global stabilisation time, GST) after which the channels
//!   behave synchronously;
//! * **asynchronous** channels — no bound on delivery delay.
//!
//! On top of these we provide the failure-prone variants needed by the
//! necessity experiments: **lossy** channels (each message independently
//! dropped with some probability — Theorem 4.7 shows even a single lost
//! message among correct processes breaks Eventual Prefix) and **faulty**
//! channels (duplication, reordering, corruption).  Partitions are not a
//! channel model: the simulator's `FailurePlan` schedules them as windows.

use btadt_types::rng::ChaCha8;

use crate::time::SimTime;

/// The outcome the channel model assigns to one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver the message at the given time.
    At(SimTime),
    /// Drop the message.
    Drop,
}

/// One delivery attempt produced by [`ChannelModel::fates`].  A faulty
/// channel can map a single send onto *several* attempts (duplication) or
/// onto a corrupted one (the payload fails its integrity check at the
/// receiver and is discarded there).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Deliver the message intact at the given time.
    Deliver(SimTime),
    /// Deliver a corrupted copy at the given time: the receiver learns only
    /// the sender (checksum rejection discards the payload).
    DeliverCorrupted(SimTime),
    /// Drop the message.
    Drop,
}

/// A channel model: decides, per message, when (and whether) it is
/// delivered.
#[derive(Clone, Debug)]
pub enum ChannelModel {
    /// Synchronous: delivery within `[min_delay, delta]` ticks.
    Synchronous {
        /// Minimum delivery delay (≥ 1 tick).
        min_delay: u64,
        /// Maximum delivery delay `δ`.
        delta: u64,
    },
    /// Partially synchronous: before `gst` delays are arbitrary up to
    /// `max_delay_before_gst`; from `gst` on the channel is synchronous with
    /// bound `delta`.
    PartiallySynchronous {
        /// Global stabilisation time.
        gst: SimTime,
        /// Worst-case delay before GST.
        max_delay_before_gst: u64,
        /// Synchronous bound after GST.
        delta: u64,
    },
    /// Asynchronous: delays drawn uniformly from `[1, max_delay]` with no
    /// bound promised to the processes (the simulator still needs a finite
    /// horizon to terminate).
    Asynchronous {
        /// Largest delay the simulator will generate.
        max_delay: u64,
    },
    /// Like the inner model, but each message is independently dropped with
    /// probability `drop_probability`.
    Lossy {
        /// The underlying timing model.
        inner: Box<ChannelModel>,
        /// Per-message drop probability in `[0, 1]`.
        drop_probability: f64,
    },
    /// Like the inner model, but messages can additionally be duplicated,
    /// reordered (an extra delay past the inner model's bound) or corrupted
    /// in flight.  Each fault is drawn independently per message; a fault
    /// with probability `0` consumes no randomness, so disabling a knob
    /// leaves the delay stream of the remaining faults untouched.
    Faulty {
        /// The underlying timing model.
        inner: Box<ChannelModel>,
        /// Probability that a second, independently delayed copy is also
        /// delivered.
        duplicate_probability: f64,
        /// Probability that the delivery is pushed `1..=reorder_extra`
        /// ticks past the inner model's delay (overtaking later sends).
        reorder_probability: f64,
        /// Largest extra delay a reordered message can pick up.
        reorder_extra: u64,
        /// Probability that the payload is corrupted in flight (delivered,
        /// but the receiver's integrity check rejects it).
        corrupt_probability: f64,
    },
}

impl ChannelModel {
    /// A synchronous channel with delays in `[1, delta]`.
    pub fn synchronous(delta: u64) -> Self {
        ChannelModel::Synchronous {
            min_delay: 1,
            delta: delta.max(1),
        }
    }

    /// A partially synchronous channel.
    pub fn partially_synchronous(gst: u64, max_delay_before_gst: u64, delta: u64) -> Self {
        ChannelModel::PartiallySynchronous {
            gst: SimTime(gst),
            max_delay_before_gst: max_delay_before_gst.max(1),
            delta: delta.max(1),
        }
    }

    /// An asynchronous channel with simulator-horizon delays up to
    /// `max_delay`.
    pub fn asynchronous(max_delay: u64) -> Self {
        ChannelModel::Asynchronous {
            max_delay: max_delay.max(1),
        }
    }

    /// Wraps a model with independent message loss.
    pub fn lossy(inner: ChannelModel, drop_probability: f64) -> Self {
        ChannelModel::Lossy {
            inner: Box::new(inner),
            drop_probability: drop_probability.clamp(0.0, 1.0),
        }
    }

    /// Wraps a model with duplication / reordering / corruption faults.
    pub fn faulty(
        inner: ChannelModel,
        duplicate_probability: f64,
        reorder_probability: f64,
        reorder_extra: u64,
        corrupt_probability: f64,
    ) -> Self {
        ChannelModel::Faulty {
            inner: Box::new(inner),
            duplicate_probability: duplicate_probability.clamp(0.0, 1.0),
            reorder_probability: reorder_probability.clamp(0.0, 1.0),
            reorder_extra: reorder_extra.max(1),
            corrupt_probability: corrupt_probability.clamp(0.0, 1.0),
        }
    }

    /// Decides the fate of a message sent at `now`.  No model depends on
    /// the endpoints: a partition is a [`FailurePlan`](crate::FailurePlan) window.
    pub fn delivery(&self, now: SimTime, rng: &mut ChaCha8) -> Delivery {
        match self {
            ChannelModel::Synchronous { min_delay, delta } => {
                let d = rng.gen_range(*min_delay..=(*delta).max(*min_delay));
                Delivery::At(now + d)
            }
            ChannelModel::PartiallySynchronous {
                gst,
                max_delay_before_gst,
                delta,
            } => {
                if now < *gst {
                    // Before GST the delay may even push delivery past GST.
                    let d = rng.gen_range(1..=*max_delay_before_gst);
                    Delivery::At(now + d)
                } else {
                    let d = rng.gen_range(1..=*delta);
                    Delivery::At(now + d)
                }
            }
            ChannelModel::Asynchronous { max_delay } => {
                let d = rng.gen_range(1..=*max_delay);
                Delivery::At(now + d)
            }
            ChannelModel::Lossy {
                inner,
                drop_probability,
            } => {
                if rng.gen_bool(*drop_probability) {
                    Delivery::Drop
                } else {
                    inner.delivery(now, rng)
                }
            }
            // A faulty channel collapses to its first fate when the caller
            // cannot represent duplicates; the simulator uses `fates`.
            ChannelModel::Faulty { .. } => match self.fates(now, rng).first() {
                Some(Fate::Deliver(at)) | Some(Fate::DeliverCorrupted(at)) => Delivery::At(*at),
                _ => Delivery::Drop,
            },
        }
    }

    /// Decides every delivery attempt for a message sent at `now` — the
    /// general form of [`ChannelModel::delivery`] that the simulator uses.
    /// Non-faulty models produce exactly one fate; a [`ChannelModel::Faulty`]
    /// wrapper may corrupt, delay or duplicate it.
    pub fn fates(&self, now: SimTime, rng: &mut ChaCha8) -> Vec<Fate> {
        match self {
            ChannelModel::Faulty {
                inner,
                duplicate_probability,
                reorder_probability,
                reorder_extra,
                corrupt_probability,
            } => {
                let mut fates = Vec::with_capacity(1);
                match inner.delivery(now, rng) {
                    Delivery::Drop => fates.push(Fate::Drop),
                    Delivery::At(mut at) => {
                        if *reorder_probability > 0.0 && rng.gen_bool(*reorder_probability) {
                            at = at + rng.gen_range(1..=*reorder_extra);
                        }
                        if *corrupt_probability > 0.0 && rng.gen_bool(*corrupt_probability) {
                            fates.push(Fate::DeliverCorrupted(at));
                        } else {
                            fates.push(Fate::Deliver(at));
                        }
                    }
                }
                if *duplicate_probability > 0.0 && rng.gen_bool(*duplicate_probability) {
                    // The duplicate takes an independent trip through the
                    // inner model (it is never corrupted or re-duplicated).
                    if let Delivery::At(at) = inner.delivery(now, rng) {
                        fates.push(Fate::Deliver(at));
                    }
                }
                fates
            }
            _ => match self.delivery(now, rng) {
                Delivery::At(at) => vec![Fate::Deliver(at)],
                Delivery::Drop => vec![Fate::Drop],
            },
        }
    }

    /// An upper bound on the delivery delay promised *to the analysis* (not
    /// to the processes), if any.  Used by protocol models that need to know
    /// how long to wait for quiescence.
    pub fn delay_bound(&self) -> Option<u64> {
        match self {
            ChannelModel::Synchronous { delta, .. } => Some(*delta),
            ChannelModel::PartiallySynchronous {
                max_delay_before_gst,
                delta,
                ..
            } => Some((*max_delay_before_gst).max(*delta)),
            ChannelModel::Asynchronous { max_delay } => Some(*max_delay),
            ChannelModel::Lossy { inner, .. } => inner.delay_bound(),
            ChannelModel::Faulty {
                inner,
                reorder_extra,
                ..
            } => inner.delay_bound().map(|d| d + reorder_extra),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            ChannelModel::Synchronous { delta, .. } => format!("sync(δ={delta})"),
            ChannelModel::PartiallySynchronous { gst, delta, .. } => {
                format!("partial-sync(GST={}, δ={delta})", gst.0)
            }
            ChannelModel::Asynchronous { max_delay } => format!("async(≤{max_delay})"),
            ChannelModel::Lossy {
                inner,
                drop_probability,
            } => format!("lossy(p={drop_probability}, {})", inner.label()),
            ChannelModel::Faulty {
                inner,
                duplicate_probability,
                reorder_probability,
                corrupt_probability,
                ..
            } => format!(
                "faulty(dup={duplicate_probability}, reorder={reorder_probability}, \
                 corrupt={corrupt_probability}, {})",
                inner.label()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> ChaCha8 {
        ChaCha8::new(42)
    }

    #[test]
    fn synchronous_delivery_is_within_delta() {
        let ch = ChannelModel::synchronous(5);
        let mut rng = rng();
        for _ in 0..200 {
            match ch.delivery(SimTime(10), &mut rng) {
                Delivery::At(t) => assert!(t > SimTime(10) && t <= SimTime(15)),
                Delivery::Drop => panic!("synchronous channels never drop"),
            }
        }
        assert_eq!(ch.delay_bound(), Some(5));
    }

    #[test]
    fn partially_synchronous_respects_delta_after_gst() {
        let ch = ChannelModel::partially_synchronous(100, 50, 4);
        let mut rng = rng();
        let mut before_max = 0;
        for _ in 0..200 {
            if let Delivery::At(t) = ch.delivery(SimTime(0), &mut rng) {
                before_max = before_max.max(t.0);
            }
        }
        assert!(before_max > 4, "pre-GST delays can exceed δ");
        for _ in 0..200 {
            if let Delivery::At(t) = ch.delivery(SimTime(200), &mut rng) {
                assert!(t <= SimTime(204));
            }
        }
    }

    #[test]
    fn lossy_channel_drops_roughly_at_the_configured_rate() {
        let ch = ChannelModel::lossy(ChannelModel::synchronous(3), 0.3);
        let mut rng = rng();
        let n = 5_000;
        let drops = (0..n)
            .filter(|_| ch.delivery(SimTime(0), &mut rng) == Delivery::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn loss_probability_zero_never_drops() {
        let ch = ChannelModel::lossy(ChannelModel::synchronous(3), 0.0);
        let mut rng = rng();
        assert!((0..500).all(|_| ch.delivery(SimTime(0), &mut rng) != Delivery::Drop));
    }

    #[test]
    fn asynchronous_delays_span_the_full_range() {
        let ch = ChannelModel::asynchronous(50);
        let mut rng = rng();
        let mut max_seen = 0;
        for _ in 0..2_000 {
            if let Delivery::At(t) = ch.delivery(SimTime(0), &mut rng) {
                max_seen = max_seen.max(t.0);
                assert!(t.0 >= 1 && t.0 <= 50);
            }
        }
        assert!(max_seen > 40, "expected to observe large delays");
    }

    #[test]
    fn faulty_channel_duplicates_and_corrupts_at_the_configured_rates() {
        let ch = ChannelModel::faulty(ChannelModel::synchronous(3), 0.3, 0.0, 1, 0.2);
        let mut rng = rng();
        let n = 5_000;
        let mut copies = 0usize;
        let mut corrupted = 0usize;
        for _ in 0..n {
            let fates = ch.fates(SimTime(0), &mut rng);
            copies += fates.len();
            corrupted += fates
                .iter()
                .filter(|f| matches!(f, Fate::DeliverCorrupted(_)))
                .count();
        }
        let dup_rate = copies as f64 / n as f64 - 1.0;
        let corrupt_rate = corrupted as f64 / n as f64;
        assert!((dup_rate - 0.3).abs() < 0.03, "duplicate rate {dup_rate}");
        assert!(
            (corrupt_rate - 0.2).abs() < 0.03,
            "corrupt rate {corrupt_rate}"
        );
    }

    #[test]
    fn faulty_reordering_extends_the_delay_past_the_inner_bound() {
        let ch = ChannelModel::faulty(ChannelModel::synchronous(2), 0.0, 1.0, 10, 0.0);
        let mut rng = rng();
        let mut max_seen = 0;
        for _ in 0..500 {
            for fate in ch.fates(SimTime(0), &mut rng) {
                if let Fate::Deliver(t) = fate {
                    assert!(t.0 <= 12, "delay bound {t:?}");
                    max_seen = max_seen.max(t.0);
                }
            }
        }
        assert!(max_seen > 2, "reordering must exceed the inner δ");
        assert_eq!(ch.delay_bound(), Some(12));
    }

    #[test]
    fn disabled_faults_leave_the_inner_model_untouched() {
        let faulty = ChannelModel::faulty(ChannelModel::synchronous(4), 0.0, 0.0, 1, 0.0);
        let plain = ChannelModel::synchronous(4);
        let mut a = rng();
        let mut b = rng();
        for _ in 0..200 {
            let fates = faulty.fates(SimTime(5), &mut a);
            let base = plain.delivery(SimTime(5), &mut b);
            assert_eq!(fates.len(), 1);
            match (fates[0], base) {
                (Fate::Deliver(x), Delivery::At(y)) => assert_eq!(x, y),
                other => panic!("divergent fates: {other:?}"),
            }
        }
    }

    #[test]
    fn non_faulty_models_produce_exactly_one_fate() {
        let ch = ChannelModel::lossy(ChannelModel::synchronous(3), 0.5);
        let mut rng = rng();
        for _ in 0..200 {
            let fates = ch.fates(SimTime(0), &mut rng);
            assert_eq!(fates.len(), 1);
            assert!(matches!(fates[0], Fate::Deliver(_) | Fate::Drop));
        }
    }

    #[test]
    fn labels_are_informative() {
        assert!(ChannelModel::synchronous(3).label().contains("sync"));
        assert!(ChannelModel::asynchronous(9).label().contains("async"));
        assert!(ChannelModel::lossy(ChannelModel::synchronous(3), 0.1)
            .label()
            .contains("lossy"));
        assert!(ChannelModel::partially_synchronous(10, 20, 3)
            .label()
            .contains("partial-sync"));
        assert!(
            ChannelModel::faulty(ChannelModel::synchronous(3), 0.1, 0.1, 5, 0.1)
                .label()
                .contains("faulty")
        );
    }
}
