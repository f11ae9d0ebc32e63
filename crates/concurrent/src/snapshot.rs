//! A wait-free atomic snapshot object (Aspnes–Herlihy / Afek et al. style).
//!
//! The snapshot object exposes `update(i, v)` (process `i` writes `v` to its
//! component) and `scan()` (read all components as if instantaneously).  It
//! has consensus number 1, which is why the prodigal oracle — implementable
//! from it (Figure 12) — cannot solve consensus.
//!
//! Implementation: each component is a versioned register additionally
//! carrying the scan its writer embedded (helping).  `scan()` performs
//! repeated double collects; if two successive collects are identical it
//! returns them; otherwise, once some component is observed to have moved
//! twice, the scanner borrows (returns) the snapshot embedded by that
//! writer, which is guaranteed to have been taken within the scanner's
//! interval.  `update` embeds a scan before writing, making both operations
//! wait-free.

use std::sync::{Arc, PoisonError, RwLock};

#[derive(Clone, Debug)]
struct Component<T> {
    value: T,
    seq: u64,
    embedded: Vec<T>,
}

/// A wait-free atomic snapshot over `n` components of type `T`.
pub struct AtomicSnapshot<T> {
    components: Arc<Vec<RwLock<Component<T>>>>,
}

impl<T> Clone for AtomicSnapshot<T> {
    fn clone(&self) -> Self {
        AtomicSnapshot {
            components: Arc::clone(&self.components),
        }
    }
}

impl<T: Clone + Default> AtomicSnapshot<T> {
    /// Creates a snapshot object with `n` components initialised to
    /// `T::default()`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a snapshot needs at least one component");
        let components = (0..n)
            .map(|_| {
                RwLock::new(Component {
                    value: T::default(),
                    seq: 0,
                    embedded: vec![T::default(); n],
                })
            })
            .collect();
        AtomicSnapshot {
            components: Arc::new(components),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Returns `true` iff the snapshot has no components (never true).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    fn collect(&self) -> Vec<(T, u64)> {
        self.components
            .iter()
            .map(|c| {
                let guard = c.read().unwrap_or_else(PoisonError::into_inner);
                (guard.value.clone(), guard.seq)
            })
            .collect()
    }

    /// `scan()`: returns a vector of all component values that is guaranteed
    /// to have existed at some instant within the call.
    pub fn scan(&self) -> Vec<T> {
        let mut moved: Vec<u64> = vec![0; self.components.len()];
        let mut first = self.collect();
        loop {
            let second = self.collect();
            if first
                .iter()
                .zip(second.iter())
                .all(|((_, s1), (_, s2))| s1 == s2)
            {
                return second.into_iter().map(|(v, _)| v).collect();
            }
            // Some component moved: if it moved twice since we started, its
            // writer embedded a scan taken entirely within our interval.
            for (i, ((_, s1), (_, s2))) in first.iter().zip(second.iter()).enumerate() {
                if s1 != s2 {
                    moved[i] += 1;
                    if moved[i] >= 2 {
                        return self.components[i]
                            .read()
                            .unwrap_or_else(PoisonError::into_inner)
                            .embedded
                            .clone();
                    }
                }
            }
            first = second;
        }
    }

    /// `update(i, v)`: process `i` writes `v` to its component.  The write
    /// embeds a fresh scan to keep `scan()` wait-free.
    pub fn update(&self, i: usize, value: T) {
        let embedded = self.scan();
        let mut guard = self.components[i]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        guard.value = value;
        guard.seq += 1;
        guard.embedded = embedded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn scan_reflects_updates() {
        let snap: AtomicSnapshot<u64> = AtomicSnapshot::new(3);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.scan(), vec![0, 0, 0]);
        snap.update(1, 7);
        assert_eq!(snap.scan(), vec![0, 7, 0]);
        snap.update(0, 3);
        snap.update(2, 9);
        assert_eq!(snap.scan(), vec![3, 7, 9]);
    }

    #[test]
    fn updates_by_one_process_are_never_lost() {
        let snap: AtomicSnapshot<u64> = AtomicSnapshot::new(2);
        for v in 1..=100 {
            snap.update(0, v);
            let s = snap.scan();
            assert_eq!(s[0], v);
        }
    }

    #[test]
    fn concurrent_scans_observe_monotone_component_values() {
        // Each writer monotonically increases its own component; every scan
        // must therefore be component-wise monotone over time at each reader
        // (a violated order would reveal a non-linearizable snapshot).
        let n = 4;
        let snap: AtomicSnapshot<u64> = AtomicSnapshot::new(n);
        let writers: Vec<_> = (0..n)
            .map(|i| {
                let snap = snap.clone();
                thread::spawn(move || {
                    for v in 1..=300u64 {
                        snap.update(i, v);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let snap = snap.clone();
                thread::spawn(move || {
                    let mut last = vec![0u64; n];
                    for _ in 0..300 {
                        let s = snap.scan();
                        for i in 0..n {
                            assert!(
                                s[i] >= last[i],
                                "scan went backwards on component {i}: {} < {}",
                                s[i],
                                last[i]
                            );
                        }
                        last = s;
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(snap.scan(), vec![300; n]);
    }

    #[test]
    fn scans_are_comparable_across_readers() {
        // Linearizability of scans implies any two scans are component-wise
        // comparable (one dominates the other) when writers only increment.
        let n = 3;
        let snap: AtomicSnapshot<u64> = AtomicSnapshot::new(n);
        let writer = {
            let snap = snap.clone();
            thread::spawn(move || {
                for v in 1..=200u64 {
                    snap.update((v % n as u64) as usize, v);
                }
            })
        };
        let scans: Vec<Vec<Vec<u64>>> = (0..2)
            .map(|_| {
                let snap = snap.clone();
                thread::spawn(move || (0..200).map(|_| snap.scan()).collect::<Vec<_>>())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        writer.join().unwrap();
        let mut all: Vec<&Vec<u64>> = scans.iter().flatten().collect();
        all.sort_by_key(|s| s.iter().sum::<u64>());
        for w in all.windows(2) {
            let dominated = w[0].iter().zip(w[1].iter()).all(|(a, b)| a <= b);
            let dominates = w[0].iter().zip(w[1].iter()).all(|(a, b)| a >= b);
            assert!(
                dominated || dominates,
                "two scans are incomparable: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn zero_component_snapshot_is_rejected() {
        let _: AtomicSnapshot<u64> = AtomicSnapshot::new(0);
    }
}
