//! Single-writer multi-reader atomic registers.
//!
//! The concurrent model of Section 4.1 assumes processes communicate through
//! atomic registers.  [`AtomicRegister`] is a linearizable register holding
//! an arbitrary `Clone` value: writes and reads are individually atomic
//! (guarded by a short critical section), and a monotonically increasing
//! sequence number lets the snapshot object detect intervening writes.

use std::sync::{Arc, PoisonError, RwLock};

/// A linearizable register holding a value of type `T`.
///
/// Cloning the handle shares the underlying register.
pub struct AtomicRegister<T> {
    inner: Arc<RwLock<Versioned<T>>>,
}

#[derive(Clone, Debug)]
struct Versioned<T> {
    value: T,
    version: u64,
}

impl<T> Clone for AtomicRegister<T> {
    fn clone(&self) -> Self {
        AtomicRegister {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone> AtomicRegister<T> {
    /// Creates a register holding `initial`.
    pub fn new(initial: T) -> Self {
        AtomicRegister {
            inner: Arc::new(RwLock::new(Versioned {
                value: initial,
                version: 0,
            })),
        }
    }

    /// Atomically writes a new value.
    pub fn write(&self, value: T) {
        let mut guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        guard.value = value;
        guard.version += 1;
    }

    /// Atomically reads the current value.
    pub fn read(&self) -> T {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .value
            .clone()
    }

    /// Atomically reads the current value together with its version
    /// (number of writes applied so far).
    pub fn read_versioned(&self) -> (T, u64) {
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        (guard.value.clone(), guard.version)
    }

    /// Number of writes applied so far.
    pub fn version(&self) -> u64 {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn read_returns_last_written_value() {
        let r = AtomicRegister::new(0u64);
        assert_eq!(r.read(), 0);
        assert_eq!(r.version(), 0);
        r.write(5);
        assert_eq!(r.read(), 5);
        r.write(9);
        assert_eq!(r.read_versioned(), (9, 2));
    }

    #[test]
    fn handles_share_state() {
        let r = AtomicRegister::new(String::from("a"));
        let r2 = r.clone();
        r.write(String::from("b"));
        assert_eq!(r2.read(), "b");
    }

    #[test]
    fn single_writer_multiple_readers_observe_monotone_versions() {
        let r = AtomicRegister::new(0u64);
        let writer = {
            let r = r.clone();
            thread::spawn(move || {
                for i in 1..=1_000 {
                    r.write(i);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..1_000 {
                        let v = r.read();
                        assert!(v >= last, "values written by one writer are monotone");
                        last = v;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(r.read(), 1_000);
        assert_eq!(r.version(), 1_000);
    }
}
