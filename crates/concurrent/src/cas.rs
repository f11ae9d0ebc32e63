//! A generic Compare&Swap object.
//!
//! `compare_and_swap(old, new)` atomically replaces the register content
//! with `new` iff it currently equals `old`, and in every case returns the
//! value the register held at the beginning of the operation — exactly the
//! pseudo-code of Figure 9.  CAS has consensus number ∞ (Herlihy), which is
//! the anchor of Theorem 4.2.

use std::sync::{Arc, Mutex, PoisonError};

/// A linearizable Compare&Swap register holding a value of type `T`.
pub struct CasRegister<T> {
    inner: Arc<Mutex<T>>,
}

impl<T> Clone for CasRegister<T> {
    fn clone(&self) -> Self {
        CasRegister {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + PartialEq> CasRegister<T> {
    /// Creates a register holding `initial`.
    pub fn new(initial: T) -> Self {
        CasRegister {
            inner: Arc::new(Mutex::new(initial)),
        }
    }

    /// Atomically: if the register equals `old`, store `new`.  Returns the
    /// value held at the start of the operation.
    pub fn compare_and_swap(&self, old: &T, new: T) -> T {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let previous = guard.clone();
        if previous == *old {
            *guard = new;
        }
        previous
    }

    /// Atomically reads the current value.
    pub fn load(&self) -> T {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;
    use std::thread;

    #[test]
    fn cas_succeeds_when_expected_value_matches() {
        let r = CasRegister::new(0u64);
        assert_eq!(r.compare_and_swap(&0, 5), 0);
        assert_eq!(r.load(), 5);
    }

    #[test]
    fn cas_fails_and_returns_current_value_on_mismatch() {
        let r = CasRegister::new(3u64);
        assert_eq!(r.compare_and_swap(&0, 5), 3);
        assert_eq!(r.load(), 3);
    }

    #[test]
    fn exactly_one_concurrent_cas_from_the_initial_value_wins() {
        let r: CasRegister<Option<u64>> = CasRegister::new(None);
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let r = r.clone();
                thread::spawn(move || r.compare_and_swap(&None, Some(i)).is_none())
            })
            .collect();
        let winners = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&w| w)
            .count();
        assert_eq!(winners, 1);
        assert!(r.load().is_some());
    }

    /// A value whose next clone panics once `armed` is set.
    #[derive(Debug)]
    struct Touchy {
        value: u64,
        armed: Rc<Cell<bool>>,
    }

    impl Clone for Touchy {
        fn clone(&self) -> Self {
            if self.armed.replace(false) {
                panic!("clone panicked under the register's lock");
            }
            Touchy {
                value: self.value,
                armed: Rc::clone(&self.armed),
            }
        }
    }

    impl PartialEq for Touchy {
        fn eq(&self, other: &Self) -> bool {
            self.value == other.value
        }
    }

    #[test]
    fn a_panic_under_the_lock_does_not_stop_the_next_caller() {
        let armed = Rc::new(Cell::new(false));
        let touchy = |value| Touchy {
            value,
            armed: Rc::clone(&armed),
        };
        let r = CasRegister::new(touchy(1));
        armed.set(true);
        let swap = catch_unwind(AssertUnwindSafe(|| {
            r.compare_and_swap(&touchy(1), touchy(2))
        }));
        assert!(swap.is_err(), "the clone under the lock panicked");
        // The panic struck before the store: the register still holds 1,
        // and both operations are served.
        assert_eq!(r.load().value, 1);
        assert_eq!(r.compare_and_swap(&touchy(1), touchy(3)).value, 1);
        assert_eq!(r.load().value, 3);
    }
}
