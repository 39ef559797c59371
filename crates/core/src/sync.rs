//! Poison recovery shared by every lock in the serving stack.

use std::sync::{LockResult, PoisonError};

/// Takes the guard out of any lock result — `Mutex::lock`,
/// `RwLock::read`/`write`, `Condvar::wait`/`wait_timeout` — recovering it
/// from a poisoned lock. Every critical section in this crate leaves its
/// data structurally valid (a panic mid-section can at worst lose one
/// in-flight job's bookkeeping), so recovering is always safe and keeps
/// serving, draining and calibration working after a contained panic.
pub(crate) fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}
