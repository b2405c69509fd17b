//! Seeded violations for `no-global-switch`: process-global atomics in
//! library code.
//!
//! A static AtomicBool mentioned in a comment is fine — only code is
//! flagged.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static TRACING_DEFAULT: AtomicBool = AtomicBool::new(false); // flagged

pub static mut RUNS: std::sync::atomic::AtomicU64 = AtomicU64::new(0); // flagged

/// A memo cache holds derived data, not a switch: not flagged.
pub fn store() -> &'static Mutex<BTreeMap<u32, u64>> {
    static STORE: OnceLock<Mutex<BTreeMap<u32, u64>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A local atomic is a value, not a process global: not flagged.
pub fn count(n: u64) -> u64 {
    let seen = AtomicU64::new(0);
    seen.fetch_add(n, Ordering::Relaxed);
    seen.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    static CALLS: AtomicU64 = AtomicU64::new(0);

    #[test]
    fn tests_may_share_a_counter() {
        CALLS.fetch_add(1, Ordering::Relaxed);
        assert!(!TRACING_DEFAULT.load(Ordering::Relaxed));
    }
}
