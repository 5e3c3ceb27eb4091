//! Fault injection for chaos testing.
//!
//! A registry of named *fault points* compiled into the workspace only
//! under `cfg(any(test, feature = "fault-inject"))`; release builds
//! carry no trace of it (the stand-in [`point`] below is an empty
//! inline function). Hot paths call [`point`] at the places chaos
//! tests want to break — a scatter worker claiming a task, a server
//! connection handling a request —
//! and tests arm those points with [`inject`]:
//!
//! * [`FaultAction::Panic`] — panic with a recognizable payload,
//!   proving the panic containment story (a panicked worker must
//!   surface as a clean internal error, never a wedged pool or a
//!   silently incomplete result);
//! * [`FaultAction::Delay`] — sleep, stretching a normally-instant
//!   window (a batch task in flight, a request mid-parse) so tests can
//!   race cancellation, unmount or shutdown into it deterministically.
//!
//! Armed points apply process-wide; tests touching the same point must
//! serialize (the suites here arm distinctly named points). Points can
//! be armed for a bounded number of hits ([`inject_times`]) so a test
//! can break exactly one worker out of a pool.
//!
//! The registry is consulted through one relaxed atomic (`ARMED`)
//! when nothing is injected, so leaving the feature on for the whole
//! test profile does not slow unrelated tests down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed fault point does when hit.
#[derive(Clone, Copy, Debug)]
pub enum FaultAction {
    /// Panic with payload `"injected fault: <name>"`.
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Abort the whole process (`std::process::abort`) — no unwinding,
    /// no destructors, no atexit handlers. As close to `kill -9` as a
    /// process can do to itself; the crash-recovery harness uses this
    /// to kill writers at exact byte-offset seams.
    Abort,
}

struct Armed {
    action: FaultAction,
    /// Remaining hits; `None` = unlimited.
    remaining: Option<usize>,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Armed>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arm `name` with `action` for an unlimited number of hits.
pub fn inject(name: &str, action: FaultAction) {
    arm(name, action, None);
}

/// Arm `name` with `action` for at most `times` hits, after which the
/// point disarms itself.
pub fn inject_times(name: &str, action: FaultAction, times: usize) {
    arm(name, action, Some(times));
}

fn arm(name: &str, action: FaultAction, remaining: Option<usize>) {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.insert(name.to_string(), Armed { action, remaining });
    ARMED.store(true, Ordering::Release);
}

/// Disarm `name`.
pub fn clear(name: &str) {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.remove(name);
    ARMED.store(!map.is_empty(), Ordering::Release);
}

/// Disarm every point.
pub fn clear_all() {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.clear();
    ARMED.store(false, Ordering::Release);
}

/// A fault point. No-op unless a test armed `name`; the disarmed probe
/// is one relaxed atomic load.
pub fn point(name: &str) {
    if !ARMED.load(Ordering::Acquire) {
        return;
    }
    let action = {
        let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
        match map.get_mut(name) {
            None => return,
            Some(armed) => {
                let action = armed.action;
                if let Some(n) = &mut armed.remaining {
                    if *n == 0 {
                        return;
                    }
                    *n -= 1;
                    if *n == 0 {
                        map.remove(name);
                        ARMED.store(!map.is_empty(), Ordering::Release);
                    }
                }
                action
            }
        }
    };
    match action {
        FaultAction::Panic => panic!("injected fault: {name}"),
        FaultAction::Delay(d) => std::thread::sleep(d),
        FaultAction::Abort => std::process::abort(),
    }
}

/// Arm fault points from the `STANDOFF_FAULT` environment variable, so
/// external harnesses (the CI crash-recovery smoke) can kill a
/// `--features fault-inject` binary at a named seam without test code.
///
/// Syntax: comma-separated `point=action` entries, where action is
/// `abort`, `panic`, or `delay:<millis>`. An optional `:<times>` suffix
/// on the action bounds the hits (`point=delay:50:1`). Malformed
/// entries are ignored (a harness typo must not change the behavior of
/// the binary under test beyond not arming the point).
pub fn arm_from_env() {
    let Ok(spec) = std::env::var("STANDOFF_FAULT") else {
        return;
    };
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let Some((name, action_spec)) = entry.split_once('=') else {
            continue;
        };
        let mut parts = action_spec.split(':');
        let action = match parts.next() {
            Some("abort") => FaultAction::Abort,
            Some("panic") => FaultAction::Panic,
            Some("delay") => {
                let Some(ms) = parts.next().and_then(|v| v.parse::<u64>().ok()) else {
                    continue;
                };
                FaultAction::Delay(Duration::from_millis(ms))
            }
            _ => continue,
        };
        // A trailing numeric field bounds the hits; for `delay` it is
        // the field after the millis.
        match parts.next().and_then(|v| v.parse::<usize>().ok()) {
            Some(times) => inject_times(name, action, times),
            None => inject(name, action),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_are_noops() {
        point("fault.test.nothing_armed");
    }

    #[test]
    fn bounded_injection_disarms_itself() {
        inject_times("fault.test.bounded", FaultAction::Delay(Duration::ZERO), 2);
        point("fault.test.bounded");
        point("fault.test.bounded");
        // Third hit: disarmed, must not act (a panic would fail the test
        // if the action had been Panic; assert via the registry instead).
        let armed = registry()
            .lock()
            .unwrap()
            .contains_key("fault.test.bounded");
        assert!(!armed);
    }

    #[test]
    fn panic_action_panics_with_payload() {
        inject_times("fault.test.panics", FaultAction::Panic, 1);
        let err = std::panic::catch_unwind(|| point("fault.test.panics")).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected fault: fault.test.panics"));
        clear("fault.test.panics");
    }
}
