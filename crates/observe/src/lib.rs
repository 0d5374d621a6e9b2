//! # stwa-observe
//!
//! Zero-dependency training observability for the ST-WA workspace:
//!
//! - **Hierarchical timing spans** ([`scope`], [`span!`], [`Recorder`]):
//!   RAII guards push onto a per-thread stack; on drop the elapsed time
//!   is aggregated under the `/`-joined path in a process-global,
//!   thread-safe [`Recorder`].
//! - **Named counters and gauges** ([`metrics`]): registry-backed
//!   `&'static` atomics for FLOPs, bytes, kernel invocations, and
//!   parallel-split decisions. The [`counter!`] / [`gauge!`] macros cache
//!   the registry lookup per call site.
//! - **Run manifests** ([`manifest`]): a JSON document capturing config,
//!   seed, the per-epoch loss/metric trajectory, the span tree, and all
//!   counters/gauges, with a parser for round-tripping (the golden-run
//!   regression test consumes it).
//!
//! ## Disabled-mode cost contract
//!
//! All instrumentation sits behind a global toggle. When disabled
//! (the default), entering a span, bumping a counter, or setting a gauge
//! costs **one relaxed atomic load** and nothing else: no clock read, no
//! allocation, no locking. `crates/bench/benches/observe_overhead.rs`
//! holds this to < 2% on the matmul kernel.

pub mod manifest;
pub mod metrics;
pub mod span;

mod json;

pub use json::{parse as parse_json, write_escaped as write_json_string, Json, JsonError};
pub use manifest::{EpochRecord, RunManifest, SpanNode};
pub use metrics::{counter, counters_snapshot, gauge, gauges_snapshot, Counter, Gauge};
pub use span::{scope, scope_fmt, Recorder, Scope, SpanStat};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is recording. One relaxed atomic load — this
/// is the entire disabled-mode cost of every span/counter/gauge call.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off process-wide. Spans entered while enabled
/// still unwind correctly if recording is disabled before they exit.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Reset all recorded state (spans, counters, gauges) — the start of a
/// measured run, or test isolation.
pub fn reset() {
    span::Recorder::global().reset();
    metrics::reset();
}

/// Enter a timing span for the current lexical scope.
///
/// `span!("name")` takes a static name; `span!("wa_layer{l}")` formats
/// one lazily — the format string is only materialized when recording is
/// enabled. The returned guard must be bound (`let _span = ...`), not
/// discarded with `_`, or it drops immediately.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::scope($name)
    };
    ($($fmt:tt)+) => {
        $crate::scope_fmt(format_args!($($fmt)+))
    };
}

/// A cached handle to the named counter: the registry is consulted once
/// per call site, then each use is a `OnceLock` load + atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<&'static $crate::Counter> = std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::counter($name))
    }};
}

/// A cached handle to the named gauge (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<&'static $crate::Gauge> = std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::gauge($name))
    }};
}

/// Serialize unit tests that touch the process-global toggle, recorder,
/// or metric registry: each runs with recording freshly reset, and
/// leaves it disabled. (Integration tests live in their own process and
/// don't need this.)
#[cfg(test)]
pub(crate) fn with_global_lock<R>(f: impl FnOnce() -> R) -> R {
    use std::sync::Mutex;
    static GATE: Mutex<()> = Mutex::new(());
    let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    set_enabled(false);
    reset();
    let out = f();
    set_enabled(false);
    reset();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_spans_counters_and_reset() {
        with_global_lock(|| {
            toggle_body();
        });
    }

    fn toggle_body() {
        // Disabled: nothing records.
        {
            let _s = span!("disabled_root");
            counter!("test.disabled").add(5);
            gauge!("test.disabled_gauge").set(1.25);
        }
        assert!(Recorder::global().snapshot().is_empty());
        assert_eq!(counter!("test.disabled").get(), 0);
        assert!(gauge!("test.disabled_gauge").get().is_none());

        // Enabled: spans nest into paths, counters add, gauges set.
        set_enabled(true);
        {
            let _outer = span!("outer");
            {
                let _inner = span!("inner_{}", 3);
                counter!("test.enabled").add(2);
            }
            counter!("test.enabled").add(1);
            gauge!("test.gauge").set(0.5);
        }
        let stats = Recorder::global().snapshot();
        let paths: Vec<&str> = stats.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"outer"), "{paths:?}");
        assert!(paths.contains(&"outer/inner_3"), "{paths:?}");
        assert_eq!(counter!("test.enabled").get(), 3);
        assert_eq!(gauge!("test.gauge").get(), Some(0.5));

        // Reset clears everything.
        set_enabled(false);
        reset();
        assert!(Recorder::global().snapshot().is_empty());
        assert_eq!(counter!("test.enabled").get(), 0);
        assert!(gauge!("test.gauge").get().is_none());
    }
}
