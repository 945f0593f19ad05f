//! Metrics registry: named atomic counters and gauges.
//!
//! The hot paths touch only atomics; registration (name lookup) takes a
//! mutex and should be done once per stage, not per event. A process-wide
//! [`global`] registry backs the pipeline; tests build private
//! [`Registry`] instances to stay isolated.
//!
//! # Examples
//!
//! ```
//! use udse_obs::metrics::Registry;
//!
//! let r = Registry::new();
//! r.counter("oracle.cache.hits").add(3);
//! r.gauge("sweep.designs_per_sec").set(125_000.0);
//! assert_eq!(r.counter("oracle.cache.hits").get(), 3);
//! assert_eq!(r.gauge("sweep.designs_per_sec").get(), 125_000.0);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-written-wins floating-point measurement.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Snapshot of one metric, for reporting and manifests.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
}

/// A named metric snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: MetricValue,
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
}

/// A collection of named metrics.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<HashMap<&'static str, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let entry =
            metrics.entry(name).or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match entry {
            Metric::Counter(c) => Arc::clone(c),
            Metric::Gauge(_) => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Returns the gauge `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let entry =
            metrics.entry(name).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match entry {
            Metric::Gauge(g) => Arc::clone(g),
            Metric::Counter(_) => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Snapshots every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut out: Vec<MetricSnapshot> = metrics
            .iter()
            .map(|(&name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                };
                MetricSnapshot { name: name.to_string(), value }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// The process-wide registry used by the pipeline crates.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand for `global().counter(name)`.
pub fn counter(name: &'static str) -> Arc<Counter> {
    global().counter(name)
}

/// Shorthand for `global().gauge(name)`.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    global().gauge(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(9);
        assert_eq!(r.counter("a.b").get(), 10);
    }

    #[test]
    fn concurrent_counter_increments_all_land() {
        let r = Arc::new(Registry::new());
        let c = r.counter("contended");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("incrementer thread panicked");
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = Registry::new();
        r.gauge("g").set(1.5);
        r.gauge("g").set(-2.5);
        assert_eq!(r.gauge("g").get(), -2.5);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("z.count").add(2);
        r.gauge("a.rate").set(3.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a.rate", "z.count"]);
        assert_eq!(snap[0].value, MetricValue::Gauge(3.0));
        assert_eq!(snap[1].value, MetricValue::Counter(2));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("same.name");
        r.counter("same.name");
    }
}
