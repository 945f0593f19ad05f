//! Shared experiment context: one oracle, one trained model suite.

use std::sync::{Arc, Mutex};

use udse_core::studies::depth::DepthStudy;
use udse_core::studies::pareto::{self, Characterization};
use udse_core::studies::{StudyConfig, TrainedSuite};
use udse_core::{CachedOracle, Engine, SimOracle};

/// Lazily trains the nine benchmark model pairs once and shares them
/// across all experiment drivers, mirroring the paper's "formulated once,
/// used in multiple studies" workflow (§7). `Send + Sync` (lazy slots sit
/// behind mutexes), so one context can feed parallel drivers.
///
/// Ground truth is a [`SimOracle`] behind a memoizing [`CachedOracle`]:
/// every study batch dedups first, then fans its misses out across the
/// [`udse_obs::pool`] threads (`repro --jobs N`).
#[derive(Debug)]
pub struct Context {
    oracle: CachedOracle<SimOracle>,
    config: StudyConfig,
    suite: Mutex<Option<TrainedSuite>>,
    engine: Mutex<Option<Arc<Engine>>>,
    depth: Mutex<Option<DepthStudy>>,
    characterizations: Mutex<Option<Arc<Vec<Characterization>>>>,
}

/// Trace length used in quick mode (tests, smoke runs).
const QUICK_TRACE_LEN: usize = 20_000;

impl Context {
    /// Creates a context. `quick` selects reduced sample counts and
    /// short traces for smoke runs; otherwise the paper-scale
    /// configuration is used (1,000 training samples, exhaustive
    /// evaluation).
    pub fn new(quick: bool) -> Self {
        let (oracle, config) = if quick {
            (SimOracle::with_trace_len(QUICK_TRACE_LEN), StudyConfig::quick())
        } else {
            (SimOracle::new(), StudyConfig::paper())
        };
        Context {
            oracle: CachedOracle::new(oracle),
            config,
            suite: Mutex::new(None),
            engine: Mutex::new(None),
            depth: Mutex::new(None),
            characterizations: Mutex::new(None),
        }
    }

    /// The ground-truth oracle (memoized: studies that revisit the same
    /// designs pay for each simulation once).
    pub fn oracle(&self) -> &CachedOracle<SimOracle> {
        &self.oracle
    }

    /// The underlying simulation oracle (trace access, warmup length).
    pub fn sim_oracle(&self) -> &SimOracle {
        self.oracle.inner()
    }

    /// The study configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Returns the trained suite, training it on first use.
    ///
    /// # Panics
    ///
    /// Panics if model fitting fails (cannot happen for the paper spec on
    /// well-formed samples; indicates a configuration error).
    pub fn suite(&self) -> TrainedSuite {
        let mut slot = self.suite.lock().expect("suite slot poisoned");
        if slot.is_none() {
            let t0 = std::time::Instant::now();
            let suite = TrainedSuite::train(&self.oracle, &self.config)
                .expect("paper-standard models fit on UAR samples");
            udse_obs::info!(
                "context",
                "trained 9 benchmark model pairs on {} samples in {:.1}s",
                self.config.train_samples,
                t0.elapsed().as_secs_f64()
            );
            *slot = Some(suite);
        }
        slot.as_ref().expect("just trained").clone()
    }

    /// Returns the query engine over the trained suite, building it on
    /// first use. Every study driver routes its predictions through this
    /// one engine, so the full-space sweep is memoized once and repeated
    /// queries are LRU cache hits.
    pub fn engine(&self) -> Arc<Engine> {
        let suite = self.suite();
        let mut slot = self.engine.lock().expect("engine slot poisoned");
        if slot.is_none() {
            *slot = Some(Arc::new(Engine::new(suite, &self.config)));
        }
        Arc::clone(slot.as_ref().expect("just built"))
    }

    /// Returns the exploration-space characterizations of all nine
    /// benchmarks, slicing them out of the engine's memoized fused grid
    /// walk on first use (Figures 2–4 all consume them; see
    /// [`pareto::characterize_all`]).
    pub fn characterizations(&self) -> Arc<Vec<Characterization>> {
        let engine = self.engine();
        let mut slot = self.characterizations.lock().expect("characterization slot poisoned");
        if slot.is_none() {
            *slot = Some(Arc::new(pareto::characterize_all(&engine)));
        }
        Arc::clone(slot.as_ref().expect("just computed"))
    }

    /// Returns the §5 depth study, computing it on first use (four
    /// figures consume it).
    pub fn depth_study(&self) -> DepthStudy {
        let engine = self.engine();
        let mut slot = self.depth.lock().expect("depth slot poisoned");
        if slot.is_none() {
            *slot = Some(DepthStudy::run(&engine));
        }
        slot.as_ref().expect("just computed").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_trains() {
        let ctx = Context::new(true);
        let suite = ctx.suite();
        assert_eq!(suite.all_models().len(), 9);
        // Second call reuses the cached suite (cheap).
        let again = ctx.suite();
        assert_eq!(again.training_samples().len(), suite.training_samples().len());
    }

    #[test]
    fn engine_is_shared_across_calls() {
        let ctx = Context::new(true);
        let e1 = ctx.engine();
        let e2 = ctx.engine();
        assert!(Arc::ptr_eq(&e1, &e2), "one engine serves every driver");
    }

    #[test]
    fn characterizations_cover_all_benchmarks_and_cache() {
        let ctx = Context::new(true);
        let chs = ctx.characterizations();
        assert_eq!(chs.len(), 9);
        let again = ctx.characterizations();
        assert!(Arc::ptr_eq(&chs, &again), "second call reuses the cached sweep");
    }

    #[test]
    fn context_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Context>();
    }
}
