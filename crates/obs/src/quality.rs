//! Model-quality telemetry: first-class records of predictor accuracy.
//!
//! The paper's headline claim is a number — median validation error near
//! 7.2 % (bips) / 5.4 % (watts) — and this module turns that number into
//! telemetry instead of a line of stdout. A [`QualityRecord`] summarizes
//! one error distribution (absolute relative-error quantiles, signed
//! bias, RMSE, optionally the model's R²); a process-global
//! [`Collector`] accumulates records under dotted keys
//! (`validation.ammp.bips`, `validation.pooled.watts`, `crossval.knots4`)
//! so the run manifest can persist them and `udse-inspect diff` can gate
//! future runs against a committed baseline.
//!
//! # Examples
//!
//! ```
//! use udse_obs::quality::QualityRecord;
//!
//! let signed = [0.05, -0.02, 0.10, -0.01];
//! let rec = QualityRecord::from_signed_errors("validation.demo.bips", &signed)
//!     .with_r_squared(0.994);
//! assert!(rec.p50 <= rec.p90 && rec.p90 <= rec.max);
//! udse_obs::quality::record(rec);
//! assert!(udse_obs::quality::global()
//!     .snapshot()
//!     .iter()
//!     .any(|r| r.key == "validation.demo.bips"));
//! ```

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::json::{Fields, Json};

/// Accuracy summary of one model on one evaluation set.
///
/// All error fields are relative errors (`(obs - pred) / pred`):
/// quantiles and `max` over the absolute values, `bias` the signed mean
/// (negative = over-prediction, matching the paper's Table 2 sign
/// convention).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRecord {
    /// Dotted identifier: `<stage>.<benchmark-or-pool>.<response>`.
    pub key: String,
    /// Number of (observation, prediction) pairs summarized.
    pub n: u64,
    /// Median absolute relative error.
    pub p50: f64,
    /// 90th-percentile absolute relative error.
    pub p90: f64,
    /// Worst-case absolute relative error.
    pub max: f64,
    /// Mean signed relative error.
    pub bias: f64,
    /// Root-mean-square of the relative errors.
    pub rmse: f64,
    /// Training R² of the model, `NaN` when not applicable.
    pub r_squared: f64,
}

impl QualityRecord {
    /// Summarizes a sample of signed relative errors.
    ///
    /// # Panics
    ///
    /// Panics if `signed_errors` is empty.
    pub fn from_signed_errors(key: &str, signed_errors: &[f64]) -> Self {
        assert!(!signed_errors.is_empty(), "quality record of empty sample");
        let mut abs: Vec<f64> = signed_errors.iter().map(|e| e.abs()).collect();
        abs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        let n = abs.len();
        let bias = signed_errors.iter().sum::<f64>() / n as f64;
        let rmse = (signed_errors.iter().map(|e| e * e).sum::<f64>() / n as f64).sqrt();
        QualityRecord {
            key: key.to_string(),
            n: n as u64,
            p50: sorted_quantile(&abs, 0.5),
            p90: sorted_quantile(&abs, 0.9),
            max: abs[n - 1],
            bias,
            rmse,
            r_squared: f64::NAN,
        }
    }

    /// Attaches the model's training R².
    #[must_use]
    pub fn with_r_squared(mut self, r_squared: f64) -> Self {
        self.r_squared = r_squared;
        self
    }

    /// The record's manifest representation (without the key, which the
    /// enclosing object supplies).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::Int(self.n as i64)),
            ("p50", Json::Float(self.p50)),
            ("p90", Json::Float(self.p90)),
            ("max", Json::Float(self.max)),
            ("bias", Json::Float(self.bias)),
            ("rmse", Json::Float(self.rmse)),
            // "Not applicable" (NaN) is null; from_json maps it back.
            (
                "r_squared",
                if self.r_squared.is_finite() { Json::Float(self.r_squared) } else { Json::Null },
            ),
        ])
    }

    /// Rebuilds a record from its manifest representation. Every field
    /// is required; only `r_squared` may be `null` (read back as `NaN`).
    ///
    /// # Errors
    ///
    /// Names the record and the first missing, mistyped, unknown or
    /// duplicate field.
    pub fn from_json(key: &str, doc: &Json) -> Result<QualityRecord, String> {
        let ctx = format_args!("quality.{key}");
        let f = Fields::new(doc, &ctx, &["n", "p50", "p90", "max", "bias", "rmse", "r_squared"])?;
        Ok(QualityRecord {
            key: key.to_string(),
            n: f.u64("n")?,
            p50: f.f64("p50")?,
            p90: f.f64("p90")?,
            max: f.f64("max")?,
            bias: f.f64("bias")?,
            rmse: f.f64("rmse")?,
            r_squared: f.nullable("r_squared", Fields::f64)?.unwrap_or(f64::NAN),
        })
    }
}

/// Quantile of an ascending-sorted sample by linear interpolation.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Thread-safe store of quality records, keyed and sorted by `key`.
///
/// Re-recording a key replaces the previous record (a study re-run
/// within one process supersedes its earlier numbers).
#[derive(Debug, Default)]
pub struct Collector {
    records: Mutex<BTreeMap<String, QualityRecord>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Inserts (or replaces) a record under its key.
    pub fn record(&self, record: QualityRecord) {
        let mut records = self.records.lock().expect("quality collector poisoned");
        records.insert(record.key.clone(), record);
    }

    /// All records, sorted by key.
    pub fn snapshot(&self) -> Vec<QualityRecord> {
        let records = self.records.lock().expect("quality collector poisoned");
        records.values().cloned().collect()
    }

    /// The manifest `quality` section: an object keyed by record key.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.snapshot().into_iter().map(|r| (r.key.clone(), r.to_json())).collect())
    }
}

/// The process-wide collector feeding the run manifest.
pub fn global() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(Collector::new)
}

/// Shorthand for `global().record(record)`.
pub fn record(record: QualityRecord) {
    global().record(record);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_from_signed_errors_summarizes() {
        let signed = [-0.10, 0.02, 0.05, -0.01, 0.20];
        let r = QualityRecord::from_signed_errors("t.k", &signed);
        assert_eq!(r.n, 5);
        assert!((r.p50 - 0.05).abs() < 1e-12, "p50 {}", r.p50);
        assert!((r.max - 0.20).abs() < 1e-12);
        assert!(r.p50 <= r.p90 && r.p90 <= r.max);
        assert!((r.bias - 0.032).abs() < 1e-12, "bias {}", r.bias);
        assert!(r.rmse >= r.bias.abs());
        assert!(r.r_squared.is_nan());
    }

    #[test]
    fn json_round_trip_preserves_fields() {
        let r = QualityRecord::from_signed_errors("rt", &[0.1, -0.2, 0.3]).with_r_squared(0.987);
        let back = QualityRecord::from_json("rt", &r.to_json()).expect("parses");
        assert_eq!(back.n, r.n);
        assert!((back.p50 - r.p50).abs() < 1e-12);
        assert!((back.bias - r.bias).abs() < 1e-12);
        assert!((back.r_squared - 0.987).abs() < 1e-12);
        // NaN R² survives as NaN (serialized null).
        let r = QualityRecord::from_signed_errors("rt2", &[0.1]);
        let back = QualityRecord::from_json("rt2", &r.to_json()).expect("parses");
        assert!(back.r_squared.is_nan());
    }

    #[test]
    fn collector_replaces_and_sorts() {
        let c = Collector::new();
        c.record(QualityRecord::from_signed_errors("z.late", &[0.1]));
        c.record(QualityRecord::from_signed_errors("a.early", &[0.2]));
        c.record(QualityRecord::from_signed_errors("z.late", &[0.3, 0.3]));
        let snap = c.snapshot();
        let keys: Vec<&str> = snap.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, vec!["a.early", "z.late"]);
        assert_eq!(snap[1].n, 2, "re-record replaces");
    }

    #[test]
    fn single_sample_quantiles_degenerate() {
        let r = QualityRecord::from_signed_errors("one", &[-0.07]);
        assert_eq!(r.p50, 0.07);
        assert_eq!(r.p90, 0.07);
        assert_eq!(r.max, 0.07);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = QualityRecord::from_signed_errors("e", &[]);
    }
}
