//! Canonical versioned JSON wire format for queries and results.
//!
//! This is the protocol the planned `udse-serve` daemon will speak, so
//! its serialization discipline is strict:
//!
//! - Every document carries a version field (`query_version` /
//!   `result_version`) checked against [`QUERY_SCHEMA_VERSION`].
//! - Serialization is canonical: the same value always produces the same
//!   bytes, and serialize → parse → serialize is byte identity.
//! - Parsing is strict: unknown or duplicate object keys are rejected at
//!   every nesting level, so schema drift fails loudly instead of being
//!   silently ignored across a process boundary.
//!
//! Parsing is mildly lenient only where JSON itself is ambiguous: a
//! fractionless number like `64` is accepted where a float is expected
//! (the canonical writer always emits `64.0`).
//!
//! Design points serialize as their seven group indices plus the FO4
//! depth that disambiguates the paper space from the exploration space.

use udse_obs::Json;
use udse_trace::Benchmark;

use crate::oracle::Metrics;
use crate::space::{DesignPoint, DesignSpace};

use super::{Axis, Constraint, Objective, OptimumEntry, PredictedPoint, Query, QueryResult};

/// Query/result document layout version, bumped on incompatible changes.
pub const QUERY_SCHEMA_VERSION: i64 = 1;

/// Rejects objects with keys outside `allowed` (and duplicate keys), so
/// wire documents with schema drift fail loudly.
fn check_keys(doc: &Json, ctx: &str, allowed: &[&str]) -> Result<(), String> {
    let Json::Obj(pairs) = doc else {
        return Err(format!("{ctx}: expected an object"));
    };
    for (i, (k, _)) in pairs.iter().enumerate() {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("{ctx}: unknown field `{k}`"));
        }
        if pairs[..i].iter().any(|(prev, _)| prev == k) {
            return Err(format!("{ctx}: duplicate field `{k}`"));
        }
    }
    Ok(())
}

fn check_version(doc: &Json, field: &str) -> Result<(), String> {
    let version = doc
        .get(field)
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("missing {field} — not a query document"))?;
    if version != QUERY_SCHEMA_VERSION {
        return Err(format!(
            "unsupported {field} {version} (this build reads {QUERY_SCHEMA_VERSION})"
        ));
    }
    Ok(())
}

/// Reconstructs a design point from its serialized group indices and FO4
/// depth. The depth value selects the space: the paper and exploration
/// depth lists never agree at the same index (`9 + 3i` vs `12 + 3i`), so
/// the reconstruction is unambiguous.
fn point_from_parts(indices: [u8; 7], fo4: u32) -> Option<DesignPoint> {
    for space in [DesignSpace::paper(), DesignSpace::exploration()] {
        if let Some(p) = space.point(indices) {
            if p.fo4() == fo4 {
                return Some(p);
            }
        }
    }
    None
}

fn point_to_json(p: &DesignPoint) -> Json {
    let idx = [p.depth_idx, p.width_idx, p.regs_idx, p.resv_idx, p.il1_idx, p.dl1_idx, p.l2_idx];
    Json::obj([
        ("idx", Json::Arr(idx.iter().map(|&i| Json::Int(i as i64)).collect())),
        ("fo4", Json::Int(p.fo4() as i64)),
    ])
}

fn point_from_json(doc: &Json, ctx: &str) -> Result<DesignPoint, String> {
    check_keys(doc, ctx, &["idx", "fo4"])?;
    let idx_arr = doc
        .get("idx")
        .and_then(Json::as_arr)
        .filter(|a| a.len() == 7)
        .ok_or_else(|| format!("{ctx}: idx must be a 7-element array"))?;
    let mut idx = [0u8; 7];
    for (slot, v) in idx.iter_mut().zip(idx_arr) {
        *slot = v
            .as_i64()
            .filter(|&v| (0..=u8::MAX as i64).contains(&v))
            .ok_or_else(|| format!("{ctx}: non-integer group index"))? as u8;
    }
    let fo4 = doc
        .get("fo4")
        .and_then(Json::as_i64)
        .filter(|&v| v >= 0)
        .ok_or_else(|| format!("{ctx}: missing fo4"))? as u32;
    point_from_parts(idx, fo4)
        .ok_or_else(|| format!("{ctx}: indices {idx:?} with fo4 {fo4} fit no space"))
}

fn bench_to_json(b: Option<Benchmark>) -> Json {
    match b {
        Some(b) => Json::str(b.name()),
        None => Json::Null,
    }
}

fn bench_required(doc: &Json, ctx: &str) -> Result<Benchmark, String> {
    let name =
        doc.get("bench").and_then(Json::as_str).ok_or_else(|| format!("{ctx}: missing bench"))?;
    name.parse().map_err(|_| format!("{ctx}: unknown benchmark `{name}`"))
}

fn bench_optional(doc: &Json, ctx: &str) -> Result<Option<Benchmark>, String> {
    match doc.get("bench") {
        Some(Json::Null) => Ok(None),
        Some(Json::Str(name)) => {
            name.parse().map(Some).map_err(|_| format!("{ctx}: unknown benchmark `{name}`"))
        }
        _ => Err(format!("{ctx}: bench must be a benchmark name or null")),
    }
}

fn finite_f64(v: &Json, ctx: &str) -> Result<f64, String> {
    v.as_f64().filter(|f| f.is_finite()).ok_or_else(|| format!("{ctx}: expected a finite number"))
}

fn opt_f64_to_json(v: Option<f64>) -> Json {
    match v {
        Some(f) => Json::Float(f),
        None => Json::Null,
    }
}

fn opt_f64_from_json(doc: &Json, key: &str, ctx: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        Some(Json::Null) => Ok(None),
        Some(v) => finite_f64(v, &format!("{ctx}.{key}")).map(Some),
        None => Err(format!("{ctx}: missing {key} (use null for unbounded)")),
    }
}

fn usize_field(doc: &Json, key: &str, ctx: &str) -> Result<usize, String> {
    doc.get(key)
        .and_then(Json::as_i64)
        .filter(|&v| v >= 0)
        .map(|v| v as usize)
        .ok_or_else(|| format!("{ctx}: missing or negative {key}"))
}

fn constraint_to_json(c: &Constraint) -> Json {
    Json::obj([
        ("axis", Json::str(c.axis.name())),
        ("min", opt_f64_to_json(c.min)),
        ("max", opt_f64_to_json(c.max)),
    ])
}

fn constraint_from_json(doc: &Json, ctx: &str) -> Result<Constraint, String> {
    check_keys(doc, ctx, &["axis", "min", "max"])?;
    let name =
        doc.get("axis").and_then(Json::as_str).ok_or_else(|| format!("{ctx}: missing axis"))?;
    let axis = Axis::by_name(name).ok_or_else(|| format!("{ctx}: unknown axis `{name}`"))?;
    Ok(Constraint {
        axis,
        min: opt_f64_from_json(doc, "min", ctx)?,
        max: opt_f64_from_json(doc, "max", ctx)?,
    })
}

fn constraints_to_json(cs: &[Constraint]) -> Json {
    Json::Arr(cs.iter().map(constraint_to_json).collect())
}

fn constraints_from_json(doc: &Json, ctx: &str) -> Result<Vec<Constraint>, String> {
    let rows = doc
        .get("constraints")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: missing constraints array"))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| constraint_from_json(row, &format!("{ctx}.constraints[{i}]")))
        .collect()
}

fn objective_to_json(o: &Objective) -> Json {
    match o {
        Objective::Efficiency => Json::str("efficiency"),
        Objective::SuiteRelative(refs) => Json::obj([(
            "suite_relative",
            Json::Arr(refs.iter().map(|&r| Json::Float(r)).collect()),
        )]),
    }
}

fn objective_from_json(doc: &Json, ctx: &str) -> Result<Objective, String> {
    match doc.get("objective") {
        Some(Json::Str(s)) if s == "efficiency" => Ok(Objective::Efficiency),
        Some(obj @ Json::Obj(_)) => {
            check_keys(obj, &format!("{ctx}.objective"), &["suite_relative"])?;
            let refs = obj
                .get("suite_relative")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{ctx}.objective: missing suite_relative array"))?;
            let refs = refs
                .iter()
                .enumerate()
                .map(|(i, v)| finite_f64(v, &format!("{ctx}.objective.suite_relative[{i}]")))
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(Objective::SuiteRelative(refs))
        }
        _ => Err(format!("{ctx}: objective must be \"efficiency\" or {{\"suite_relative\": […]}}")),
    }
}

fn metrics_to_json(m: &Metrics) -> Json {
    Json::obj([("bips", Json::Float(m.bips)), ("watts", Json::Float(m.watts))])
}

fn metrics_from_json(doc: &Json, ctx: &str) -> Result<Metrics, String> {
    check_keys(doc, ctx, &["bips", "watts"])?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("{ctx}: missing {key}"))
            .and_then(|v| finite_f64(v, &format!("{ctx}.{key}")))
    };
    Ok(Metrics { bips: field("bips")?, watts: field("watts")? })
}

fn row_to_json(row: &PredictedPoint) -> Json {
    Json::obj([
        ("point", point_to_json(&row.point)),
        ("predicted", metrics_to_json(&row.predicted)),
    ])
}

fn row_from_json(doc: &Json, ctx: &str) -> Result<PredictedPoint, String> {
    check_keys(doc, ctx, &["point", "predicted"])?;
    let point = doc.get("point").ok_or_else(|| format!("{ctx}: missing point"))?;
    let predicted = doc.get("predicted").ok_or_else(|| format!("{ctx}: missing predicted"))?;
    Ok(PredictedPoint {
        point: point_from_json(point, &format!("{ctx}.point"))?,
        predicted: metrics_from_json(predicted, &format!("{ctx}.predicted"))?,
    })
}

fn rows_to_json(rows: &[PredictedPoint]) -> Json {
    Json::Arr(rows.iter().map(row_to_json).collect())
}

fn rows_from_json(doc: &Json, key: &str, ctx: &str) -> Result<Vec<PredictedPoint>, String> {
    let rows =
        doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("{ctx}: missing {key} array"))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| row_from_json(row, &format!("{ctx}.{key}[{i}]")))
        .collect()
}

impl Query {
    /// Serializes the query to its canonical versioned document. The same
    /// query always produces the same bytes.
    pub fn to_json(&self) -> Json {
        let head = |ty: &str| {
            vec![
                ("query_version".to_string(), Json::Int(QUERY_SCHEMA_VERSION)),
                ("type".to_string(), Json::str(ty)),
            ]
        };
        let mut pairs = match self {
            Query::Point { benchmark, point } => {
                let mut p = head("point");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("point".to_string(), point_to_json(point)));
                p
            }
            Query::ConstrainedOptimum { benchmark, objective, constraints, stride } => {
                let mut p = head("constrained_optimum");
                p.push(("bench".to_string(), bench_to_json(*benchmark)));
                p.push(("objective".to_string(), objective_to_json(objective)));
                p.push(("constraints".to_string(), constraints_to_json(constraints)));
                p.push(("stride".to_string(), Json::Int(*stride as i64)));
                p
            }
            Query::ParetoSlice { benchmark, constraints, stride, bins } => {
                let mut p = head("pareto_slice");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("constraints".to_string(), constraints_to_json(constraints)));
                p.push(("stride".to_string(), Json::Int(*stride as i64)));
                p.push(("bins".to_string(), Json::Int(*bins as i64)));
                p
            }
            Query::TopK { benchmark, constraints, stride, k } => {
                let mut p = head("top_k");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("constraints".to_string(), constraints_to_json(constraints)));
                p.push(("stride".to_string(), Json::Int(*stride as i64)));
                p.push(("k".to_string(), Json::Int(*k as i64)));
                p
            }
            Query::WhatIf { benchmark, base, alternative } => {
                let mut p = head("what_if");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("base".to_string(), point_to_json(base)));
                p.push(("alternative".to_string(), point_to_json(alternative)));
                p
            }
            Query::AxisSweep { benchmark, base, axis } => {
                let mut p = head("axis_sweep");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("base".to_string(), point_to_json(base)));
                p.push(("axis".to_string(), Json::str(axis.name())));
                p
            }
        };
        Json::Obj(std::mem::take(&mut pairs))
    }

    /// Parses a query document.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, an unsupported `query_version`, an
    /// unknown `type`, unknown or duplicate fields at any level, unknown
    /// benchmark/axis names, or points that fit neither design space.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc)
    }

    /// Interprets an already-parsed document as a query.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Query::parse`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        check_version(doc, "query_version")?;
        let ty = doc.get("type").and_then(Json::as_str).ok_or("missing query type")?;
        match ty {
            "point" => {
                check_keys(doc, "point query", &["query_version", "type", "bench", "point"])?;
                Ok(Query::Point {
                    benchmark: bench_required(doc, "point query")?,
                    point: point_from_json(
                        doc.get("point").ok_or("point query: missing point")?,
                        "point query.point",
                    )?,
                })
            }
            "constrained_optimum" => {
                let ctx = "constrained_optimum query";
                check_keys(
                    doc,
                    ctx,
                    &["query_version", "type", "bench", "objective", "constraints", "stride"],
                )?;
                Ok(Query::ConstrainedOptimum {
                    benchmark: bench_optional(doc, ctx)?,
                    objective: objective_from_json(doc, ctx)?,
                    constraints: constraints_from_json(doc, ctx)?,
                    stride: usize_field(doc, "stride", ctx)?,
                })
            }
            "pareto_slice" => {
                let ctx = "pareto_slice query";
                check_keys(
                    doc,
                    ctx,
                    &["query_version", "type", "bench", "constraints", "stride", "bins"],
                )?;
                Ok(Query::ParetoSlice {
                    benchmark: bench_required(doc, ctx)?,
                    constraints: constraints_from_json(doc, ctx)?,
                    stride: usize_field(doc, "stride", ctx)?,
                    bins: usize_field(doc, "bins", ctx)?,
                })
            }
            "top_k" => {
                let ctx = "top_k query";
                check_keys(
                    doc,
                    ctx,
                    &["query_version", "type", "bench", "constraints", "stride", "k"],
                )?;
                Ok(Query::TopK {
                    benchmark: bench_required(doc, ctx)?,
                    constraints: constraints_from_json(doc, ctx)?,
                    stride: usize_field(doc, "stride", ctx)?,
                    k: usize_field(doc, "k", ctx)?,
                })
            }
            "what_if" => {
                let ctx = "what_if query";
                check_keys(doc, ctx, &["query_version", "type", "bench", "base", "alternative"])?;
                Ok(Query::WhatIf {
                    benchmark: bench_required(doc, ctx)?,
                    base: point_from_json(
                        doc.get("base").ok_or("what_if query: missing base")?,
                        "what_if query.base",
                    )?,
                    alternative: point_from_json(
                        doc.get("alternative").ok_or("what_if query: missing alternative")?,
                        "what_if query.alternative",
                    )?,
                })
            }
            "axis_sweep" => {
                let ctx = "axis_sweep query";
                check_keys(doc, ctx, &["query_version", "type", "bench", "base", "axis"])?;
                let name = doc
                    .get("axis")
                    .and_then(Json::as_str)
                    .ok_or("axis_sweep query: missing axis")?;
                Ok(Query::AxisSweep {
                    benchmark: bench_required(doc, ctx)?,
                    base: point_from_json(
                        doc.get("base").ok_or("axis_sweep query: missing base")?,
                        "axis_sweep query.base",
                    )?,
                    axis: Axis::by_name(name)
                        .ok_or_else(|| format!("axis_sweep query: unknown axis `{name}`"))?,
                })
            }
            other => Err(format!("unknown query type `{other}`")),
        }
    }
}

fn entry_to_json(e: &OptimumEntry) -> Json {
    Json::obj([
        ("bench", bench_to_json(e.benchmark)),
        ("point", point_to_json(&e.point)),
        (
            "predicted",
            match &e.predicted {
                Some(m) => metrics_to_json(m),
                None => Json::Null,
            },
        ),
        ("score", Json::Float(e.score)),
    ])
}

fn entry_from_json(doc: &Json, ctx: &str) -> Result<OptimumEntry, String> {
    check_keys(doc, ctx, &["bench", "point", "predicted", "score"])?;
    let predicted = match doc.get("predicted") {
        Some(Json::Null) => None,
        Some(m) => Some(metrics_from_json(m, &format!("{ctx}.predicted"))?),
        None => {
            return Err(format!("{ctx}: missing predicted (use null for aggregate objectives)"))
        }
    };
    let score = doc
        .get("score")
        .ok_or_else(|| format!("{ctx}: missing score"))
        .and_then(|v| finite_f64(v, &format!("{ctx}.score")))?;
    Ok(OptimumEntry {
        benchmark: bench_optional(doc, ctx)?,
        point: point_from_json(
            doc.get("point").ok_or_else(|| format!("{ctx}: missing point"))?,
            &format!("{ctx}.point"),
        )?,
        predicted,
        score,
    })
}

impl QueryResult {
    /// Serializes the result to its canonical versioned document. The
    /// same result always produces the same bytes, so materialized
    /// results can be compared and cached by their serialization.
    pub fn to_json(&self) -> Json {
        let head = |ty: &str| {
            vec![
                ("result_version".to_string(), Json::Int(QUERY_SCHEMA_VERSION)),
                ("type".to_string(), Json::str(ty)),
            ]
        };
        let mut pairs = match self {
            QueryResult::Point { benchmark, row } => {
                let mut p = head("point");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("row".to_string(), row_to_json(row)));
                p
            }
            QueryResult::Optima { entries } => {
                let mut p = head("optima");
                p.push((
                    "entries".to_string(),
                    Json::Arr(entries.iter().map(entry_to_json).collect()),
                ));
                p
            }
            QueryResult::Frontier { benchmark, designs } => {
                let mut p = head("frontier");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("designs".to_string(), rows_to_json(designs)));
                p
            }
            QueryResult::Ranking { benchmark, entries } => {
                let mut p = head("ranking");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("entries".to_string(), rows_to_json(entries)));
                p
            }
            QueryResult::Delta { benchmark, base, alternative } => {
                let mut p = head("delta");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("base".to_string(), row_to_json(base)));
                p.push(("alternative".to_string(), row_to_json(alternative)));
                // Derived, recomputed on every serialization from the
                // stored rows, so parse → serialize stays byte-identical.
                p.push((
                    "delta".to_string(),
                    Json::obj([
                        ("bips", Json::Float(alternative.predicted.bips - base.predicted.bips)),
                        ("watts", Json::Float(alternative.predicted.watts - base.predicted.watts)),
                    ]),
                ));
                p
            }
            QueryResult::Sweep { benchmark, axis, rows } => {
                let mut p = head("sweep");
                p.push(("bench".to_string(), Json::str(benchmark.name())));
                p.push(("axis".to_string(), Json::str(axis.name())));
                p.push(("rows".to_string(), rows_to_json(rows)));
                p
            }
        };
        Json::Obj(std::mem::take(&mut pairs))
    }

    /// Parses a result document.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, an unsupported `result_version`, an
    /// unknown `type`, or unknown/duplicate fields at any level.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc)
    }

    /// Interprets an already-parsed document as a result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueryResult::parse`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        check_version(doc, "result_version")?;
        let ty = doc.get("type").and_then(Json::as_str).ok_or("missing result type")?;
        match ty {
            "point" => {
                check_keys(doc, "point result", &["result_version", "type", "bench", "row"])?;
                Ok(QueryResult::Point {
                    benchmark: bench_required(doc, "point result")?,
                    row: row_from_json(
                        doc.get("row").ok_or("point result: missing row")?,
                        "point result.row",
                    )?,
                })
            }
            "optima" => {
                check_keys(doc, "optima result", &["result_version", "type", "entries"])?;
                let rows = doc
                    .get("entries")
                    .and_then(Json::as_arr)
                    .ok_or("optima result: missing entries array")?;
                Ok(QueryResult::Optima {
                    entries: rows
                        .iter()
                        .enumerate()
                        .map(|(i, row)| {
                            entry_from_json(row, &format!("optima result.entries[{i}]"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                })
            }
            "frontier" => {
                let ctx = "frontier result";
                check_keys(doc, ctx, &["result_version", "type", "bench", "designs"])?;
                Ok(QueryResult::Frontier {
                    benchmark: bench_required(doc, ctx)?,
                    designs: rows_from_json(doc, "designs", ctx)?,
                })
            }
            "ranking" => {
                let ctx = "ranking result";
                check_keys(doc, ctx, &["result_version", "type", "bench", "entries"])?;
                Ok(QueryResult::Ranking {
                    benchmark: bench_required(doc, ctx)?,
                    entries: rows_from_json(doc, "entries", ctx)?,
                })
            }
            "delta" => {
                let ctx = "delta result";
                check_keys(
                    doc,
                    ctx,
                    &["result_version", "type", "bench", "base", "alternative", "delta"],
                )?;
                // `delta` is derived from the rows; validate its shape if
                // present but take the stored rows as the truth.
                if let Some(d) = doc.get("delta") {
                    metrics_from_json(d, "delta result.delta")?;
                }
                Ok(QueryResult::Delta {
                    benchmark: bench_required(doc, ctx)?,
                    base: row_from_json(
                        doc.get("base").ok_or("delta result: missing base")?,
                        "delta result.base",
                    )?,
                    alternative: row_from_json(
                        doc.get("alternative").ok_or("delta result: missing alternative")?,
                        "delta result.alternative",
                    )?,
                })
            }
            "sweep" => {
                let ctx = "sweep result";
                check_keys(doc, ctx, &["result_version", "type", "bench", "axis", "rows"])?;
                let name =
                    doc.get("axis").and_then(Json::as_str).ok_or("sweep result: missing axis")?;
                Ok(QueryResult::Sweep {
                    benchmark: bench_required(doc, ctx)?,
                    axis: Axis::by_name(name)
                        .ok_or_else(|| format!("sweep result: unknown axis `{name}`"))?,
                    rows: rows_from_json(doc, "rows", ctx)?,
                })
            }
            other => Err(format!("unknown result type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> DesignPoint {
        DesignSpace::exploration().decode(i).unwrap()
    }

    fn sample_queries() -> Vec<Query> {
        vec![
            Query::point(Benchmark::Ammp, p(0)),
            Query::optimum(
                Some(Benchmark::Mcf),
                vec![
                    Constraint::at_most(Axis::Dl1Kb, 64.0),
                    Constraint::exactly(Axis::DepthFo4, 18.0),
                ],
                500,
            ),
            Query::optimum(None, vec![], 1),
            Query::suite_optimum(vec![1.0; 9], vec![Constraint::at_least(Axis::Width, 4.0)], 250),
            Query::pareto(Benchmark::Jbb, vec![Constraint::at_most(Axis::L2Kb, 1024.0)], 500, 40),
            Query::top_k(Benchmark::Mesa, vec![], 500, 10),
            Query::what_if(Benchmark::Twolf, p(7), p(1234)),
            Query::axis_sweep(Benchmark::Gcc, p(99), Axis::Dl1Kb),
        ]
    }

    #[test]
    fn queries_round_trip_byte_identically() {
        for q in sample_queries() {
            let text = q.to_json().to_string_pretty();
            let back = Query::parse(&text).expect("canonical query parses");
            assert_eq!(back, q);
            assert_eq!(back.to_json().to_string_pretty(), text, "byte identity for {q:?}");
        }
    }

    #[test]
    fn results_round_trip_byte_identically() {
        let row = |i: u64, bips: f64, watts: f64| PredictedPoint {
            point: p(i),
            predicted: Metrics { bips, watts },
        };
        let results = vec![
            QueryResult::Point { benchmark: Benchmark::Ammp, row: row(0, 1.25, 42.5) },
            QueryResult::Optima {
                entries: vec![
                    OptimumEntry {
                        benchmark: Some(Benchmark::Mcf),
                        point: p(3),
                        predicted: Some(Metrics { bips: 2.0, watts: 30.0 }),
                        score: 8.0 / 30.0,
                    },
                    OptimumEntry { benchmark: None, point: p(4), predicted: None, score: 1.5 },
                ],
            },
            QueryResult::Frontier {
                benchmark: Benchmark::Jbb,
                designs: vec![row(1, 1.0, 10.0), row(2, 2.0, 20.0)],
            },
            QueryResult::Ranking { benchmark: Benchmark::Mesa, entries: vec![row(5, 3.0, 25.0)] },
            QueryResult::Delta {
                benchmark: Benchmark::Twolf,
                base: row(7, 1.0, 50.0),
                alternative: row(8, 1.5, 55.5),
            },
            QueryResult::Sweep {
                benchmark: Benchmark::Gcc,
                axis: Axis::L2Kb,
                rows: vec![row(9, 0.5, 12.5)],
            },
        ];
        for r in results {
            let text = r.to_json().to_string_pretty();
            let back = QueryResult::parse(&text).expect("canonical result parses");
            assert_eq!(back, r);
            assert_eq!(back.to_json().to_string_pretty(), text, "byte identity for {r:?}");
        }
    }

    #[test]
    fn unknown_fields_are_rejected_at_every_level() {
        let q = sample_queries().remove(1);
        let Json::Obj(mut pairs) = q.to_json() else { panic!("queries serialize to objects") };
        pairs.push(("surprise".to_string(), Json::Int(1)));
        let err = Query::from_json(&Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("unknown field `surprise`"), "{err}");

        let nested = r#"{"query_version": 1, "type": "point", "bench": "ammp",
            "point": {"idx": [0,0,0,0,0,0,0], "fo4": 9, "extra": true}}"#;
        assert!(Query::parse(nested).unwrap_err().contains("unknown field `extra`"));
    }

    #[test]
    fn malformed_documents_error_cleanly() {
        assert!(Query::parse("not json").is_err());
        assert!(Query::parse("{}").unwrap_err().contains("missing query_version"));
        assert!(Query::parse(r#"{"query_version": 99, "type": "point"}"#)
            .unwrap_err()
            .contains("unsupported query_version"));
        assert!(Query::parse(r#"{"query_version": 1, "type": "nope"}"#)
            .unwrap_err()
            .contains("unknown query type"));
        assert!(QueryResult::parse("{}").unwrap_err().contains("missing result_version"));
        let dup = r#"{"query_version": 1, "type": "point", "bench": "ammp", "bench": "mcf",
            "point": {"idx": [0,0,0,0,0,0,0], "fo4": 9}}"#;
        assert!(Query::parse(dup).unwrap_err().contains("duplicate field `bench`"));
        let bad_axis = r#"{"query_version": 1, "type": "constrained_optimum", "bench": null,
            "objective": "efficiency",
            "constraints": [{"axis": "l3_kb", "min": null, "max": 1.0}], "stride": 1}"#;
        assert!(Query::parse(bad_axis).unwrap_err().contains("unknown axis"));
    }

    #[test]
    fn ambiguous_depths_resolve_by_fo4() {
        // Exploration depth_idx 0 is 12 FO4; paper depth_idx 0 is 9 FO4.
        // Both serialize the same indices and must come back from the
        // right space.
        let explo = DesignSpace::exploration().decode(0).unwrap();
        let paper = DesignSpace::paper().decode(0).unwrap();
        assert_eq!(explo.depth_idx, paper.depth_idx);
        for point in [explo, paper] {
            let back = point_from_json(&point_to_json(&point), "point").unwrap();
            assert_eq!(back, point);
        }
        let bad = Json::parse(r#"{"idx": [0,0,0,0,0,0,0], "fo4": 10}"#).unwrap();
        assert!(point_from_json(&bad, "point").unwrap_err().contains("fit no space"));
    }

    #[test]
    fn lenient_integer_floats_canonicalize() {
        // A hand-written `"max": 64` (Int) parses, and re-serializes in
        // canonical float form.
        let text = r#"{"query_version": 1, "type": "constrained_optimum", "bench": "mcf",
            "objective": "efficiency",
            "constraints": [{"axis": "dl1_kb", "min": null, "max": 64}], "stride": 500}"#;
        let q = Query::parse(text).unwrap();
        assert!(q.to_json().to_string_compact().contains("\"max\":64.0"));
    }
}
