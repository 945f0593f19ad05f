//! Canonical versioned JSON wire format for queries and results.
//!
//! This is the protocol the planned `udse-serve` daemon will speak, so
//! its serialization discipline is strict:
//!
//! - Every document carries a version field (`query_version` /
//!   `result_version`) checked against [`QUERY_SCHEMA_VERSION`].
//! - Serialization is canonical: the same value always produces the same
//!   bytes, and serialize → parse → serialize is byte identity.
//! - Parsing is strict: every object is read through
//!   [`udse_obs::json::Fields`], the reader run manifests use too, so
//!   unknown or duplicate keys and non-finite numbers are rejected at
//!   every nesting level and schema drift fails loudly instead of being
//!   silently ignored across a process boundary.
//!
//! Parsing is mildly lenient only where JSON itself is ambiguous: a
//! fractionless number like `64` is accepted where a float is expected
//! (the canonical writer always emits `64.0`).
//!
//! Design points serialize as their seven group indices plus the FO4
//! depth that disambiguates the paper space from the exploration space.

use std::fmt::Display;

use udse_obs::json::{Fields, Json};
use udse_trace::Benchmark;

use crate::oracle::Metrics;
use crate::space::{DesignPoint, DesignSpace};

use super::{Axis, Constraint, Objective, OptimumEntry, PredictedPoint, Query, QueryResult};

/// Query/result document layout version, bumped on incompatible changes.
pub const QUERY_SCHEMA_VERSION: i64 = 1;

/// Reconstructs a design point from its serialized group indices and FO4
/// depth. The depth value selects the space: the paper and exploration
/// depth lists never agree at the same index (`9 + 3i` vs `12 + 3i`), so
/// the reconstruction is unambiguous.
fn point_from_parts(indices: [u8; 7], fo4: u64) -> Option<DesignPoint> {
    for space in [DesignSpace::paper(), DesignSpace::exploration()] {
        if let Some(p) = space.point(indices) {
            if u64::from(p.fo4()) == fo4 {
                return Some(p);
            }
        }
    }
    None
}

fn point_to_json(p: &DesignPoint) -> Json {
    Json::obj([
        ("idx", Json::Arr(p.indices().iter().map(|&i| Json::Int(i as i64)).collect())),
        ("fo4", Json::Int(p.fo4() as i64)),
    ])
}

fn point_from_json(doc: &Json, ctx: impl Display) -> Result<DesignPoint, String> {
    let f = Fields::new(doc, &ctx, &["idx", "fo4"])?;
    let idx_arr = f.arr("idx")?;
    if idx_arr.len() != 7 {
        return Err(format!("{ctx}: idx must be a 7-element array"));
    }
    let mut idx = [0u8; 7];
    for (slot, v) in idx.iter_mut().zip(idx_arr) {
        *slot = v
            .as_i64()
            .and_then(|v| u8::try_from(v).ok())
            .ok_or_else(|| format!("{ctx}: non-integer group index"))?;
    }
    let fo4 = f.u64("fo4")?;
    point_from_parts(idx, fo4)
        .ok_or_else(|| format!("{ctx}: indices {idx:?} with fo4 {fo4} fit no space"))
}

fn bench_to_json(b: Option<Benchmark>) -> Json {
    b.map_or(Json::Null, |b| Json::str(b.name()))
}

fn benchmark(name: &str, ctx: impl Display) -> Result<Benchmark, String> {
    name.parse().map_err(|_| format!("{ctx}: unknown benchmark `{name}`"))
}

fn axis(name: &str, ctx: impl Display) -> Result<Axis, String> {
    Axis::by_name(name).ok_or_else(|| format!("{ctx}: unknown axis `{name}`"))
}

fn constraints_to_json(cs: &[Constraint]) -> Json {
    let bound = |v: Option<f64>| v.map_or(Json::Null, Json::Float);
    Json::Arr(
        cs.iter()
            .map(|c| {
                Json::obj([
                    ("axis", Json::str(c.axis.name())),
                    ("min", bound(c.min)),
                    ("max", bound(c.max)),
                ])
            })
            .collect(),
    )
}

fn constraint_from_json(doc: &Json, ctx: impl Display) -> Result<Constraint, String> {
    let f = Fields::new(doc, &ctx, &["axis", "min", "max"])?;
    Ok(Constraint {
        axis: axis(f.str("axis")?, &ctx)?,
        min: f.nullable("min", Fields::f64)?,
        max: f.nullable("max", Fields::f64)?,
    })
}

fn constraints_from_json(f: &Fields, ctx: impl Display) -> Result<Vec<Constraint>, String> {
    f.arr("constraints")?
        .iter()
        .enumerate()
        .map(|(i, row)| constraint_from_json(row, format_args!("{ctx}.constraints[{i}]")))
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

fn objective_from_json(doc: &Json, ctx: impl Display) -> Result<Objective, String> {
    match doc {
        Json::Str(s) if s == "efficiency" => Ok(Objective::Efficiency),
        Json::Obj(_) => {
            let f = Fields::new(doc, &ctx, &["suite_relative"])?;
            let refs = f.arr("suite_relative")?.iter().enumerate().map(|(i, v)| {
                v.as_f64()
                    .filter(|r| r.is_finite())
                    .ok_or_else(|| format!("{ctx}.suite_relative[{i}]: expected a finite number"))
            });
            Ok(Objective::SuiteRelative(refs.collect::<Result<_, _>>()?))
        }
        _ => Err(format!("{ctx}: expected \"efficiency\" or {{\"suite_relative\": […]}}")),
    }
}

fn metrics_to_json(m: &Metrics) -> Json {
    Json::obj([("bips", Json::Float(m.bips)), ("watts", Json::Float(m.watts))])
}

fn metrics_from_json(doc: &Json, ctx: impl Display) -> Result<Metrics, String> {
    let f = Fields::new(doc, &ctx, &["bips", "watts"])?;
    Ok(Metrics { bips: f.f64("bips")?, watts: f.f64("watts")? })
}

fn row_to_json(row: &PredictedPoint) -> Json {
    Json::obj([
        ("point", point_to_json(&row.point)),
        ("predicted", metrics_to_json(&row.predicted)),
    ])
}

fn row_from_json(doc: &Json, ctx: impl Display) -> Result<PredictedPoint, String> {
    let f = Fields::new(doc, &ctx, &["point", "predicted"])?;
    Ok(PredictedPoint {
        point: point_from_json(f.get("point")?, format_args!("{ctx}.point"))?,
        predicted: metrics_from_json(f.get("predicted")?, format_args!("{ctx}.predicted"))?,
    })
}

fn rows_to_json(rows: &[PredictedPoint]) -> Json {
    Json::Arr(rows.iter().map(row_to_json).collect())
}

fn rows_from_json(f: &Fields, key: &str, ctx: impl Display) -> Result<Vec<PredictedPoint>, String> {
    f.arr(key)?
        .iter()
        .enumerate()
        .map(|(i, row)| row_from_json(row, format_args!("{ctx}.{key}[{i}]")))
        .collect()
}

/// A document's version and type header, then its own fields.
fn with_header(version_key: &str, ty: &str, fields: Vec<(&str, Json)>) -> Json {
    Json::obj(
        [(version_key, Json::Int(QUERY_SCHEMA_VERSION)), ("type", Json::str(ty))]
            .into_iter()
            .chain(fields),
    )
}

impl Query {
    /// Serializes the query to its canonical versioned document. The same
    /// query always produces the same bytes.
    pub fn to_json(&self) -> Json {
        let (ty, fields) = match self {
            Query::Point { benchmark, point } => (
                "point",
                vec![("bench", Json::str(benchmark.name())), ("point", point_to_json(point))],
            ),
            Query::ConstrainedOptimum { benchmark, objective, constraints, stride } => (
                "constrained_optimum",
                vec![
                    ("bench", bench_to_json(*benchmark)),
                    ("objective", objective_to_json(objective)),
                    ("constraints", constraints_to_json(constraints)),
                    ("stride", Json::Int(*stride as i64)),
                ],
            ),
            Query::ParetoSlice { benchmark, constraints, stride, bins } => (
                "pareto_slice",
                vec![
                    ("bench", Json::str(benchmark.name())),
                    ("constraints", constraints_to_json(constraints)),
                    ("stride", Json::Int(*stride as i64)),
                    ("bins", Json::Int(*bins as i64)),
                ],
            ),
            Query::TopK { benchmark, constraints, stride, k } => (
                "top_k",
                vec![
                    ("bench", Json::str(benchmark.name())),
                    ("constraints", constraints_to_json(constraints)),
                    ("stride", Json::Int(*stride as i64)),
                    ("k", Json::Int(*k as i64)),
                ],
            ),
            Query::WhatIf { benchmark, base, alternative } => (
                "what_if",
                vec![
                    ("bench", Json::str(benchmark.name())),
                    ("base", point_to_json(base)),
                    ("alternative", point_to_json(alternative)),
                ],
            ),
            Query::AxisSweep { benchmark, base, axis } => (
                "axis_sweep",
                vec![
                    ("bench", Json::str(benchmark.name())),
                    ("base", point_to_json(base)),
                    ("axis", Json::str(axis.name())),
                ],
            ),
        };
        with_header("query_version", ty, fields)
    }

    /// Parses a query document.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, an unsupported `query_version`, an
    /// unknown `type`, unknown or duplicate fields at any level,
    /// non-finite numbers, unknown benchmark/axis names, or points that
    /// fit neither design space.
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
        // The keys a document may hold depend on its type; a missing or
        // unknown type admits only the header, which is read first.
        let (ctx, keys): (&str, &[&str]) = match doc.get("type").and_then(Json::as_str) {
            Some("point") => ("point query", &["query_version", "type", "bench", "point"]),
            Some("constrained_optimum") => (
                "constrained_optimum query",
                &["query_version", "type", "bench", "objective", "constraints", "stride"],
            ),
            Some("pareto_slice") => (
                "pareto_slice query",
                &["query_version", "type", "bench", "constraints", "stride", "bins"],
            ),
            Some("top_k") => {
                ("top_k query", &["query_version", "type", "bench", "constraints", "stride", "k"])
            }
            Some("what_if") => {
                ("what_if query", &["query_version", "type", "bench", "base", "alternative"])
            }
            Some("axis_sweep") => {
                ("axis_sweep query", &["query_version", "type", "bench", "base", "axis"])
            }
            _ => ("query", &["query_version", "type"]),
        };
        let f = Fields::new(doc, &ctx, keys)?;
        f.version("query_version", QUERY_SCHEMA_VERSION)?;
        let bench = || benchmark(f.str("bench")?, ctx);
        let point = |key: &str| point_from_json(f.get(key)?, format_args!("{ctx}.{key}"));
        Ok(match f.str("type")? {
            "point" => Query::Point { benchmark: bench()?, point: point("point")? },
            "constrained_optimum" => Query::ConstrainedOptimum {
                benchmark: f
                    .nullable("bench", Fields::str)?
                    .map(|b| benchmark(b, ctx))
                    .transpose()?,
                objective: objective_from_json(
                    f.get("objective")?,
                    format_args!("{ctx}.objective"),
                )?,
                constraints: constraints_from_json(&f, ctx)?,
                stride: f.u64("stride")? as usize,
            },
            "pareto_slice" => Query::ParetoSlice {
                benchmark: bench()?,
                constraints: constraints_from_json(&f, ctx)?,
                stride: f.u64("stride")? as usize,
                bins: f.u64("bins")? as usize,
            },
            "top_k" => Query::TopK {
                benchmark: bench()?,
                constraints: constraints_from_json(&f, ctx)?,
                stride: f.u64("stride")? as usize,
                k: f.u64("k")? as usize,
            },
            "what_if" => Query::WhatIf {
                benchmark: bench()?,
                base: point("base")?,
                alternative: point("alternative")?,
            },
            "axis_sweep" => Query::AxisSweep {
                benchmark: bench()?,
                base: point("base")?,
                axis: axis(f.str("axis")?, ctx)?,
            },
            other => return Err(format!("unknown query type `{other}`")),
        })
    }
}

fn entry_to_json(e: &OptimumEntry) -> Json {
    Json::obj([
        ("bench", bench_to_json(e.benchmark)),
        ("point", point_to_json(&e.point)),
        ("predicted", e.predicted.as_ref().map_or(Json::Null, metrics_to_json)),
        ("score", Json::Float(e.score)),
    ])
}

fn entry_from_json(doc: &Json, ctx: impl Display) -> Result<OptimumEntry, String> {
    let f = Fields::new(doc, &ctx, &["bench", "point", "predicted", "score"])?;
    Ok(OptimumEntry {
        benchmark: f.nullable("bench", Fields::str)?.map(|b| benchmark(b, &ctx)).transpose()?,
        point: point_from_json(f.get("point")?, format_args!("{ctx}.point"))?,
        predicted: match f.get("predicted")? {
            Json::Null => None,
            m => Some(metrics_from_json(m, format_args!("{ctx}.predicted"))?),
        },
        score: f.f64("score")?,
    })
}

impl QueryResult {
    /// Serializes the result to its canonical versioned document. The
    /// same result always produces the same bytes, so materialized
    /// results can be compared and cached by their serialization.
    pub fn to_json(&self) -> Json {
        let (ty, fields) = match self {
            QueryResult::Point { benchmark, row } => {
                ("point", vec![("bench", Json::str(benchmark.name())), ("row", row_to_json(row))])
            }
            QueryResult::Optima { entries } => (
                "optima",
                vec![("entries", Json::Arr(entries.iter().map(entry_to_json).collect()))],
            ),
            QueryResult::Frontier { benchmark, designs } => (
                "frontier",
                vec![("bench", Json::str(benchmark.name())), ("designs", rows_to_json(designs))],
            ),
            QueryResult::Ranking { benchmark, entries } => (
                "ranking",
                vec![("bench", Json::str(benchmark.name())), ("entries", rows_to_json(entries))],
            ),
            QueryResult::Delta { benchmark, base, alternative } => (
                "delta",
                vec![
                    ("bench", Json::str(benchmark.name())),
                    ("base", row_to_json(base)),
                    ("alternative", row_to_json(alternative)),
                    // Derived, recomputed on every serialization from the
                    // stored rows, so parse → serialize stays byte-identical.
                    (
                        "delta",
                        metrics_to_json(&Metrics {
                            bips: alternative.predicted.bips - base.predicted.bips,
                            watts: alternative.predicted.watts - base.predicted.watts,
                        }),
                    ),
                ],
            ),
            QueryResult::Sweep { benchmark, axis, rows } => (
                "sweep",
                vec![
                    ("bench", Json::str(benchmark.name())),
                    ("axis", Json::str(axis.name())),
                    ("rows", rows_to_json(rows)),
                ],
            ),
        };
        with_header("result_version", ty, fields)
    }

    /// Parses a result document.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, an unsupported `result_version`, an
    /// unknown `type`, unknown/duplicate fields at any level, or
    /// non-finite numbers.
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
        let (ctx, keys): (&str, &[&str]) = match doc.get("type").and_then(Json::as_str) {
            Some("point") => ("point result", &["result_version", "type", "bench", "row"]),
            Some("optima") => ("optima result", &["result_version", "type", "entries"]),
            Some("frontier") => {
                ("frontier result", &["result_version", "type", "bench", "designs"])
            }
            Some("ranking") => ("ranking result", &["result_version", "type", "bench", "entries"]),
            Some("delta") => (
                "delta result",
                &["result_version", "type", "bench", "base", "alternative", "delta"],
            ),
            Some("sweep") => ("sweep result", &["result_version", "type", "bench", "axis", "rows"]),
            _ => ("result", &["result_version", "type"]),
        };
        let f = Fields::new(doc, &ctx, keys)?;
        f.version("result_version", QUERY_SCHEMA_VERSION)?;
        let bench = || benchmark(f.str("bench")?, ctx);
        let row = |key: &str| row_from_json(f.get(key)?, format_args!("{ctx}.{key}"));
        Ok(match f.str("type")? {
            "point" => QueryResult::Point { benchmark: bench()?, row: row("row")? },
            "optima" => QueryResult::Optima {
                entries: f
                    .arr("entries")?
                    .iter()
                    .enumerate()
                    .map(|(i, e)| entry_from_json(e, format_args!("{ctx}.entries[{i}]")))
                    .collect::<Result<_, _>>()?,
            },
            "frontier" => QueryResult::Frontier {
                benchmark: bench()?,
                designs: rows_from_json(&f, "designs", ctx)?,
            },
            "ranking" => QueryResult::Ranking {
                benchmark: bench()?,
                entries: rows_from_json(&f, "entries", ctx)?,
            },
            "delta" => {
                // `delta` is derived from the rows; its shape is checked,
                // but the stored rows are the truth.
                metrics_from_json(f.get("delta")?, format_args!("{ctx}.delta"))?;
                QueryResult::Delta {
                    benchmark: bench()?,
                    base: row("base")?,
                    alternative: row("alternative")?,
                }
            }
            "sweep" => QueryResult::Sweep {
                benchmark: bench()?,
                axis: axis(f.str("axis")?, ctx)?,
                rows: rows_from_json(&f, "rows", ctx)?,
            },
            other => return Err(format!("unknown result type `{other}`")),
        })
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
        let dup_in_point = r#"{"query_version": 1, "type": "point", "bench": "ammp",
            "point": {"idx": [0,0,0,0,0,0,0], "fo4": 9, "fo4": 12}}"#;
        assert!(Query::parse(dup_in_point).unwrap_err().contains("duplicate field `fo4`"));
        let dup_in_constraint = r#"{"query_version": 1, "type": "constrained_optimum",
            "bench": null, "objective": "efficiency",
            "constraints": [{"axis": "dl1_kb", "min": null, "max": 64.0, "max": 8.0}],
            "stride": 1}"#;
        assert!(Query::parse(dup_in_constraint).unwrap_err().contains("duplicate field `max`"));
        let overflowing_bound = r#"{"query_version": 1, "type": "constrained_optimum",
            "bench": null, "objective": "efficiency",
            "constraints": [{"axis": "dl1_kb", "min": null, "max": 1e999}], "stride": 1}"#;
        assert!(Query::parse(overflowing_bound).unwrap_err().contains("finite number"));
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
        // 2^32 + 9 must not wrap around to the paper space's 9 FO4.
        let wrapped = Json::parse(r#"{"idx": [0,0,0,0,0,0,0], "fo4": 4294967305}"#).unwrap();
        assert!(point_from_json(&wrapped, "point").unwrap_err().contains("fit no space"));
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
