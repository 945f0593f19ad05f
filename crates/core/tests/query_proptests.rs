//! Property tests for the query wire format.
//!
//! `repro query` and any future service front-end exchange these
//! documents, so the canonical-bytes discipline must hold for every
//! query and result shape: serialize → parse → serialize is the
//! identity on both the value and the bytes, and documents with fields
//! the schema does not know are rejected rather than silently dropped
//! (a misspelled constraint must not become an unconstrained scan).
//! Hostile input — arbitrary bytes, truncated or mutated documents,
//! nesting deep enough to exhaust a recursive parser's stack — must come
//! back as `Err`, never as a panic or an abort.

mod common;

use common::{arbitrary_text, hostile_variants};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udse_core::oracle::Metrics;
use udse_core::query::{Axis, Constraint, OptimumEntry, PredictedPoint, Query, QueryResult};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_trace::Benchmark;

fn arbitrary_point(rng: &mut StdRng) -> DesignPoint {
    // Mix both spaces: their depth lists overlap, which is exactly what
    // the `fo4` disambiguation field must survive.
    let space = if rng.gen::<bool>() { DesignSpace::paper() } else { DesignSpace::exploration() };
    space.decode(rng.gen_range(0..space.len())).expect("index in range")
}

fn arbitrary_bench(rng: &mut StdRng) -> Benchmark {
    Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())]
}

/// A bound value that sometimes lands on an integer, exercising the
/// canonical writer's trailing-`.0` form alongside fractional floats.
fn arbitrary_bound(rng: &mut StdRng) -> f64 {
    if rng.gen::<bool>() {
        rng.gen_range(0..512) as f64
    } else {
        rng.gen_range(0.0..512.0)
    }
}

fn arbitrary_constraints(rng: &mut StdRng) -> Vec<Constraint> {
    (0..rng.gen_range(0usize..4))
        .map(|_| {
            let axis = Axis::ALL[rng.gen_range(0..Axis::ALL.len())];
            match rng.gen_range(0u8..3) {
                0 => Constraint::at_most(axis, arbitrary_bound(rng)),
                1 => Constraint::at_least(axis, arbitrary_bound(rng)),
                _ => Constraint::exactly(axis, arbitrary_bound(rng)),
            }
        })
        .collect()
}

fn arbitrary_query(rng: &mut StdRng) -> Query {
    match rng.gen_range(0u8..7) {
        0 => Query::point(arbitrary_bench(rng), arbitrary_point(rng)),
        1 => {
            let bench = rng.gen::<bool>().then(|| arbitrary_bench(rng));
            Query::optimum(bench, arbitrary_constraints(rng), rng.gen_range(1usize..2000))
        }
        2 => {
            let refs = (0..9).map(|_| rng.gen_range(0.001..10.0)).collect();
            Query::suite_optimum(refs, arbitrary_constraints(rng), rng.gen_range(1usize..2000))
        }
        3 => Query::pareto(
            arbitrary_bench(rng),
            arbitrary_constraints(rng),
            rng.gen_range(1usize..2000),
            rng.gen_range(1usize..200),
        ),
        4 => Query::top_k(
            arbitrary_bench(rng),
            arbitrary_constraints(rng),
            rng.gen_range(1usize..2000),
            rng.gen_range(1usize..50),
        ),
        5 => Query::what_if(arbitrary_bench(rng), arbitrary_point(rng), arbitrary_point(rng)),
        _ => Query::axis_sweep(
            arbitrary_bench(rng),
            arbitrary_point(rng),
            Axis::ALL[rng.gen_range(0..Axis::ALL.len())],
        ),
    }
}

fn arbitrary_metrics(rng: &mut StdRng) -> Metrics {
    Metrics { bips: rng.gen_range(0.01..8.0), watts: rng.gen_range(1.0..200.0) }
}

fn arbitrary_row(rng: &mut StdRng) -> PredictedPoint {
    PredictedPoint { point: arbitrary_point(rng), predicted: arbitrary_metrics(rng) }
}

fn arbitrary_rows(rng: &mut StdRng) -> Vec<PredictedPoint> {
    (0..rng.gen_range(0usize..12)).map(|_| arbitrary_row(rng)).collect()
}

fn arbitrary_result(rng: &mut StdRng) -> QueryResult {
    match rng.gen_range(0u8..6) {
        0 => QueryResult::Point { benchmark: arbitrary_bench(rng), row: arbitrary_row(rng) },
        1 => {
            let aggregate = rng.gen::<bool>();
            let entries = (0..rng.gen_range(1usize..10))
                .map(|_| OptimumEntry {
                    benchmark: (!aggregate).then(|| arbitrary_bench(rng)),
                    point: arbitrary_point(rng),
                    predicted: (!aggregate).then(|| arbitrary_metrics(rng)),
                    score: rng.gen_range(0.0001..100.0),
                })
                .collect();
            QueryResult::Optima { entries }
        }
        2 => {
            QueryResult::Frontier { benchmark: arbitrary_bench(rng), designs: arbitrary_rows(rng) }
        }
        3 => QueryResult::Ranking { benchmark: arbitrary_bench(rng), entries: arbitrary_rows(rng) },
        4 => QueryResult::Delta {
            benchmark: arbitrary_bench(rng),
            base: arbitrary_row(rng),
            alternative: arbitrary_row(rng),
        },
        _ => QueryResult::Sweep {
            benchmark: arbitrary_bench(rng),
            axis: Axis::ALL[rng.gen_range(0..Axis::ALL.len())],
            rows: arbitrary_rows(rng),
        },
    }
}

/// Splices an unknown field into the top-level object of a canonical
/// document, preserving everything else.
fn with_unknown_field(text: &str) -> String {
    let body = text.trim_start().strip_prefix('{').expect("canonical doc is an object");
    format!("{{\"bogus_field\": 1,{body}")
}

/// A document nested `depth` arrays (`[[…1…]]`) or objects
/// (`{"k":{"k":…1…}}`) deep.
fn deeply_nested(depth: usize, object: bool) -> String {
    let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
    format!("{}1{}", open.repeat(depth), close.repeat(depth))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn query_serialize_parse_serialize_is_identity(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query = arbitrary_query(&mut rng);
        let text = query.to_json().to_string_compact();
        let back = Query::parse(&text).expect("canonical query parses");
        prop_assert_eq!(&back, &query);
        // Byte identity: canonical serialization is a fixed point, for
        // both the compact wire form and the pretty CLI form.
        prop_assert_eq!(back.to_json().to_string_compact(), text);
        let pretty = query.to_json().to_string_pretty();
        let back_pretty = Query::parse(&pretty).expect("pretty query parses");
        prop_assert_eq!(back_pretty.to_json().to_string_pretty(), pretty);
    }

    #[test]
    fn result_serialize_parse_serialize_is_identity(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = arbitrary_result(&mut rng);
        let text = result.to_json().to_string_pretty();
        let back = QueryResult::parse(&text).expect("canonical result parses");
        prop_assert_eq!(&back, &result);
        prop_assert_eq!(back.to_json().to_string_pretty(), text);
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query_doc = with_unknown_field(&arbitrary_query(&mut rng).to_json().to_string_compact());
        let err = Query::parse(&query_doc).expect_err("unknown field must fail");
        prop_assert!(err.contains("bogus_field"), "error does not name the field: {}", err);
        let result_doc =
            with_unknown_field(&arbitrary_result(&mut rng).to_json().to_string_pretty());
        let err = QueryResult::parse(&result_doc).expect_err("unknown field must fail");
        prop_assert!(err.contains("bogus_field"), "error does not name the field: {}", err);
    }

    #[test]
    fn hostile_documents_are_rejected_without_panicking(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query = arbitrary_query(&mut rng).to_json().to_string_compact();
        let result = arbitrary_result(&mut rng).to_json().to_string_pretty();
        let garbage = arbitrary_text(&mut rng);
        let _ = Query::parse(&garbage);
        let _ = QueryResult::parse(&garbage);
        for doc in hostile_variants(&query, &mut rng, 16) {
            let _ = Query::parse(&doc);
        }
        for doc in hostile_variants(&result, &mut rng, 16) {
            let _ = QueryResult::parse(&doc);
        }
    }
}

#[test]
fn nesting_deeper_than_the_parser_bound_is_an_error() {
    for object in [false, true] {
        let doc = deeply_nested(100_000, object);
        assert!(udse_obs::json::Json::parse(&doc).is_err());
        assert!(Query::parse(&doc).is_err());
        assert!(QueryResult::parse(&doc).is_err());
    }
}
