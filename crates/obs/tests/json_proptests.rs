//! Property tests for the hand-rolled JSON writer/parser in `obs::json`.
//!
//! Manifests, quality baselines, and Chrome traces all flow through this
//! code, so the writer→parser pair must be lossless for every document
//! the writer can produce, and the parser must *fail cleanly* — never
//! panic — on the truncated files a killed run leaves behind.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udse_obs::Json;

/// Builds an arbitrary `Json` value, biased toward nesting near the root
/// and scalars near the leaves.
fn arbitrary_json(rng: &mut StdRng, depth: u32) -> Json {
    let choices = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0u32..choices) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen::<bool>()),
        // Cover the full i64 range, including extremes the writer must
        // keep exact (counters, seeds, timestamps).
        2 => Json::Int(rng.gen::<u64>() as i64),
        3 => Json::Float(arbitrary_float(rng)),
        4 => Json::Str(arbitrary_string(rng)),
        5 => {
            let n = rng.gen_range(0usize..5);
            Json::Arr((0..n).map(|_| arbitrary_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0usize..5);
            Json::obj((0..n).map(|i| {
                // Duplicate-free keys: the parser keeps pairs in order,
                // equality on Obj is positional.
                (format!("{}_{i}", arbitrary_string(rng)), arbitrary_json(rng, depth - 1))
            }))
        }
    }
}

/// Large, negative, fractional, and subnormal-adjacent — everything
/// except non-finite values, which the writer deliberately maps to
/// `null` (covered separately below).
fn arbitrary_float(rng: &mut StdRng) -> f64 {
    let magnitude = match rng.gen_range(0u32..4) {
        0 => rng.gen_range(0.0f64..1.0),
        1 => rng.gen_range(0.0f64..1e18),
        2 => rng.gen_range(0.0f64..1e-12),
        _ => rng.gen_range(0.0f64..1e300),
    };
    if rng.gen::<bool>() {
        -magnitude
    } else {
        magnitude
    }
}

/// Strings mixing plain text with every escape class the writer handles:
/// quotes, backslashes, control characters, and non-ASCII.
fn arbitrary_string(rng: &mut StdRng) -> String {
    const POOL: &[char] = &[
        'a',
        'Z',
        '9',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{8}',
        '\u{c}',
        '\u{1}',
        '\u{1f}',
        ' ',
        'µ',
        '→',
        '±',
        '不',
        '\u{10348}',
    ];
    let n = rng.gen_range(0usize..12);
    (0..n).map(|_| POOL[rng.gen_range(0usize..POOL.len())]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_documents_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = arbitrary_json(&mut rng, 3);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = Json::parse(&text);
            prop_assert!(back.is_ok(), "failed to parse {text:?}: {:?}", back.err());
            prop_assert_eq!(back.unwrap(), doc.clone());
        }
    }

    #[test]
    fn escape_heavy_strings_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = arbitrary_string(&mut rng);
        let doc = Json::obj([(s.clone(), Json::str(s.clone()))]);
        let back = Json::parse(&doc.to_string_compact()).expect("escaped string parses");
        prop_assert_eq!(back.get(&s).and_then(Json::as_str), Some(s.as_str()));
    }

    #[test]
    fn numbers_round_trip_exactly(int in 0u64..u64::MAX, seed in 0u64..1_000_000) {
        // Integers survive bit-exact (the Int/Float distinction is the
        // point of the hand-rolled writer)...
        let i = int as i64;
        prop_assert_eq!(Json::parse(&Json::Int(i).to_string_compact()), Ok(Json::Int(i)));
        // ...and finite floats re-parse to the identical bits, still
        // tagged Float even when integral.
        let mut rng = StdRng::seed_from_u64(seed);
        let f = arbitrary_float(&mut rng);
        match Json::parse(&Json::Float(f).to_string_compact()) {
            Ok(Json::Float(back)) => prop_assert_eq!(back.to_bits(), f.to_bits()),
            other => prop_assert!(false, "float {} re-parsed as {:?}", f, other),
        }
    }

    #[test]
    fn resource_sections_round_trip_for_arbitrary_measurements(seed in 0u64..1_000_000) {
        // The manifest v3 `resources` section flows through this same
        // writer/parser; the round trip must hold for any measurement,
        // including "probe unavailable" (None → null) fields.
        use udse_obs::manifest::ResourceTotals;
        let mut rng = StdRng::seed_from_u64(seed);
        // Counters serialize as JSON ints, so stay within i64 range.
        let counter = |rng: &mut StdRng| rng.gen::<u64>() >> 1;
        let totals = ResourceTotals {
            alloc_counting: rng.gen::<bool>(),
            allocs: counter(&mut rng),
            deallocs: counter(&mut rng),
            alloc_bytes: counter(&mut rng),
            peak_bytes: counter(&mut rng),
            peak_rss_kb: rng.gen::<bool>().then(|| counter(&mut rng)),
            cpu_seconds: rng.gen::<bool>().then(|| arbitrary_float(&mut rng).abs()),
        };
        let text = totals.to_json().to_string_compact();
        let parsed = Json::parse(&text).expect("canonical section parses");
        let back = ResourceTotals::from_json(&parsed).expect("object decodes");
        prop_assert_eq!(back, totals);
        // A null section is an error, not zeros.
        prop_assert!(ResourceTotals::from_json(&Json::Null).is_err());
    }

    #[test]
    fn truncated_documents_error_never_panic(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Top-level object, like every document the pipeline writes: any
        // strict prefix of the compact form is incomplete.
        let n = rng.gen_range(1usize..4);
        let doc = Json::obj(
            (0..n).map(|i| (format!("k{i}"), arbitrary_json(&mut rng, 2))),
        );
        let text = doc.to_string_compact();
        // Truncation points land anywhere; back up to a char boundary.
        let mut cut = rng.gen_range(0usize..text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &text[..cut];
        // Must return Err — a panic here would abort the test binary.
        prop_assert!(
            Json::parse(prefix).is_err(),
            "truncated document parsed: {prefix:?}"
        );
    }
}

#[test]
fn non_finite_floats_serialize_as_null_by_design() {
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let text = Json::obj([("v", Json::Float(v))]).to_string_compact();
        let back = Json::parse(&text).expect("null is valid");
        assert_eq!(back.get("v"), Some(&Json::Null));
    }
}
