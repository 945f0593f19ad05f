//! Hostile input for the run-manifest reader.
//!
//! `udse-inspect diff` gates CI on manifests read back from disk, so a
//! torn or corrupted file must come back from [`ParsedManifest::parse`]
//! as `Err`, never as a panic. The canonical document here is a small
//! real v3 manifest written by [`RunManifest`]: every truncation of it,
//! every copy with one required field deleted, and random single-byte
//! mutations are fed back in, along with arbitrary bytes.

mod common;

use std::sync::OnceLock;

use common::{arbitrary_text, hostile_variants};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use udse_obs::manifest::SCHEMA_VERSION;
use udse_obs::{metrics, quality, span, Json, ParsedManifest, QualityRecord, RunManifest};

/// A small manifest from the real writer, with every section populated:
/// config, artifacts, a counter, two gauges, a span, a quality record,
/// and (under any allocator) the resources section.
fn small_manifest() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        metrics::counter("hostile.sim.instructions").add(40_500);
        metrics::gauge("hostile.sweep.designs_per_sec").set(1.25e7);
        metrics::gauge("hostile.fit.seconds").set(0.5);
        {
            let _g = span::enter("hostile_fit");
        }
        quality::record(QualityRecord::from_signed_errors("hostile.pooled.bips", &[0.02, -0.01]));
        let mut m = RunManifest::new("repro");
        m.set("quick", Json::Bool(true));
        m.set("seed", Json::Int(2007));
        m.record_artifact("fig1", 0.125);
        m.to_json().to_string_pretty()
    })
}

/// Parses `text`, turning a panic into a test failure that names the
/// offending input.
fn parse_or_report(text: &str) -> Result<ParsedManifest, String> {
    std::panic::catch_unwind(|| ParsedManifest::parse(text))
        .unwrap_or_else(|_| panic!("ParsedManifest::parse panicked on {text:?}"))
}

#[test]
fn the_canonical_document_is_a_v3_manifest() {
    let parsed = parse_or_report(small_manifest()).expect("canonical manifest parses");
    assert_eq!(parsed.schema_version, SCHEMA_VERSION);
    assert_eq!(parsed.artifact_wall_seconds("fig1"), Some(0.125));
    assert!(parsed.quality_record("hostile.pooled.bips").is_some());
    assert_eq!(parsed.metric("hostile.fit.seconds").and_then(Json::as_f64), Some(0.5));
}

/// Every copy of `doc` with one object field deleted, at any depth,
/// paired with the path of the deleted field.
fn deletions(doc: &Json) -> Vec<(Vec<String>, Json)> {
    let mut out = Vec::new();
    match doc {
        Json::Obj(pairs) => {
            for (i, (key, value)) in pairs.iter().enumerate() {
                let mut without = pairs.clone();
                without.remove(i);
                out.push((vec![key.clone()], Json::Obj(without)));
                for (mut path, inner) in deletions(value) {
                    let mut with = pairs.clone();
                    with[i].1 = inner;
                    path.insert(0, key.clone());
                    out.push((path, Json::Obj(with)));
                }
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                for (mut path, inner) in deletions(item) {
                    let mut with = items.clone();
                    with[i] = inner;
                    path.insert(0, format!("[{i}]"));
                    out.push((path, Json::Arr(with)));
                }
            }
        }
        _ => {}
    }
    out
}

#[test]
fn deleting_any_required_field_is_rejected() {
    let doc = Json::parse(small_manifest()).expect("canonical manifest is JSON");
    let mut required = 0;
    for (path, text) in deletions(&doc).into_iter().map(|(p, d)| (p, d.to_string_pretty())) {
        // Config and metric entries are free-form, and spans and quality
        // records are keyed maps whose entries may come and go; every
        // other field the writer emits (the sections, and the fields of
        // artifacts, spans, quality records and resources) is required.
        let free_form = match path[0].as_str() {
            "config" | "metrics" => path.len() > 1,
            "spans" | "quality" => path.len() == 2,
            _ => false,
        };
        match parse_or_report(&text) {
            Ok(_) if free_form => {}
            Ok(_) => panic!("deleting {} was accepted", path.join(".")),
            Err(e) if free_form => panic!("deleting free-form {} failed: {e}", path.join(".")),
            Err(_) => required += 1,
        }
    }
    // Ten sections, two artifact fields, six per span, seven per quality
    // record, seven resources fields: the walk covered all of them.
    assert!(required >= 10 + 2 + 6 + 7 + 7, "only {required} required fields deleted");
}

#[test]
fn every_truncation_is_rejected() {
    let doc = small_manifest();
    let body = doc.trim_end();
    // Every strict prefix of the document body is incomplete JSON.
    for cut in (0..body.len()).filter(|&n| body.is_char_boundary(n)) {
        let err = parse_or_report(&body[..cut]).err();
        assert!(err.is_some_and(|e| !e.is_empty()), "prefix of {cut} bytes was accepted");
    }
}

#[test]
fn nesting_deeper_than_the_parser_bound_is_rejected() {
    let deep = format!("{{\"schema_version\": 3, \"spans\": {}", "[".repeat(100_000));
    assert!(parse_or_report(&deep).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_are_rejected(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = arbitrary_text(&mut rng);
        prop_assert!(parse_or_report(&text).is_err(), "accepted {:?}", text);
    }

    #[test]
    fn mutated_manifests_never_panic(seed in 0u64..1_000_000) {
        // A one-byte change may still leave a valid manifest (a digit
        // for a digit), so only clean handling is required: an `Err`
        // says why, and nothing panics.
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = small_manifest();
        let truncations = (0..doc.len()).filter(|&n| doc.is_char_boundary(n)).count();
        let mutated = hostile_variants(doc, &mut rng, 16).split_off(truncations);
        for text in mutated {
            if let Err(e) = parse_or_report(&text) {
                prop_assert!(!e.is_empty());
            }
        }
    }
}
