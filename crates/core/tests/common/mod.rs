//! Helpers shared by the wire-format property tests: hostile inputs for
//! parsers that must reject cleanly and never panic.

use rand::rngs::StdRng;
use rand::Rng;

/// Bytes that steer a mutation toward JSON structure (brackets, quotes,
/// escapes, number syntax) rather than only breaking UTF-8.
const STRUCTURAL: &[u8] = b"{}[]\":,\\-+.eE0123456789 tfnu";

/// Up to 256 arbitrary bytes, lossily decoded (parsers take `&str`).
pub fn arbitrary_text(rng: &mut StdRng) -> String {
    let bytes: Vec<u8> = (0..rng.gen_range(0usize..256)).map(|_| rng.gen::<u32>() as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Hostile variants of a canonical document: every truncation at a char
/// boundary, plus `mutations` copies with one byte replaced — by a
/// structural byte or an arbitrary one.
pub fn hostile_variants(doc: &str, rng: &mut StdRng, mutations: usize) -> Vec<String> {
    let mut out: Vec<String> =
        (0..doc.len()).filter(|&n| doc.is_char_boundary(n)).map(|n| doc[..n].to_string()).collect();
    for _ in 0..mutations {
        let mut bytes = doc.as_bytes().to_vec();
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = if rng.gen::<bool>() {
            STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
        } else {
            rng.gen::<u32>() as u8
        };
        out.push(String::from_utf8_lossy(&bytes).into_owned());
    }
    out
}
