//! Properties of the offload wire format over untrusted input: the
//! request and JSON readers never panic on any line a client can send,
//! and every response the server can encode reads back unchanged.

use exec::serve::{OffloadRequest, OffloadResponse};
use obsv::json;
use proptest::prelude::*;

/// Fragments that steer generated text toward the parser's edges:
/// nesting, escapes, numbers at the limits of `f64` and `u64`, the
/// request's own keys and labels, and multi-byte characters.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    " ",
    "\\",
    "\\u",
    "\\u00e9",
    "\\n",
    "0",
    "-",
    ".",
    "e",
    "1e999",
    "-1e999",
    "18446744073709551616",
    "9007199254740993",
    "true",
    "null",
    "\"kind\"",
    "\"size\"",
    "\"seed\"",
    "\"OCR\"",
    "\"Linpack\"",
    "\"S\"",
    "\"L\"",
    "é",
    "→",
    "\u{1}",
    "\u{7f}",
];

/// Any char: the `u32` folded onto the scalar values.
fn char_of(n: u32) -> char {
    char::from_u32(n % 0x11_0000).unwrap_or('\u{fffd}')
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn readers_never_panic_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text);
        let _ = OffloadRequest::from_json(&text);
        let _ = OffloadResponse::from_json(&text);
    }

    #[test]
    fn readers_never_panic_on_json_like_text(
        picks in prop::collection::vec(0..TOKENS.len(), 0..96)
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = json::parse(&text);
        let _ = OffloadRequest::from_json(&text);
        let _ = OffloadResponse::from_json(&text);
    }

    #[test]
    fn requests_with_valid_fields_parse_whatever_the_seed(
        kind in 0..4usize,
        size in 0..3usize,
        seed in 0..(1u64 << 53),
    ) {
        let req = OffloadRequest {
            kind: workloads::WorkloadKind::ALL[kind],
            size: exec::SizeClass::ALL[size],
            seed,
        };
        prop_assert_eq!(OffloadRequest::from_json(&req.to_json()), Ok(req));
    }

    #[test]
    fn responses_round_trip_with_arbitrary_text(
        error in prop::collection::vec(any::<u32>(), 0..48),
        detail in prop::collection::vec(any::<u32>(), 0..48),
        low in prop::collection::vec(0u32..0x80, 0..48),
        checksum in any::<u64>(),
        ok in any::<bool>(),
        micros in 0..(1u64 << 53),
    ) {
        // `low` stays in ASCII, where the quotes, backslashes and
        // control characters the encoder must escape are dense.
        let resp = OffloadResponse {
            ok,
            error: error.into_iter().map(char_of).collect(),
            checksum,
            host: (micros % 1024) as usize,
            backend: low.iter().copied().map(char_of).collect(),
            queue_micros: micros,
            exec_micros: micros / 3,
            detail: low.into_iter().chain(detail).map(char_of).collect(),
        };
        let line = resp.to_json();
        prop_assert!(!line.contains('\n'), "a reply must stay on one line: {line:?}");
        prop_assert_eq!(OffloadResponse::from_json(&line), Ok(resp));
    }
}
