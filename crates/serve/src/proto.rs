//! JSON request/response bodies.
//!
//! Response bodies are written by one direct writer — text appended
//! to one buffer, no intermediate tree — because a forecast body is
//! encoded for every miss, memo answer and cache entry. Its output is
//! byte for byte what serializing the equivalent
//! `stwa_observe::Json` object gives (the tree version survives as the
//! test oracle below): members in a fixed order, numbers as the
//! shortest round-tripping f64, non-finite numbers as `null`, strings
//! through the tree's own escaper. Request bodies are rare and
//! untrusted, so parsing stays on `parse_json`.
//!
//! Forecast values are f32 but travel as JSON numbers (f64). The
//! writer prints the shortest round-tripping f64 representation
//! and f32→f64 is exact, so `f64 as f32` on the receiving side
//! recovers the original bits — forecasts survive the wire bitwise,
//! which is what lets the bench assert served == direct-eval exactly.

use std::fmt::Write;

use stwa_observe::{parse_json, write_json_string, Json};

/// A JSON number as `Json::Num` prints it: `Display` for f64 is the
/// shortest round-trip form, non-finite values become `null`.
fn push_num(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Body for a served forecast. `cache` records how the value was
/// produced: `"hit"` (worker-side cache), `"miss"` (the first forecast
/// a replica sees on a window: it ran the full forward), or `"memo"`
/// (a later forecast on that window, sliced from the replica's memo of
/// the same forward). `window_fp` names
/// the exact input window the values answer for, so a client can
/// verify any response — including cache hits — against a local
/// re-evaluation of that window.
pub fn forecast_body(
    sensor: u32,
    horizon: u32,
    version: u64,
    window_fp: u64,
    cache: &str,
    values: &[f32],
) -> Vec<u8> {
    // Typical body: ~100 bytes of members plus up to 20 per value.
    let mut out = String::with_capacity(112 + 20 * values.len());
    out.push_str("{\"sensor\":");
    push_num(&mut out, sensor as f64);
    out.push_str(",\"horizon\":");
    push_num(&mut out, horizon as f64);
    out.push_str(",\"version\":");
    push_num(&mut out, version as f64);
    // Fingerprints don't fit f64 exactly; ship as hex string.
    let _ = write!(out, ",\"window_fp\":\"{window_fp:016x}\",\"cache\":");
    write_json_string(&mut out, cache);
    out.push_str(",\"values\":[");
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_num(&mut out, v as f64);
    }
    out.push_str("]}");
    out.into_bytes()
}

/// Body acknowledging an accepted observation frame.
pub fn observe_ack(version: u64, window_fp: u64) -> Vec<u8> {
    let mut out = String::with_capacity(64);
    out.push_str("{\"ok\":true,\"version\":");
    push_num(&mut out, version as f64);
    let _ = write!(out, ",\"window_fp\":\"{window_fp:016x}\"}}");
    out.into_bytes()
}

pub fn error_body(message: &str) -> Vec<u8> {
    let mut out = String::with_capacity(16 + message.len());
    out.push_str("{\"error\":");
    write_json_string(&mut out, message);
    out.push('}');
    out.into_bytes()
}

/// Parse a `POST /observe` body: `{"frame": [f32; N*F]}` — one new
/// time step for every sensor, appended to the rolling window. Every
/// value must be finite *as f32*: `1e39` is a finite f64 that narrows
/// to infinity, and one such sample would sit in the rolling window
/// for H observes with every forecast over it serializing as `null`s.
pub fn parse_observe(body: &[u8], expect_len: usize) -> Result<Vec<f32>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = parse_json(text).map_err(|e| format!("bad JSON: {e}"))?;
    let frame = doc
        .get("frame")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing \"frame\" array".to_string())?;
    if frame.len() != expect_len {
        return Err(format!(
            "frame has {} values, expected {expect_len} (sensors x features)",
            frame.len()
        ));
    }
    frame
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let n = v
                .as_num()
                .ok_or_else(|| "frame holds a non-number".to_string())?;
            let x = n as f32;
            if x.is_finite() {
                Ok(x)
            } else {
                Err(format!("frame value {i} is not a finite f32"))
            }
        })
        .collect()
}

/// Pull the `values` array out of a forecast response body, bit-exact
/// (used by the client, tests, and the bench's correctness gate).
pub fn parse_forecast_values(body: &[u8]) -> Result<Vec<f32>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = parse_json(text).map_err(|e| format!("bad JSON: {e}"))?;
    let values = doc
        .get("values")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing \"values\" array".to_string())?;
    values
        .iter()
        .map(|v| {
            v.as_num()
                .map(|n| n as f32)
                .ok_or_else(|| "values holds a non-number".to_string())
        })
        .collect()
}

/// Pull a hex `window_fp` field out of a response body (forecast or
/// observe ack).
pub fn parse_window_fp(body: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = parse_json(text).map_err(|e| format!("bad JSON: {e}"))?;
    let fp = doc
        .get("window_fp")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"window_fp\"".to_string())?;
    u64::from_str_radix(fp, 16).map_err(|e| format!("bad window_fp: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The `Json`-tree encodings the direct writer replaced, kept as
    /// the oracle its bytes are pinned against.
    fn forecast_body_tree(
        sensor: u32,
        horizon: u32,
        version: u64,
        window_fp: u64,
        cache: &str,
        values: &[f32],
    ) -> Vec<u8> {
        let doc = Json::Obj(vec![
            ("sensor".to_string(), Json::Num(sensor as f64)),
            ("horizon".to_string(), Json::Num(horizon as f64)),
            ("version".to_string(), Json::Num(version as f64)),
            (
                "window_fp".to_string(),
                Json::Str(format!("{window_fp:016x}")),
            ),
            ("cache".to_string(), Json::Str(cache.to_string())),
            (
                "values".to_string(),
                Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect()),
            ),
        ]);
        doc.to_string().into_bytes()
    }

    fn observe_ack_tree(version: u64, window_fp: u64) -> Vec<u8> {
        let doc = Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("version".to_string(), Json::Num(version as f64)),
            (
                "window_fp".to_string(),
                Json::Str(format!("{window_fp:016x}")),
            ),
        ]);
        doc.to_string().into_bytes()
    }

    fn error_body_tree(message: &str) -> Vec<u8> {
        Json::Obj(vec![(
            "error".to_string(),
            Json::Str(message.to_string()),
        )])
        .to_string()
        .into_bytes()
    }

    /// Arbitrary f32 bit patterns, with the classes a uniform draw
    /// almost never lands on mixed in: signed zeros, subnormals,
    /// integer-valued floats, infinities and NaNs.
    fn awkward_f32() -> impl Strategy<Value = f32> {
        (0u8..8, any::<u32>()).prop_map(|(class, bits)| match class {
            0 => f32::from_bits(bits & 0x8000_0000),
            1 => f32::from_bits(bits & 0x807f_ffff),
            2 => (bits as i32 >> 8) as f32,
            3 => f32::from_bits(bits | 0x7f80_0000),
            4 => f32::from_bits((bits & 0x8000_0000) | 0x7f80_0000),
            _ => f32::from_bits(bits),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn forecast_body_matches_the_tree_encoding(
            ids in (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()),
            label in 0usize..3,
            small_version in any::<bool>(),
            values in vec(awkward_f32(), 0..=12),
        ) {
            let (sensor, horizon, version, window_fp) = ids;
            // Registry versions are small in practice; beyond 2^53 the
            // f64 member rounds, and the bytes must still agree.
            let version = if small_version { version % 1000 } else { version };
            let label = ["hit", "miss", "memo"][label];
            prop_assert_eq!(
                forecast_body(sensor, horizon, version, window_fp, label, &values),
                forecast_body_tree(sensor, horizon, version, window_fp, label, &values)
            );
            prop_assert_eq!(
                observe_ack(version, window_fp),
                observe_ack_tree(version, window_fp)
            );
        }

        #[test]
        fn error_body_matches_the_tree_encoding(
            chars in vec(any::<u32>(), 0..=24),
        ) {
            // Mostly ASCII including every control character, quotes
            // and backslashes; the rest anywhere in the BMP and beyond.
            let message: String = chars
                .iter()
                .filter_map(|&c| char::from_u32(if c % 4 == 0 { c % 0x11_0000 } else { c % 0x80 }))
                .collect();
            prop_assert_eq!(error_body(&message), error_body_tree(&message));
            // The same escaper writes the `cache` label.
            prop_assert_eq!(
                forecast_body(1, 2, 3, 4, &message, &[0.5]),
                forecast_body_tree(1, 2, 3, 4, &message, &[0.5])
            );
        }
    }

    #[test]
    fn non_finite_values_serialize_as_null_like_the_tree() {
        let values = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 7.0];
        let body = forecast_body(0, 5, 1, 2, "hit", &values);
        assert_eq!(body, forecast_body_tree(0, 5, 1, 2, "hit", &values));
        assert!(String::from_utf8(body).unwrap().ends_with("[null,null,null,-0,7]}"));
    }

    #[test]
    fn forecast_values_round_trip_bitwise() {
        // Awkward f32s: subnormal, negative zero, extremes, repeating
        // fractions — all must survive JSON and come back bit-equal.
        let values = [
            0.1f32,
            -0.0,
            1.0e-40,
            f32::MAX,
            f32::MIN_POSITIVE,
            -3.333_333_3,
            1.0 / 3.0,
        ];
        let body = forecast_body(5, 2, 17, 0xdead_beef_cafe_f00d, "miss", &values);
        let back = parse_forecast_values(&body).unwrap();
        assert_eq!(parse_window_fp(&body).unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} diverged over the wire");
        }
    }

    #[test]
    fn forecast_body_carries_metadata() {
        let body = forecast_body(5, 2, 17, 3, "hit", &[1.0]);
        let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("sensor").unwrap().as_num(), Some(5.0));
        assert_eq!(doc.get("horizon").unwrap().as_num(), Some(2.0));
        assert_eq!(doc.get("version").unwrap().as_num(), Some(17.0));
        assert_eq!(doc.get("cache").unwrap().as_str(), Some("hit"));
    }

    #[test]
    fn observe_parses_and_validates_length() {
        let body = br#"{"frame": [1.5, -2.25, 0.125]}"#;
        assert_eq!(parse_observe(body, 3).unwrap(), vec![1.5, -2.25, 0.125]);
        assert!(parse_observe(body, 4).unwrap_err().contains("expected 4"));
        assert!(parse_observe(b"{}", 3).unwrap_err().contains("frame"));
        assert!(parse_observe(b"not json", 3).unwrap_err().contains("JSON"));
        assert!(parse_observe(br#"{"frame": ["x"]}"#, 1)
            .unwrap_err()
            .contains("non-number"));
    }

    #[test]
    fn observe_rejects_values_that_are_not_finite_as_f32() {
        // `1e39` is a finite f64 that narrows to +inf; `1e999` already
        // parses to an infinite f64. Either would poison the window.
        for bad in ["1e39", "-1e39", "1e999", "-1e999"] {
            let body = format!("{{\"frame\": [0.5, {bad}, 1.0]}}");
            let err = parse_observe(body.as_bytes(), 3).unwrap_err();
            assert!(err.contains("value 1 is not a finite f32"), "{bad}: {err}");
        }
        // The largest finite f32 and a subnormal both pass.
        let ok = format!("{{\"frame\": [{}, 1e-40]}}", f32::MAX as f64);
        assert_eq!(parse_observe(ok.as_bytes(), 2).unwrap(), vec![f32::MAX, 1.0e-40]);
    }

    #[test]
    fn error_body_is_parseable_json() {
        let body = error_body("sensor out of range");
        let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("error").unwrap().as_str(), Some("sensor out of range"));
    }
}
