//! JSON request/response bodies, built on `stwa_observe::json`.
//!
//! Forecast values are f32 but travel as JSON numbers (f64). The
//! serializer prints the shortest round-tripping f64 representation
//! and f32→f64 is exact, so `f64 as f32` on the receiving side
//! recovers the original bits — forecasts survive the wire bitwise,
//! which is what lets the bench assert served == direct-eval exactly.

use stwa_observe::{parse_json, Json};

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

/// Body acknowledging an accepted observation frame.
pub fn observe_ack(version: u64, window_fp: u64) -> Vec<u8> {
    let doc = Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("version".to_string(), Json::Num(version as f64)),
        // Fingerprints don't fit f64 exactly; ship as hex string.
        (
            "window_fp".to_string(),
            Json::Str(format!("{window_fp:016x}")),
        ),
    ]);
    doc.to_string().into_bytes()
}

pub fn error_body(message: &str) -> Vec<u8> {
    Json::Obj(vec![(
        "error".to_string(),
        Json::Str(message.to_string()),
    )])
    .to_string()
    .into_bytes()
}

/// Parse a `POST /observe` body: `{"frame": [f32; N*F]}` — one new
/// time step for every sensor, appended to the rolling window.
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
        .map(|v| {
            v.as_num()
                .map(|n| n as f32)
                .ok_or_else(|| "frame holds a non-number".to_string())
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
    fn error_body_is_parseable_json() {
        let body = error_body("sensor out of range");
        let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("error").unwrap().as_str(), Some("sensor out of range"));
    }
}
