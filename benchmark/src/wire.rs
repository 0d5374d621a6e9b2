//! What the serve workloads put on the wire and how answers are
//! checked: seeded observation frames, request bytes, the client-side
//! window mirror, and the oracle that verifies a served body against a
//! direct evaluation of the window it declares.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use stwa_infer::InferSession;
use stwa_serve::cache::fingerprint_f32;
use stwa_serve::proto;
use stwa_tensor::Tensor;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dims {
    pub n: usize,
    pub h: usize,
    pub u: usize,
    pub f: usize,
}

impl Dims {
    pub fn window_len(&self) -> usize {
        self.n * self.h * self.f
    }
}

/// Observation frame `t` of the run seeded `seed`: `(seed, t, i)` mixed
/// through a 64-bit hash, so no two frames, and hence no two rolling
/// windows, repeat bitwise. A repeating generator would let the server
/// rightly answer from its cache where a workload counts on a miss.
pub fn frame(seed: u64, t: usize, len: usize) -> Vec<f32> {
    let base = seed
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
        .wrapping_add(t as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|i| {
            let x = base
                .wrapping_add(i as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let x = x ^ (x >> 31);
            // Top 24 bits -> exact f32 in [-1, 1).
            ((x >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        })
        .collect()
}

/// Shift every sensor's history one step left and append `frame`: the
/// same update the server applies on `POST /observe`.
pub fn apply_frame(window: &mut [f32], frame: &[f32], d: Dims) {
    let hf = d.h * d.f;
    for s in 0..d.n {
        let row = &mut window[s * hf..(s + 1) * hf];
        row.copy_within(d.f.., 0);
        row[hf - d.f..].copy_from_slice(&frame[s * d.f..(s + 1) * d.f]);
    }
}

pub fn get_forecast(sensor: u32, horizon: u32) -> Vec<u8> {
    format!("GET /forecast?sensor={sensor}&horizon={horizon} HTTP/1.1\r\nHost: stwa\r\n\r\n")
        .into_bytes()
}

pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: stwa\r\n\r\n").into_bytes()
}

pub fn post(target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {target} HTTP/1.1\r\nHost: stwa\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

pub fn post_observe(frame: &[f32]) -> Vec<u8> {
    let items: Vec<String> = frame.iter().map(|v| format!("{}", *v as f64)).collect();
    post(
        "/observe",
        format!("{{\"frame\": [{}]}}", items.join(", ")).as_bytes(),
    )
}

/// The `k`-th forecast query of the rotation over every sensor x
/// horizon pair.
pub fn rotation(k: u64, d: Dims) -> (u32, u32) {
    let sensor = (k % d.n as u64) as u32;
    let horizon = ((k / d.n as u64) % d.u as u64) as u32 + 1;
    (sensor, horizon)
}

/// The client's copy of the server's rolling window. Every frame the
/// workload sends goes through here first, so the oracle knows each
/// window by fingerprint before any answer for it can arrive.
pub struct Mirror {
    dims: Dims,
    seed: u64,
    window: Vec<f32>,
    next_frame: usize,
}

impl Mirror {
    pub fn new(dims: Dims, seed: u64, oracle: &mut Oracle) -> Mirror {
        let window = vec![0.0f32; dims.window_len()];
        oracle.register_window(&window);
        Mirror {
            dims,
            seed,
            window,
            next_frame: 0,
        }
    }

    /// Advance the window by the next seeded frame and return the
    /// `POST /observe` request that tells the server.
    pub fn observe(&mut self, oracle: &mut Oracle) -> Vec<u8> {
        let fr = frame(self.seed, self.next_frame, self.dims.n * self.dims.f);
        self.next_frame += 1;
        self.push(&fr, oracle)
    }

    /// Advance the window by a given frame.
    pub fn push(&mut self, frame: &[f32], oracle: &mut Oracle) -> Vec<u8> {
        apply_frame(&mut self.window, frame, self.dims);
        oracle.register_window(&self.window);
        post_observe(frame)
    }

    pub fn window(&self) -> &[f32] {
        &self.window
    }
}

const WINDOWS_REMEMBERED: usize = 1024;

/// Ground truth: a direct in-process evaluation, memoised per
/// `(version, window fingerprint)`.
pub struct Oracle {
    dims: Dims,
    sessions: HashMap<u64, InferSession>,
    windows: HashMap<u64, Vec<f32>>,
    /// Registration order of `windows`, for forgetting the oldest.
    order: VecDeque<u64>,
    full: HashMap<(u64, u64), Vec<f32>>,
    pub verified: u64,
    pub mismatches: u64,
}

impl Oracle {
    pub fn new(dims: Dims) -> Oracle {
        Oracle {
            dims,
            sessions: HashMap::new(),
            windows: HashMap::new(),
            order: VecDeque::new(),
            full: HashMap::new(),
            verified: 0,
            mismatches: 0,
        }
    }

    /// Register the session that stands for registry version `version`.
    pub fn add_version(&mut self, version: u64, session: InferSession) {
        self.sessions.insert(version, session);
    }

    pub fn register_window(&mut self, window: &[f32]) -> u64 {
        let fp = fingerprint_f32(window);
        if let Entry::Vacant(slot) = self.windows.entry(fp) {
            slot.insert(window.to_vec());
            self.order.push_back(fp);
            // An answer can only name a window that was current while
            // its request was in flight, a handful of observations ago
            // at most; older windows are dead weight in a run that
            // observes thousands of times.
            if self.order.len() > WINDOWS_REMEMBERED {
                let old = self.order.pop_front().expect("non-empty");
                self.windows.remove(&old);
                self.full.retain(|(_, fp), _| *fp != old);
            }
        }
        fp
    }

    /// The full `[N, U, F]` forecast of `version` on the window `fp`.
    pub fn full(&mut self, version: u64, fp: u64) -> Result<&[f32], String> {
        if !self.full.contains_key(&(version, fp)) {
            let window = self
                .windows
                .get(&fp)
                .ok_or_else(|| format!("unknown window fp {fp:016x}"))?;
            let session = self
                .sessions
                .get(&version)
                .ok_or_else(|| format!("unknown version {version}"))?;
            let d = self.dims;
            let x =
                Tensor::from_vec(window.clone(), &[1, d.n, d.h, d.f]).map_err(|e| e.to_string())?;
            let out = session.run(&x).map_err(|e| e.to_string())?;
            self.full.insert((version, fp), out.data().to_vec());
        }
        Ok(&self.full[&(version, fp)])
    }

    /// Check a served forecast body: re-encode the direct evaluation
    /// of the `(version, window)` it declares through the server's own
    /// `proto::forecast_body` and compare bytes. Equal bytes mean the
    /// values crossed the wire bitwise and the body is the one a replay
    /// through the public functions produces.
    pub fn verify(&mut self, body: &[u8], sensor: u32, horizon: u32) -> bool {
        self.verified += 1;
        let ok = self.check(body, sensor, horizon).unwrap_or(false);
        if !ok {
            self.mismatches += 1;
        }
        ok
    }

    fn check(&mut self, body: &[u8], sensor: u32, horizon: u32) -> Result<bool, String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let doc = stwa_observe::parse_json(text).map_err(|e| e.to_string())?;
        let version = doc
            .get("version")
            .and_then(|v| v.as_num())
            .ok_or("no version")? as u64;
        let label = doc
            .get("cache")
            .and_then(|v| v.as_str())
            .ok_or("no cache label")?
            .to_string();
        let fp = proto::parse_window_fp(body)?;
        let d = self.dims;
        let full = self.full(version, fp)?;
        let start = sensor as usize * d.u * d.f;
        let want = &full[start..start + horizon as usize * d.f];
        Ok(proto::forecast_body(sensor, horizon, version, fp, &label, want) == body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_depend_on_seed_and_step_and_stay_in_range() {
        let a = frame(1, 0, 64);
        assert_eq!(a, frame(1, 0, 64));
        assert_ne!(a, frame(2, 0, 64));
        assert_ne!(a, frame(1, 1, 64));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn rotation_visits_every_sensor_horizon_pair() {
        let d = Dims {
            n: 48,
            h: 12,
            u: 3,
            f: 1,
        };
        let seen: std::collections::HashSet<(u32, u32)> =
            (0..144).map(|k| rotation(k, d)).collect();
        assert_eq!(seen.len(), 144);
        assert!(seen.iter().all(|&(s, h)| s < 48 && (1..=3).contains(&h)));
    }

    #[test]
    fn apply_frame_shifts_each_sensor_row() {
        let d = Dims {
            n: 2,
            h: 3,
            u: 1,
            f: 1,
        };
        let mut w = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        apply_frame(&mut w, &[7.0, 8.0], d);
        assert_eq!(w, vec![2.0, 3.0, 7.0, 5.0, 6.0, 8.0]);
    }
}
