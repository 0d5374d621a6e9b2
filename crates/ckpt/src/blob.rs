//! Checksummed named-tensor blobs — the binary payload of a checkpoint.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "STWB" | u32 format | u64 tensor_count |
//!   per tensor: u64 name_len | name utf8 |
//!               u64 rank     | u64 dims[rank] |
//!               u64 data_bytes | f32 data[...] |
//!               u64 checksum   (FNV-1a over name, dims, and data bytes)
//! ```
//!
//! Two integrity layers: the manifest stores a byte count and an FNV-1a
//! checksum over the *whole file* (catches truncation and bit flips in
//! one comparison), and every tensor record carries its own checksum
//! (localizes the damage and survives manifest-less inspection).
//!
//! # One pass, no copies
//!
//! [`write_to`] streams records into any [`io::Write`] — a `BufWriter`
//! over the file in [`write_file`] — and computes each record's checksum
//! and the whole-file checksum in the same pass over the bytes it
//! writes. Names, dims and tensor data are hashed and written where they
//! lie, so a save never holds the file, or a second copy of a tensor.
//!
//! [`read_file`] reads the file into one buffer. One pass over it hashes
//! both checksums and decodes each tensor straight into its final
//! `Vec<f32>`. No record is trusted before the whole-file checksum
//! verifies: an error found while parsing is held until the rest of the
//! file is hashed, and a file whose byte count or checksum disagrees with
//! the manifest is refused as `Truncated` / `ChecksumMismatch` first —
//! the order `tests/corruption.rs` pins.
//!
//! The bytes on disk are those of the format above, unchanged since
//! format 1: the blobs in `checkpoint.rs`'s format pin hash to the
//! constants recorded before the writer streamed.

use crate::{io_err, CkptError};
use std::io::{self, Write};
use std::path::Path;

/// Blob format version written by this build.
pub const BLOB_FORMAT: u32 = 1;

const MAGIC: &[u8; 4] = b"STWB";
/// Ranks above this are structurally implausible for this workspace and
/// treated as corruption rather than allocated.
const MAX_RANK: usize = 8;
/// The smallest record: name length, rank, data length and checksum
/// with an empty name, no dims and no data.
const MIN_RECORD_BYTES: usize = 4 * 8;
/// Bytes hashed (and, on write, handed to the writer) per step: small
/// enough to stay in cache between the hash and the write or decode.
const CHUNK: usize = 64 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One tensor with its registration name — the unit the checkpoint
/// layer moves between [`stwa_nn::ParamStore`]s and disk.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedTensor {
    pub name: String,
    pub shape: Vec<usize>,
    pub data: Vec<f32>,
}

impl NamedTensor {
    /// Number of scalar elements implied by the shape.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FNV-1a 64-bit over `bytes` — the content checksum used throughout
/// the checkpoint layer. Not cryptographic; it detects truncation and
/// random corruption (a single flipped bit always changes the sum).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_continue(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash over `bytes`: hashing a concatenation equals
/// hashing its parts in turn.
fn fnv_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Continue the whole-file and one record's FNV-1a hash over the same
/// bytes in one pass. The two multiply chains are independent, so the
/// pair costs little more than one.
fn fnv_pair(file: &mut u64, record: &mut u64, bytes: &[u8]) {
    let (mut f, mut r) = (*file, *record);
    for &b in bytes {
        f = (f ^ b as u64).wrapping_mul(FNV_PRIME);
        r = (r ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    *file = f;
    *record = r;
}

#[cfg(not(target_endian = "little"))]
compile_error!("blob::le_bytes views f32 data as the format's little-endian bytes");

/// The format's bytes of `data`, where they lie: the blob stores f32
/// little-endian, which is their layout in memory on this target.
fn le_bytes(data: &[f32]) -> &[u8] {
    // Safety: the pointer and length come from a live `&[f32]`, so the
    // span is valid for reads for the borrow's lifetime; u8 has
    // alignment 1 and every byte of an f32 is initialised.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Streams records into `out`, keeping the whole-file checksum and byte
/// count of everything it writes.
struct Writer<W> {
    out: W,
    file: u64,
    bytes: u64,
}

impl<W: Write> Writer<W> {
    /// Bytes no record checksum covers: magic, counts, lengths, sums.
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file = fnv_continue(self.file, bytes);
        self.bytes += bytes.len() as u64;
        self.out.write_all(bytes)
    }

    /// Bytes a record checksum covers (name, dims, data), hashed into
    /// both sums a chunk at a time, each chunk just before it is written.
    fn put_covered(&mut self, record: &mut u64, bytes: &[u8]) -> io::Result<()> {
        for chunk in bytes.chunks(CHUNK) {
            fnv_pair(&mut self.file, record, chunk);
            self.out.write_all(chunk)?;
        }
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn record(&mut self, prefix: &str, t: &NamedTensor) -> io::Result<()> {
        let mut sum = FNV_OFFSET;
        self.put(&((prefix.len() + t.name.len()) as u64).to_le_bytes())?;
        self.put_covered(&mut sum, prefix.as_bytes())?;
        self.put_covered(&mut sum, t.name.as_bytes())?;
        self.put(&(t.shape.len() as u64).to_le_bytes())?;
        for &d in &t.shape {
            self.put_covered(&mut sum, &(d as u64).to_le_bytes())?;
        }
        self.put(&((t.data.len() * 4) as u64).to_le_bytes())?;
        self.put_covered(&mut sum, le_bytes(&t.data))?;
        self.put(&sum.to_le_bytes())
    }
}

/// Stream one blob into `out` and return `(bytes, checksum)` of what
/// was written — the manifest entry for it.
///
/// The blob holds each group's tensors in order, every name written
/// with its group's prefix (`""` for parameters, `"m."` / `"v."` for
/// the optimizer moments), so no caller renames by copying a tensor.
/// `out` is flushed before returning.
pub fn write_to<W: Write>(out: W, groups: &[(&str, &[NamedTensor])]) -> io::Result<(u64, u64)> {
    let mut w = Writer {
        out,
        file: FNV_OFFSET,
        bytes: 0,
    };
    let count: usize = groups.iter().map(|(_, ts)| ts.len()).sum();
    w.put(MAGIC)?;
    w.put(&BLOB_FORMAT.to_le_bytes())?;
    w.put(&(count as u64).to_le_bytes())?;
    for (prefix, tensors) in groups {
        for t in *tensors {
            w.record(prefix, t)?;
        }
    }
    w.out.flush()?;
    Ok((w.bytes, w.file))
}

/// Bounds-checked cursor over an in-memory blob that hashes every byte
/// it hands out into the whole-file sum; every read that would run off
/// the end becomes a typed `Truncated` error.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    path: &'a Path,
    file: u64,
}

impl<'a> Cursor<'a> {
    fn new(path: &'a Path, bytes: &'a [u8]) -> Cursor<'a> {
        Cursor {
            bytes,
            at: 0,
            path,
            file: FNV_OFFSET,
        }
    }

    /// Fail unless `n` more bytes remain.
    fn need(&self, n: usize) -> Result<(), CkptError> {
        if n > self.bytes.len() - self.at {
            return Err(CkptError::Truncated {
                path: self.path.to_path_buf(),
                detail: format!(
                    "need {n} bytes at offset {}, file has {}",
                    self.at,
                    self.bytes.len()
                ),
            });
        }
        Ok(())
    }

    fn advance(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        self.need(n)?;
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// The next `n` bytes, outside any record checksum.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let s = self.advance(n)?;
        self.file = fnv_continue(self.file, s);
        Ok(s)
    }

    /// The next `n` bytes, covered by the record checksum `record`.
    fn covered(&mut self, record: &mut u64, n: usize) -> Result<&'a [u8], CkptError> {
        let s = self.advance(n)?;
        fnv_pair(&mut self.file, record, s);
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A stored count or length as a `usize`, outside any record sum.
    fn length(&mut self) -> Result<usize, CkptError> {
        let v = self.u64()?;
        self.usize(v)
    }

    fn usize(&self, v: u64) -> Result<usize, CkptError> {
        usize::try_from(v).map_err(|_| CkptError::Format {
            path: self.path.to_path_buf(),
            detail: format!("length {v} does not fit this platform"),
        })
    }

    /// The whole-file checksum: what the cursor hashed, continued over
    /// the bytes it did not reach.
    fn file_checksum(&self) -> u64 {
        fnv_continue(self.file, &self.bytes[self.at..])
    }
}

/// Parse the records under `cur`, validating structure and every
/// per-tensor checksum, and decode each tensor once into its `Vec<f32>`.
/// A bit flip anywhere can reach this parser (the whole-file sum is
/// only compared afterwards), so every length is checked against the
/// bytes left before anything is reserved.
fn parse(cur: &mut Cursor<'_>) -> Result<Vec<NamedTensor>, CkptError> {
    let path = cur.path;
    let format_err = |detail: String| CkptError::Format {
        path: path.to_path_buf(),
        detail,
    };
    if cur.take(4)? != MAGIC {
        return Err(format_err("bad blob magic (expected 'STWB')".into()));
    }
    let format = cur.u32()?;
    if format != BLOB_FORMAT {
        return Err(CkptError::VersionSkew {
            path: path.to_path_buf(),
            found: format,
            supported: BLOB_FORMAT,
        });
    }
    let count = cur.length()?;
    // A count that cannot possibly fit in the remaining bytes is
    // corruption; refuse before reserving anything.
    if count > (cur.bytes.len() - cur.at) / MIN_RECORD_BYTES {
        return Err(format_err(format!("implausible tensor count {count}")));
    }
    let mut tensors = Vec::with_capacity(count);
    for i in 0..count {
        let mut sum = FNV_OFFSET;
        let name_len = cur.length()?;
        if name_len > cur.bytes.len() {
            return Err(format_err(format!(
                "tensor {i}: implausible name length {name_len}"
            )));
        }
        let name = String::from_utf8(cur.covered(&mut sum, name_len)?.to_vec())
            .map_err(|_| format_err(format!("tensor {i}: non-utf8 name")))?;
        let rank = cur.length()?;
        if rank > MAX_RANK {
            return Err(format_err(format!(
                "tensor '{name}': implausible rank {rank}"
            )));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            let d = cur.covered(&mut sum, 8)?;
            shape.push(cur.usize(u64::from_le_bytes(d.try_into().expect("8 bytes")))?);
        }
        let data_bytes = cur.length()?;
        let elems = shape.iter().try_fold(1usize, |a, &d| a.checked_mul(d));
        if elems.and_then(|e| e.checked_mul(4)) != Some(data_bytes) {
            return Err(format_err(format!(
                "tensor '{name}': shape {shape:?} does not imply the record's {data_bytes} data bytes"
            )));
        }
        cur.need(data_bytes)?;
        let mut data = Vec::with_capacity(data_bytes / 4);
        for _ in 0..data_bytes.div_ceil(CHUNK) {
            let raw = cur.covered(&mut sum, CHUNK.min(data_bytes - data.len() * 4))?;
            data.extend(
                raw.chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
            );
        }
        let stored = cur.u64()?;
        if stored != sum {
            return Err(CkptError::ChecksumMismatch {
                path: path.to_path_buf(),
                tensor: Some(name),
                expected: stored,
                actual: sum,
            });
        }
        tensors.push(NamedTensor { name, shape, data });
    }
    if cur.at != cur.bytes.len() {
        return Err(format_err(format!(
            "{} trailing bytes after the last tensor record",
            cur.bytes.len() - cur.at
        )));
    }
    Ok(tensors)
}

/// Write one blob of `groups` (see [`write_to`]) to `path` through a
/// `BufWriter`, and return `(bytes, checksum)` — the manifest entry for
/// the file. The file is never held in memory.
pub fn write_file(path: &Path, groups: &[(&str, &[NamedTensor])]) -> Result<(u64, u64), CkptError> {
    let file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
    let (bytes, checksum) =
        write_to(io::BufWriter::new(file), groups).map_err(|e| io_err(path, e))?;
    stwa_observe::counter!("ckpt.bytes_written").add(bytes);
    Ok((bytes, checksum))
}

/// Read and fully verify a blob file: the manifest's recorded byte
/// count first, then its whole-file checksum (truncation / bit flips),
/// then the per-tensor records — all three sums from one pass.
pub fn read_file(
    path: &Path,
    expected_bytes: u64,
    expected_checksum: u64,
) -> Result<Vec<NamedTensor>, CkptError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CkptError::MissingBlob(path.to_path_buf()))
        }
        Err(e) => return Err(io_err(path, e)),
    };
    if bytes.len() as u64 != expected_bytes {
        return Err(CkptError::Truncated {
            path: path.to_path_buf(),
            detail: format!(
                "manifest records {expected_bytes} bytes, file has {}",
                bytes.len()
            ),
        });
    }
    let mut cur = Cursor::new(path, &bytes);
    let parsed = parse(&mut cur);
    let actual = cur.file_checksum();
    if actual != expected_checksum {
        return Err(CkptError::ChecksumMismatch {
            path: path.to_path_buf(),
            tensor: None,
            expected: expected_checksum,
            actual,
        });
    }
    stwa_observe::counter!("ckpt.bytes_read").add(bytes.len() as u64);
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(tensors: &[NamedTensor]) -> Vec<u8> {
        let mut out = Vec::new();
        write_to(&mut out, &[("", tensors)]).unwrap();
        out
    }

    fn decode(path: &Path, bytes: &[u8]) -> Result<Vec<NamedTensor>, CkptError> {
        parse(&mut Cursor::new(path, bytes))
    }

    fn sample() -> Vec<NamedTensor> {
        vec![
            NamedTensor {
                name: "layer.w".into(),
                shape: vec![2, 3],
                data: vec![1.0, -2.5, 3.25, 0.0, f32::MIN_POSITIVE, -0.0],
            },
            NamedTensor {
                name: "layer.b".into(),
                shape: vec![3],
                data: vec![0.5, 1.5, -9.75],
            },
        ]
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let tensors = sample();
        let bytes = encode(&tensors);
        let back = decode(Path::new("mem"), &bytes).unwrap();
        assert_eq!(back.len(), tensors.len());
        for (a, b) in tensors.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.shape, b.shape);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn bad_magic_is_format_error() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert!(matches!(
            decode(Path::new("mem"), &bytes),
            Err(CkptError::Format { .. })
        ));
    }

    #[test]
    fn unknown_format_is_version_skew() {
        let mut bytes = encode(&sample());
        bytes[4] = 0xEE;
        assert!(matches!(
            decode(Path::new("mem"), &bytes),
            Err(CkptError::VersionSkew { .. })
        ));
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let res = decode(Path::new("mem"), &bytes[..cut]);
            assert!(
                matches!(
                    res,
                    Err(CkptError::Truncated { .. })
                        | Err(CkptError::Format { .. })
                        | Err(CkptError::ChecksumMismatch { .. })
                ),
                "cut at {cut} must fail with a typed error"
            );
        }
    }

    #[test]
    fn flipped_data_bit_fails_tensor_checksum() {
        let bytes = encode(&sample());
        // Flip one bit somewhere in the middle (inside tensor data).
        let mut bad = bytes.clone();
        let at = bytes.len() / 2;
        bad[at] ^= 0x10;
        let res = decode(Path::new("mem"), &bad);
        assert!(res.is_err(), "corruption must not decode");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&sample());
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            decode(Path::new("mem"), &bytes),
            Err(CkptError::Format { .. })
        ));
    }

    #[test]
    fn prefixed_groups_write_the_renamed_records() {
        let tensors = sample();
        let renamed: Vec<NamedTensor> = tensors
            .iter()
            .map(|t| NamedTensor {
                name: format!("m.{}", t.name),
                ..t.clone()
            })
            .collect();
        let mut out = Vec::new();
        let (bytes, sum) = write_to(&mut out, &[("m.", &tensors), ("", &[])]).unwrap();
        assert_eq!(out, encode(&renamed));
        assert_eq!((bytes, sum), (out.len() as u64, fnv1a64(&out)));
    }

    #[test]
    fn every_bit_flip_parses_to_a_typed_error() {
        // The parser runs before the whole-file sum is compared, so it
        // must meet every corrupted length without a panic or a huge
        // reservation.
        let bytes = encode(&sample());
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                assert!(
                    decode(Path::new("mem"), &bad).is_err(),
                    "flip of bit {bit} at byte {at} decoded"
                );
            }
        }
    }

    #[test]
    fn fnv_detects_single_bit_flips() {
        let data = b"the quick brown fox".to_vec();
        let base = fnv1a64(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(base, fnv1a64(&flipped));
            }
        }
    }
}
