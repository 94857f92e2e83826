//! Versioned, checksummed binary serialisation of the bitmap encodings.
//!
//! The paper encodes pruned weights **offline** because weight sparsity is
//! static; this module is what makes that offline artifact durable: a
//! [`BitmapMatrix`] or [`TwoLevelBitmapMatrix`] round-trips through a small
//! hand-rolled little-endian container so a serving layer can persist its
//! encode cache on disk and skip the prune+encode warm-up after a restart.
//!
//! # Container layout
//!
//! ```text
//! magic   : 4 bytes  b"DSTC"
//! version : u16 LE   (FORMAT_VERSION)
//! kind    : u8       (1 = BitmapMatrix, 2 = TwoLevelBitmapMatrix)
//! length  : u64 LE   payload byte count
//! payload : `length` bytes (kind-specific, little-endian)
//! checksum: u64 LE   word-lane checksum over the payload (see [`checksum`])
//! ```
//!
//! A [`TwoLevelBitmapMatrix`] payload (version 4) is its header and its two
//! flat arrays, each written and read in bulk:
//!
//! ```text
//! rows, cols           : u64 LE each
//! tile_rows, tile_cols : u64 LE each
//! layout               : u8      (0 = column-major, 1 = row-major)
//! word count           : u64 LE  (bands x steps per band)
//! words                : u64 LE each, band by band, step by step
//! value count          : u64 LE
//! values               : f16 bits, u16 LE each, in the words' order
//! ```
//!
//! The starts, band bases and warp bitmap are not stored: the reader
//! recomputes them from the words. A [`BitmapMatrix`] payload (a baseline
//! format) keeps `f32` values.
//!
//! Decoding **never panics**: a truncated stream, wrong magic, unsupported
//! version, flipped payload bit or internally inconsistent payload all
//! surface as a [`CodecError`]. Readers fully validate the payload through
//! the same invariants the in-memory constructors enforce (for a two-level
//! payload: the shape, no bit past the matrix in a ragged band or a padding
//! step, one value per set bit, and no NaN but the encoder's quiet one), so
//! a decoded value is
//! indistinguishable from a freshly encoded one (`PartialEq` holds across a
//! round-trip).

use std::io::Write;

use dsstc_tensor::f16;

use crate::bit_matrix::BitMatrix;
use crate::bitmap::{BitmapMatrix, VectorLayout};
use crate::two_level::TwoLevelBitmapMatrix;

/// The 4-byte container magic.
pub const MAGIC: [u8; 4] = *b"DSTC";

/// Current container format version. Bump on any layout change; readers
/// reject every other version with [`CodecError::UnsupportedVersion`].
/// Version 2 replaced version 1's byte-serial FNV-1a with [`checksum`];
/// version 3 replaced the two-level payload's per-tile bitmaps with the
/// flat band-major word and value arrays; version 4 stores the two-level
/// values as the FP16 halves they are, two bytes a value where version 3
/// widened them to `f32`.
pub const FORMAT_VERSION: u16 = 4;

const KIND_BITMAP: u8 = 1;
const KIND_TWO_LEVEL: u8 = 2;

/// Why a serialised encoding could not be read (or written).
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The stream ended before the declared content did.
    Truncated,
    /// The stream does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The container was written by an unknown format version.
    UnsupportedVersion(u16),
    /// The container holds a different encoding kind than requested.
    WrongKind {
        /// The kind tag the reader expected.
        expected: u8,
        /// The kind tag found in the stream.
        found: u8,
    },
    /// The payload does not match its checksum (bit rot / partial write).
    ChecksumMismatch,
    /// The payload is internally inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Truncated => f.write_str("stream truncated before the declared end"),
            CodecError::BadMagic(found) => {
                write!(f, "bad magic {found:02x?}, expected {MAGIC:02x?}")
            }
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v}, this reader supports {FORMAT_VERSION}")
            }
            CodecError::WrongKind { expected, found } => {
                write!(f, "wrong encoding kind {found}, expected {expected}")
            }
            CodecError::ChecksumMismatch => f.write_str("payload checksum mismatch"),
            CodecError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CodecError::Truncated
        } else {
            CodecError::Io(e)
        }
    }
}

/// FNV-1a 64-bit hash of `bytes`: the cluster ring's placement hash
/// (`dsstc_serve::cluster`), not an integrity check — containers and wire
/// frames are sealed with [`checksum`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// xxHash64's lane round: a bijection of `acc` for every `word`, and of
/// `word` for every `acc`.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// The integrity checksum of the `DSTC` container and the wire frames.
///
/// Four independent lanes take the 8-byte little-endian words of each
/// 32-byte block through xxHash64's round (constants and round from
/// xxHash64; the output is not xxHash64's), so the multiplies of one block
/// overlap instead of waiting on each other as FNV-1a's do byte by byte.
/// The length, the lanes and the < 32-byte tail are then folded in one at
/// a time, and the result is avalanched. Every step is a bijection of the
/// state, so a change confined to one word — any single flipped bit —
/// always changes the checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = round(*lane, le_u64(&block[8 * i..8 * i + 8]));
        }
    }
    let mut hash = P5.wrapping_add(bytes.len() as u64);
    for lane in lanes {
        hash = (hash ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ round(0, le_u64(word))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    for &byte in words.remainder() {
        hash = (hash ^ u64::from(byte).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

// ---------------------------------------------------------------------------
// Little-endian payload cursor.
// ---------------------------------------------------------------------------

/// Byte-slice reader with bounds-checked little-endian primitives.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Malformed("length exceeds usize"))
    }

    /// The next `count` little-endian `N`-byte values, decoded slice-wise.
    /// The bytes must be present before anything is allocated, so a bogus
    /// huge count fails as `Truncated`.
    fn values<const N: usize, T>(
        &mut self,
        count: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let bytes = self.take(count.checked_mul(N).ok_or(CodecError::Truncated)?)?;
        Ok(bytes.chunks_exact(N).map(|c| from_le(c.try_into().expect("N-byte chunk"))).collect())
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `values` little-endian, slice-wise.
fn push_values<const N: usize, T: Copy>(
    out: &mut Vec<u8>,
    values: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    let start = out.len();
    out.resize(start + values.len() * N, 0);
    for (dst, &v) in out[start..].chunks_exact_mut(N).zip(values) {
        dst.copy_from_slice(&to_le(v));
    }
}

fn layout_tag(layout: VectorLayout) -> u8 {
    match layout {
        VectorLayout::ColumnMajor => 0,
        VectorLayout::RowMajor => 1,
    }
}

fn layout_from_tag(tag: u8) -> Result<VectorLayout, CodecError> {
    match tag {
        0 => Ok(VectorLayout::ColumnMajor),
        1 => Ok(VectorLayout::RowMajor),
        _ => Err(CodecError::Malformed("unknown vector layout tag")),
    }
}

// ---------------------------------------------------------------------------
// Payload encoders / decoders.
// ---------------------------------------------------------------------------

fn write_bit_matrix(out: &mut Vec<u8>, b: &BitMatrix) {
    push_u64(out, b.rows() as u64);
    push_u64(out, b.cols() as u64);
    push_values(out, b.words(), u64::to_le_bytes);
}

fn read_bit_matrix(cur: &mut Cursor<'_>) -> Result<BitMatrix, CodecError> {
    let rows = cur.usize()?;
    let cols = cur.usize()?;
    if rows == 0 || cols == 0 {
        return Err(CodecError::Malformed("bit matrix dimensions must be non-zero"));
    }
    let word_count = rows
        .checked_mul(cols.div_ceil(64))
        .ok_or(CodecError::Malformed("bit matrix dimensions overflow"))?;
    let words = cur.values(word_count, u64::from_le_bytes)?;
    BitMatrix::from_words(rows, cols, words).map_err(CodecError::Malformed)
}

fn write_bitmap_payload(out: &mut Vec<u8>, m: &BitmapMatrix) {
    out.push(layout_tag(m.layout()));
    write_bit_matrix(out, m.bitmap());
    push_u64(out, m.nnz() as u64);
    push_values(out, m.values(), f32::to_le_bytes);
}

fn read_bitmap_payload(cur: &mut Cursor<'_>) -> Result<BitmapMatrix, CodecError> {
    let layout = layout_from_tag(cur.u8()?)?;
    let bitmap = read_bit_matrix(cur)?;
    let nnz = cur.usize()?;
    let values = cur.values(nnz, f32::from_le_bytes)?;
    BitmapMatrix::from_parts(layout, bitmap, values).map_err(CodecError::Malformed)
}

fn write_two_level_payload(out: &mut Vec<u8>, m: &TwoLevelBitmapMatrix) {
    for dim in [m.rows(), m.cols(), m.tile_rows(), m.tile_cols()] {
        push_u64(out, dim as u64);
    }
    out.push(layout_tag(m.layout()));
    let (words, values) = m.arrays();
    push_u64(out, words.len() as u64);
    push_values(out, words, u64::to_le_bytes);
    push_u64(out, values.len() as u64);
    push_values(out, values, half_to_le_bytes);
}

fn half_to_le_bytes(h: f16) -> [u8; 2] {
    h.to_bits().to_le_bytes()
}

fn half_from_le_bytes(bytes: [u8; 2]) -> f16 {
    f16::from_bits(u16::from_le_bytes(bytes))
}

fn read_two_level_payload(cur: &mut Cursor<'_>) -> Result<TwoLevelBitmapMatrix, CodecError> {
    let (rows, cols) = (cur.usize()?, cur.usize()?);
    let tile = (cur.usize()?, cur.usize()?);
    let layout = layout_from_tag(cur.u8()?)?;
    let count = cur.usize()?;
    let words = cur.values(count, u64::from_le_bytes)?;
    let nnz = cur.usize()?;
    let values = cur.values(nnz, half_from_le_bytes)?;
    TwoLevelBitmapMatrix::from_parts((rows, cols), tile, layout, words, values)
        .map_err(CodecError::Malformed)
}

// ---------------------------------------------------------------------------
// Container framing.
// ---------------------------------------------------------------------------

fn write_container<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), CodecError> {
    w.write_all(&MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&checksum(payload).to_le_bytes())?;
    Ok(())
}

/// Splits the container at the front of `bytes` into its payload, checked
/// against its checksum, and the bytes after it.
fn split_container(bytes: &[u8], expected_kind: u8) -> Result<(&[u8], &[u8]), CodecError> {
    let mut cur = Cursor::new(bytes);
    let magic: [u8; 4] = cur.take(4)?.try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(cur.take(2)?.try_into().expect("2-byte slice"));
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind = cur.u8()?;
    if kind != expected_kind {
        return Err(CodecError::WrongKind { expected: expected_kind, found: kind });
    }
    let len = usize::try_from(cur.u64()?).map_err(|_| CodecError::Truncated)?;
    let payload = cur.take(len)?;
    if cur.u64()? != checksum(payload) {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok((payload, &bytes[cur.pos..]))
}

fn decode_payload<T>(
    payload: &[u8],
    read: impl FnOnce(&mut Cursor<'_>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut cur = Cursor::new(payload);
    let value = read(&mut cur)?;
    if !cur.finished() {
        return Err(CodecError::Malformed("trailing bytes after the payload"));
    }
    Ok(value)
}

impl BitmapMatrix {
    /// Serialises into the versioned, checksummed container.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        let mut payload = Vec::new();
        write_bitmap_payload(&mut payload, self);
        write_container(w, KIND_BITMAP, &payload)
    }

    /// Serialises into an owned byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Deserialises the container at the front of `bytes`, validating
    /// magic, version, checksum and every structural invariant; bytes after
    /// it are ignored. Never panics on hostile input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        decode_payload(split_container(bytes, KIND_BITMAP)?.0, read_bitmap_payload)
    }
}

impl TwoLevelBitmapMatrix {
    /// Serialises into the versioned, checksummed container.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        let mut payload = Vec::new();
        write_two_level_payload(&mut payload, self);
        write_container(w, KIND_TWO_LEVEL, &payload)
    }

    /// Serialises into an owned byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Deserialises the container at the front of `bytes` and returns it
    /// with the bytes after it, so a file of several containers is decoded
    /// from one buffer. Validates magic, version, checksum and every
    /// structural invariant; never panics on hostile input.
    pub fn take_from_bytes(bytes: &[u8]) -> Result<(Self, &[u8]), CodecError> {
        let (payload, rest) = split_container(bytes, KIND_TWO_LEVEL)?;
        Ok((decode_payload(payload, read_two_level_payload)?, rest))
    }

    /// [`Self::take_from_bytes`], ignoring any bytes after the container.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Ok(Self::take_from_bytes(bytes)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_tensor::{Matrix, SparsityPattern};

    fn sample_two_level(seed: u64) -> TwoLevelBitmapMatrix {
        let dense = Matrix::random_sparse(50, 70, 0.8, SparsityPattern::BlockUneven, seed);
        TwoLevelBitmapMatrix::encode(&dense, 16, 32, VectorLayout::RowMajor)
    }

    #[test]
    fn bitmap_roundtrips_bit_for_bit() {
        for layout in [VectorLayout::ColumnMajor, VectorLayout::RowMajor] {
            let dense = Matrix::random_sparse(37, 129, 0.7, SparsityPattern::Uniform, 3);
            let enc = BitmapMatrix::encode(&dense, layout);
            let back = BitmapMatrix::from_bytes(&enc.to_bytes()).expect("roundtrip");
            assert_eq!(back, enc, "layout {layout:?}");
            assert_eq!(back.decode(), dense);
        }
    }

    #[test]
    fn two_level_roundtrips_bit_for_bit() {
        let enc = sample_two_level(9);
        let back = TwoLevelBitmapMatrix::from_bytes(&enc.to_bytes()).expect("roundtrip");
        assert_eq!(back, enc);
        assert_eq!(back.decode(), enc.decode());
        assert_eq!(back.storage(), enc.storage());
    }

    #[test]
    fn all_zero_matrix_roundtrips() {
        let enc =
            TwoLevelBitmapMatrix::encode(&Matrix::zeros(64, 64), 32, 32, VectorLayout::ColumnMajor);
        let back = TwoLevelBitmapMatrix::from_bytes(&enc.to_bytes()).expect("roundtrip");
        assert_eq!(back, enc);
        assert_eq!(back.nnz(), 0);
    }

    #[test]
    fn truncation_at_every_prefix_is_a_clean_error() {
        let bytes = sample_two_level(4).to_bytes();
        // Every strict prefix must fail without panicking — mostly with
        // Truncated, never with success.
        for cut in 0..bytes.len() {
            let result = TwoLevelBitmapMatrix::from_bytes(&bytes[..cut]);
            assert!(result.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_two_level(5).to_bytes();
        bytes[0] = b'X';
        match TwoLevelBitmapMatrix::from_bytes(&bytes) {
            Err(CodecError::BadMagic(found)) => assert_eq!(&found[..1], b"X"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample_two_level(6).to_bytes();
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(
            TwoLevelBitmapMatrix::from_bytes(&bytes),
            Err(CodecError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let dense = Matrix::random_sparse(8, 8, 0.5, SparsityPattern::Uniform, 7);
        let bitmap = BitmapMatrix::encode(&dense, VectorLayout::RowMajor);
        assert!(matches!(
            TwoLevelBitmapMatrix::from_bytes(&bitmap.to_bytes()),
            Err(CodecError::WrongKind { expected: 2, found: 1 })
        ));
        let two_level = sample_two_level(7);
        assert!(matches!(
            BitmapMatrix::from_bytes(&two_level.to_bytes()),
            Err(CodecError::WrongKind { expected: 1, found: 2 })
        ));
    }

    /// Container bytes before the payload: magic, version, kind, length.
    const PAYLOAD_AT: usize = 4 + 2 + 1 + 8;

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = sample_two_level(8).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            TwoLevelBitmapMatrix::from_bytes(&bytes),
            Err(CodecError::ChecksumMismatch)
        ));
    }

    #[test]
    fn every_single_bit_payload_flip_fails_the_checksum() {
        let dense = Matrix::random_sparse(24, 64, 0.7, SparsityPattern::Uniform, 11);
        let bytes = TwoLevelBitmapMatrix::encode(&dense, 16, 32, VectorLayout::RowMajor).to_bytes();
        let payload_len = bytes.len() - PAYLOAD_AT - 8;
        // Long enough for many 32-byte blocks, and a tail after them.
        assert!(
            payload_len >= 1024 && !payload_len.is_multiple_of(32),
            "payload of {payload_len} bytes"
        );
        let mut doctored = bytes.clone();
        for at in PAYLOAD_AT..PAYLOAD_AT + payload_len {
            for bit in 0..8 {
                doctored[at] ^= 1 << bit;
                assert!(
                    matches!(
                        TwoLevelBitmapMatrix::from_bytes(&doctored),
                        Err(CodecError::ChecksumMismatch)
                    ),
                    "bit {bit} of payload byte {}",
                    at - PAYLOAD_AT
                );
                doctored[at] ^= 1 << bit;
            }
        }
        assert_eq!(doctored, bytes);
    }

    #[test]
    fn top_bits_of_two_words_in_one_lane_do_not_cancel() {
        let mut bytes = sample_two_level(12).to_bytes();
        // Payload words 0 and 4 share a lane; byte 7 of a little-endian
        // word holds its bit 63.
        let (first, second) = (PAYLOAD_AT + 7, PAYLOAD_AT + 32 + 7);
        // A word-wise FNV lane (`acc = (acc ^ word) * prime`) cancels this
        // pair: bit 63 of the product only follows bit 63 of its input.
        let fnv_lane = |bytes: &[u8]| {
            bytes[PAYLOAD_AT..].chunks_exact(32).fold(0xcbf2_9ce4_8422_2325u64, |acc, block| {
                (acc ^ le_u64(&block[..8])).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let before = fnv_lane(&bytes);
        bytes[first] ^= 0x80;
        bytes[second] ^= 0x80;
        assert_eq!(fnv_lane(&bytes), before);
        assert!(matches!(
            TwoLevelBitmapMatrix::from_bytes(&bytes),
            Err(CodecError::ChecksumMismatch)
        ));
    }

    /// The checksum is part of the on-disk and on-wire formats: these
    /// values may only change together with `FORMAT_VERSION` and
    /// `WIRE_VERSION`.
    #[test]
    fn checksum_is_pinned() {
        let pinned: [(usize, u64); 6] = [
            (0, 0xc162_0d0a_2dca_a9d2),
            (1, 0x03fa_0d18_e148_ff6c),
            (31, 0x28a1_affe_8ae7_2b54),
            (32, 0xeeb2_e800_a8e2_717b),
            (33, 0xb742_3b28_3dca_66d1),
            (100, 0x1d78_e51b_9190_3011),
        ];
        for (len, expected) in pinned {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(checksum(&bytes), expected, "checksum of {len} bytes");
        }
    }

    #[test]
    fn trailing_garbage_inside_the_payload_is_malformed() {
        let enc = sample_two_level(10);
        let mut bytes = Vec::new();
        let mut payload = Vec::new();
        write_two_level_payload(&mut payload, &enc);
        payload.push(0xAB); // one stray byte, checksum recomputed over it
        write_container(&mut bytes, KIND_TWO_LEVEL, &payload).unwrap();
        assert!(matches!(
            TwoLevelBitmapMatrix::from_bytes(&bytes),
            Err(CodecError::Malformed("trailing bytes after the payload"))
        ));
    }

    #[test]
    fn a_version_2_container_is_refused() {
        // Version 2 held a bitmap per tile, version 3 `f32` values; nothing
        // reads either any more.
        for old in [2u16, 3] {
            let mut bytes = sample_two_level(13).to_bytes();
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                TwoLevelBitmapMatrix::from_bytes(&bytes),
                Err(CodecError::UnsupportedVersion(v)) if v == old
            ));
        }
    }

    /// `enc`'s payload with `doctor` applied to its words and values, sealed
    /// with a fresh checksum: only the structural checks can refuse it.
    fn doctored(
        enc: &TwoLevelBitmapMatrix,
        doctor: impl FnOnce(&mut Vec<u64>, &mut Vec<f16>),
    ) -> Result<TwoLevelBitmapMatrix, CodecError> {
        let (mut words, mut values) = (enc.arrays().0.to_vec(), enc.arrays().1.to_vec());
        doctor(&mut words, &mut values);
        let mut payload = Vec::new();
        for dim in [enc.rows(), enc.cols(), enc.tile_rows(), enc.tile_cols()] {
            push_u64(&mut payload, dim as u64);
        }
        payload.push(layout_tag(enc.layout()));
        push_u64(&mut payload, words.len() as u64);
        push_values(&mut payload, &words, u64::to_le_bytes);
        push_u64(&mut payload, values.len() as u64);
        push_values(&mut payload, &values, half_to_le_bytes);
        let mut bytes = Vec::new();
        write_container(&mut bytes, KIND_TWO_LEVEL, &payload).unwrap();
        TwoLevelBitmapMatrix::from_bytes(&bytes)
    }

    #[test]
    fn an_inconsistent_payload_is_malformed() {
        // 50 x 70 row-major in 16 x 32 tiles: three bands (tile columns), the
        // last 6 columns wide; 64 steps a band, rows 50..64 padding.
        let enc = sample_two_level(14);
        assert!(doctored(&enc, |_, _| {}).is_ok_and(|back| back == enc));
        let malformed =
            |why: &str, doctor: &dyn Fn(&mut Vec<u64>, &mut Vec<f16>)| match doctored(&enc, doctor)
            {
                Err(CodecError::Malformed(got)) => assert_eq!(got, why),
                other => panic!("{why}: got {other:?}"),
            };
        let stray = "a step word has bits past the matrix bound";
        malformed(stray, &|words, values| {
            words[64 + 50] = 1; // a padding step of band 1
            values.insert(0, f16::ONE);
        });
        malformed(stray, &|words, values| {
            words[2 * 64] |= 1 << 6; // past the ragged band's 6 columns
            values.insert(0, f16::ONE);
        });
        malformed(stray, &|words, values| {
            words[3] |= 1 << 32; // past a 32-bit band
            values.insert(0, f16::ONE);
        });
        let population = "condensed value count does not match the words' population";
        malformed(population, &|_, values| values.push(f16::ONE));
        malformed(population, &|words, _| words[7] ^= 1);
        malformed("step word count does not match the tile grid", &|words, _| {
            words.push(0);
        });
        // The encoder's quiet NaN, of either sign, is a value like any
        // other; a signalling NaN or another payload is not.
        for nan in [0x7E00, 0xFE00] {
            let back = doctored(&enc, |_, values| values[3] = f16::from_bits(nan));
            assert!(back.is_ok_and(|back| back.arrays().1[3].to_bits() == nan), "{nan:#06x}");
        }
        for nan in [0x7C01, 0x7D00, 0xFDFF, 0x7E01, 0x7FFF, 0xFFFF] {
            malformed("a NaN value other than the encoder's quiet NaN", &|_, values| {
                values[5] = f16::from_bits(nan);
            });
        }
    }

    #[test]
    fn a_shape_the_layout_cannot_hold_is_malformed() {
        // A 65-bit vector, a zero tile or matrix dimension, and a step count
        // that overflows are refused whatever the arrays hold.
        for (rows, cols, tile_rows, tile_cols, why) in [
            (8, 80, 8, 65, "a condensed vector is longer than one 64-bit word"),
            (8, 8, 0, 8, "tile dimensions must be non-zero"),
            (0, 8, 8, 8, "matrix dimensions must be non-zero"),
            (usize::MAX, 64, 1, 64, "a band holds more values than its u32 starts count"),
        ] {
            let mut payload = Vec::new();
            for dim in [rows, cols, tile_rows, tile_cols] {
                push_u64(&mut payload, dim as u64);
            }
            payload.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
            let mut bytes = Vec::new();
            write_container(&mut bytes, KIND_TWO_LEVEL, &payload).unwrap();
            match TwoLevelBitmapMatrix::from_bytes(&bytes) {
                Err(CodecError::Malformed(got)) => assert_eq!(got, why),
                other => panic!("{why}: got {other:?}"),
            }
        }
    }

    #[test]
    fn containers_back_to_back_are_taken_one_at_a_time() {
        let (first, second) = (sample_two_level(15), sample_two_level(16));
        let mut bytes = first.to_bytes();
        bytes.extend_from_slice(&second.to_bytes());
        let (got, rest) = TwoLevelBitmapMatrix::take_from_bytes(&bytes).expect("first");
        assert_eq!(got, first);
        let (got, rest) = TwoLevelBitmapMatrix::take_from_bytes(rest).expect("second");
        assert_eq!((got, rest.len()), (second, 0));
    }

    #[test]
    fn errors_render_and_expose_io_sources() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::ChecksumMismatch.to_string().contains("checksum"));
        assert!(CodecError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(CodecError::Malformed("x").to_string().contains('x'));
        assert!(CodecError::BadMagic(*b"ABCD").to_string().contains("magic"));
        let io = CodecError::from(std::io::Error::other("backing store gone"));
        assert!(std::error::Error::source(&io).is_some());
        let eof = CodecError::from(std::io::Error::from(std::io::ErrorKind::UnexpectedEof));
        assert!(matches!(eof, CodecError::Truncated));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
