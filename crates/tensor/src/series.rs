//! The one codec for float series in checkpoints: a block
//! `{"shape":[…],"data":"…"}` whose `data` is the standard (RFC 4648,
//! padded) base64 of the elements' little-endian `f32` bytes.
//!
//! [`crate::Tensor`]'s serde is this codec, and so is every other
//! checkpointed series whose length grows with the fleet (the run
//! ledger's per-participant round times, FedTrans's utility table).
//! Every bit pattern — NaN payloads, ±inf, −0.0, subnormals — survives
//! the round trip, at about 5.3 characters an element and no number
//! token to format or parse. [`from_value`] checks the shape's volume
//! against the text's length before it allocates, so a hostile block
//! (bad alphabet, bad or non-canonical padding, a length that is not a
//! multiple of 4 or disagrees with the shape, a decimal array) costs a
//! [`DeError`], never a panic or an allocation sized by the shape.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::{scratch, Shape};

/// The standard base64 alphabet (RFC 4648 §4).
const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside [`B64`] in [`B64_INV`].
const INVALID: u8 = 0xFF;

/// [`B64`] inverted: a character's 6-bit value, or [`INVALID`].
const B64_INV: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[B64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Appends the base64 of `bytes` (a whole number of 3-byte groups).
fn encode_groups(out: &mut String, bytes: &[u8]) {
    for g in bytes.chunks_exact(3) {
        let n = u32::from(g[0]) << 16 | u32::from(g[1]) << 8 | u32::from(g[2]);
        for shift in [18, 12, 6, 0] {
            out.push(char::from(B64[(n >> shift) as usize & 63]));
        }
    }
}

/// Decodes `chars` (a whole number of 4-character groups) into `out`,
/// three bytes a group; `false` if any character is outside [`B64`].
fn decode_groups(chars: &[u8], out: &mut [u8]) -> bool {
    let mut seen = 0;
    for (g, dst) in chars.chunks_exact(4).zip(out.chunks_exact_mut(3)) {
        let [a, b, c, d] = [g[0], g[1], g[2], g[3]].map(|ch| B64_INV[usize::from(ch)]);
        seen |= a | b | c | d;
        let n = u32::from(a) << 18 | u32::from(b) << 12 | u32::from(c) << 6 | u32::from(d);
        dst.copy_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    seen < 64
}

/// Little-endian bytes of up to three floats, zero-filled.
fn le_bytes(xs: &[f32]) -> [u8; 12] {
    let mut bytes = [0; 12];
    for (dst, x) in bytes.chunks_exact_mut(4).zip(xs) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
    bytes
}

/// Fills `out` from little-endian bytes, four a float.
fn from_le_bytes(bytes: &[u8], out: &mut [f32]) {
    for (x, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// Base64 of `data`'s little-endian bytes: 16 characters per 3 floats.
fn encode(data: &[f32]) -> String {
    let mut out = String::with_capacity(4 * (4 * data.len()).div_ceil(3));
    let blocks = data.chunks_exact(3);
    let tail = blocks.remainder();
    for block in blocks {
        encode_groups(&mut out, &le_bytes(block));
    }
    // 0, 4 or 8 tail bytes: encode them zero-filled to a whole group,
    // then pad over the characters that carry only fill.
    let n = 4 * tail.len();
    encode_groups(&mut out, &le_bytes(tail)[..n.div_ceil(3) * 3]);
    let pad = (3 - n % 3) % 3;
    out.truncate(out.len() - pad);
    out.extend(std::iter::repeat_n('=', pad));
    out
}

/// An error about a tensor's `data` field.
fn data_error(detail: impl std::fmt::Display) -> DeError {
    DeError::new(format!("Tensor field `data`: {detail}"))
}

/// The error for `text`, which holds a character outside [`B64`]
/// before its `pad` trailing `=`.
fn alphabet_error(text: &[u8], pad: usize) -> DeError {
    let body = &text[..text.len() - pad];
    match body
        .iter()
        .position(|&ch| B64_INV[usize::from(ch)] == INVALID)
    {
        Some(at) => data_error(format!(
            "byte 0x{:02x} at offset {at} is not in the base64 alphabet",
            body[at]
        )),
        None => data_error("not base64"),
    }
}

/// Decodes `text` (validated: `pad` trailing `=`, length
/// `4·⌈4·len/3⌉`) straight into `data`.
fn decode_into(text: &[u8], pad: usize, data: &mut [f32]) -> std::result::Result<(), DeError> {
    let (blocks, tail) = data.split_at_mut(data.len() / 3 * 3);
    let (head, rest) = text.split_at(blocks.len() / 3 * 16);
    let mut bytes = [0; 12];
    for (chars, block) in head.chunks_exact(16).zip(blocks.chunks_exact_mut(3)) {
        if !decode_groups(chars, &mut bytes) {
            return Err(alphabet_error(text, pad));
        }
        from_le_bytes(&bytes, block);
    }
    // The last group decodes with its `=` read as `A` (zero); the fill
    // bytes that produces must be zero too, or the text is not the
    // canonical encoding of any tensor.
    let mut chars = [b'A'; 12];
    chars[..rest.len() - pad].copy_from_slice(&rest[..rest.len() - pad]);
    let mut bytes = [0; 9];
    if !decode_groups(&chars[..rest.len()], &mut bytes) {
        return Err(alphabet_error(text, pad));
    }
    let n = 4 * tail.len();
    if bytes[n..].iter().any(|&b| b != 0) {
        return Err(data_error("bad padding: non-zero bits after the last byte"));
    }
    from_le_bytes(&bytes, tail);
    Ok(())
}

/// The block for `data` laid out as `dims`.
///
/// # Panics
///
/// Panics if `data.len()` is not the volume of `dims`.
pub fn to_value(dims: &[usize], data: &[f32]) -> Value {
    assert_eq!(
        dims.iter().product::<usize>(),
        data.len(),
        "series of {} floats cannot have shape {dims:?}",
        data.len()
    );
    Value::Object(vec![
        ("shape".to_owned(), dims.to_value()),
        ("data".to_owned(), Value::String(encode(data))),
    ])
}

/// Decodes a block [`to_value`] wrote into its shape and elements (a
/// buffer from [`crate::scratch`]).
///
/// # Errors
///
/// A [`DeError`] naming `shape` or `data` for anything that is not the
/// canonical encoding of some series; nothing is allocated before the
/// shape and the text's length agree.
pub fn from_value(value: &Value) -> Result<(Shape, Vec<f32>), DeError> {
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| DeError::new(format!("Tensor: missing field `{key}`")))
    };
    let shape = Shape::from_value(field("shape")?)
        .map_err(|e| DeError::new(format!("Tensor field `shape`: {e}")))?;
    let text = field("data")?
        .as_str()
        .ok_or_else(|| data_error("expected a base64 string"))?
        .as_bytes();
    let bytes = shape
        .dims()
        .iter()
        .try_fold(4usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| {
            DeError::new(format!(
                "Tensor field `shape`: {shape} overflows the address space"
            ))
        })?;
    if !text.len().is_multiple_of(4) {
        return Err(data_error(format!(
            "length {} is not a multiple of 4",
            text.len()
        )));
    }
    let pad = text.iter().rev().take_while(|&&ch| ch == b'=').count();
    if pad > 2 {
        return Err(data_error(format!("bad padding: {pad} trailing `=`")));
    }
    let decoded = text.len() / 4 * 3 - pad;
    if decoded != bytes {
        return Err(data_error(format!(
            "decodes to {decoded} bytes, shape {shape} needs {bytes}"
        )));
    }
    let mut data = scratch::take(shape.volume());
    decode_into(text, pad, &mut data)?;
    Ok((shape, data))
}
