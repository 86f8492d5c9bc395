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

/// The 16 characters of three floats' 12 little-endian bytes.
fn encode_block(block: &[f32; 3]) -> [u8; 16] {
    // The bytes in text order, as three big-endian words.
    let [hi, mid, lo] = block.map(|x| x.to_bits().swap_bytes());
    let groups = [hi >> 8, (hi << 16 | mid >> 16), (mid << 8 | lo >> 24), lo];
    let mut chars = [0; 16];
    for (dst, g) in chars.as_chunks_mut::<4>().0.iter_mut().zip(groups) {
        *dst = [18, 12, 6, 0].map(|shift| B64[(g >> shift) as usize & 63]);
    }
    chars
}

/// The three floats of 16 characters, and the OR of the characters'
/// table entries (at least 64 if any is outside [`B64`]).
fn decode_block(chars: &[u8; 16]) -> ([f32; 3], u8) {
    let mut seen = 0;
    let mut groups = [0u32; 4];
    for (n, group) in groups.iter_mut().zip(chars.as_chunks::<4>().0) {
        for &ch in group {
            let v = B64_INV[usize::from(ch)];
            seen |= v;
            *n = *n << 6 | u32::from(v);
        }
    }
    let [a, b, c, d] = groups;
    let words = [a << 8 | b >> 16, b << 16 | c >> 8, c << 24 | d];
    (words.map(|w| f32::from_bits(w.swap_bytes())), seen)
}

/// Base64 of `data`'s little-endian bytes, written into a buffer of
/// its exact length, 16 characters per block of 3 floats.
///
/// # Panics
///
/// Never: every byte written is an ASCII character.
fn encode(data: &[f32]) -> String {
    let mut out = vec![0; 4 * (4 * data.len()).div_ceil(3)];
    let (blocks, tail) = data.as_chunks::<3>();
    let (head, rest) = out.split_at_mut(16 * blocks.len());
    for (chars, block) in head.as_chunks_mut::<16>().0.iter_mut().zip(blocks) {
        *chars = encode_block(block);
    }
    // 0, 1 or 2 floats left: encode them zero-filled to a whole block,
    // keep the groups that hold their bytes, and pad over the
    // characters that carry only fill.
    let mut last = [0.0; 3];
    last[..tail.len()].copy_from_slice(tail);
    let len = rest.len();
    rest.copy_from_slice(&encode_block(&last)[..len]);
    let pad = (3 - 4 * tail.len() % 3) % 3;
    rest[len - pad..].fill(b'=');
    String::from_utf8(out).expect("base64 is ASCII")
}

/// An error about a series block's `data` field.
fn data_error(detail: impl std::fmt::Display) -> DeError {
    DeError::new(detail.to_string()).within("data")
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
/// `4·⌈4·len/3⌉`) straight into `data`, 16 characters a block of 3
/// floats.
fn decode_into(text: &[u8], pad: usize, data: &mut [f32]) -> std::result::Result<(), DeError> {
    let (blocks, tail) = data.as_chunks_mut::<3>();
    let (head, rest) = text.split_at(16 * blocks.len());
    let mut seen = 0;
    for (chars, block) in head.as_chunks::<16>().0.iter().zip(blocks) {
        let (floats, six) = decode_block(chars);
        *block = floats;
        seen |= six;
    }
    // The last block decodes with its `=` and the characters past the
    // text read as `A` (zero); the fill that produces must be zero too,
    // or the text is not the canonical encoding of any series.
    let mut chars = [b'A'; 16];
    chars[..rest.len() - pad].copy_from_slice(&rest[..rest.len() - pad]);
    let (last, six) = decode_block(&chars);
    if (seen | six) >= 64 {
        return Err(alphabet_error(text, pad));
    }
    if last[tail.len()..].iter().any(|x| x.to_bits() != 0) {
        return Err(data_error("bad padding: non-zero bits after the last byte"));
    }
    tail.copy_from_slice(&last[..tail.len()]);
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
            .ok_or_else(|| DeError::new(format!("missing field `{key}`")))
    };
    let shape = Shape::from_value(field("shape")?).map_err(|e| e.within("shape"))?;
    let text = field("data")?
        .as_str()
        .ok_or_else(|| data_error("expected a base64 string"))?
        .as_bytes();
    let bytes = shape
        .dims()
        .iter()
        .try_fold(4usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| {
            DeError::new(format!("{shape} overflows the address space")).within("shape")
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
