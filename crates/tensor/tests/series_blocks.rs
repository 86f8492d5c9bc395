//! The block coder behind `ft_tensor::series` against a per-group
//! reference (standard padded base64 of the little-endian bytes, one
//! character at a time): the same text for every length 0..=64 and
//! 100 003 over NaN payloads, ±inf, −0.0 and subnormals, every bit
//! back, and the reference's error for each single-byte corruption —
//! on every kernel tier this host has.

use ft_tensor::{series, simd, Settings};
use serde::Value;

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Bit patterns a decimal format loses: NaN payloads, ±inf, −0.0,
/// subnormals, and the largest finite value.
const EDGES: [u32; 9] = [
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_1234,
    0xff80_0001,
    0x8000_0000,
    0x0000_0001,
    0x807f_ffff,
    0x7f7f_ffff,
    0x3dcc_cccd,
];

/// `n` elements: the edge patterns interleaved with xorshift bits.
fn elements(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            f32::from_bits(if i % 2 == 0 {
                EDGES[i / 2 % EDGES.len()]
            } else {
                s as u32
            })
        })
        .collect()
}

/// The per-group reference: three bytes to four characters, `=` over
/// the characters past the last byte.
fn reference_encode(data: &[f32]) -> String {
    let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
    let mut out = String::new();
    for g in bytes.chunks(3) {
        let n = g
            .iter()
            .enumerate()
            .fold(0u32, |n, (i, &b)| n | u32::from(b) << (16 - 8 * i));
        for (i, shift) in [18, 12, 6, 0].into_iter().enumerate() {
            let ch = if i <= g.len() {
                B64[(n >> shift) as usize & 63]
            } else {
                b'='
            };
            out.push(char::from(ch));
        }
    }
    out
}

/// The reference decoder for a `[len]` block, with the codec's checks
/// in its order and its error text.
fn reference_decode(text: &str, len: usize) -> Result<Vec<u32>, String> {
    let fail = |detail: String| Err(format!("deserialization error: field `data`: {detail}"));
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return fail(format!("length {} is not a multiple of 4", text.len()));
    }
    let pad = text.iter().rev().take_while(|&&ch| ch == b'=').count();
    if pad > 2 {
        return fail(format!("bad padding: {pad} trailing `=`"));
    }
    let decoded = text.len() / 4 * 3 - pad;
    if decoded != 4 * len {
        return fail(format!(
            "decodes to {decoded} bytes, shape [{len}] needs {}",
            4 * len
        ));
    }
    let (mut acc, mut held, mut bytes) = (0u32, 0, Vec::new());
    for (at, &ch) in text[..text.len() - pad].iter().enumerate() {
        let Some(v) = B64.iter().position(|&b| b == ch) else {
            return fail(format!(
                "byte 0x{ch:02x} at offset {at} is not in the base64 alphabet"
            ));
        };
        (acc, held) = (acc << 6 | v as u32, held + 6);
        if held >= 8 {
            held -= 8;
            bytes.push((acc >> held) as u8);
            acc &= (1 << held) - 1;
        }
    }
    if acc != 0 {
        return fail("bad padding: non-zero bits after the last byte".to_owned());
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect())
}

fn block(len: usize, text: &str) -> Value {
    Value::Object(vec![
        (
            "shape".to_owned(),
            Value::Array(vec![Value::Number(len as f64)]),
        ),
        ("data".to_owned(), Value::String(text.to_owned())),
    ])
}

fn decode(len: usize, text: &str) -> Result<Vec<u32>, String> {
    match series::from_value(&block(len, text)) {
        Ok((shape, data)) => {
            assert_eq!(shape.dims(), [len]);
            Ok(data.iter().map(|x| x.to_bits()).collect())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn on_every_tier(f: impl Fn()) {
    for kernel in simd::available() {
        Settings {
            kernel,
            ..Settings::current()
        }
        .scope(&f);
    }
}

#[test]
fn the_block_coder_writes_the_reference_text_and_reads_back_every_bit() {
    on_every_tier(|| {
        for (seed, len) in (0..=64).chain([100_003]).enumerate() {
            let data = elements(len, seed as u64 + 1);
            let value = series::to_value(&[len], &data);
            let text = value.get("data").and_then(Value::as_str).expect("a string");
            assert_eq!(text, reference_encode(&data), "length {len}");
            let bits: Vec<u32> = data.iter().map(|x| x.to_bits()).collect();
            assert_eq!(decode(len, text), Ok(bits), "length {len}");
        }
    });
}

#[test]
fn each_single_byte_corruption_gives_the_reference_error() {
    on_every_tier(|| {
        // 12, 13 and 14 floats: no padding, `==` and `=`.
        for len in [12, 13, 14] {
            let text = reference_encode(&elements(len, len as u64));
            assert!(text.len() >= 48);
            for at in 0..text.len() {
                for ch in ["@", "=", "-", " ", "A", "z", "/", "\u{e9}"] {
                    let mut bad = text.clone();
                    bad.replace_range(at..=at, ch);
                    assert_eq!(decode(len, &bad), reference_decode(&bad, len), "{bad:?}");
                }
            }
        }
    });
}
