//! The tensor wire format: `{"shape":[…],"data":"<base64 of the
//! little-endian f32 bytes>"}`. Round trips are bit-exact for every
//! bit pattern, and a hostile block is a typed error naming the field —
//! never a panic, and never an allocation sized by a shape the text
//! cannot fill.

use ft_tensor::Tensor;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Bit patterns the decimal format could not carry, or carried only
/// by luck: NaNs with payloads, ±inf, −0.0, subnormals.
const EDGES: [u32; 10] = [
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_0000, // quiet NaN
    0x7fc0_1234, // quiet NaN with a payload
    0xff80_0001, // negative signalling NaN
    0x8000_0000, // -0.0
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x7f7f_ffff, // f32::MAX
    0x3dcc_cccd, // 0.1
];

/// An element: an edge pattern one time in three, else random bits.
fn element() -> impl Strategy<Value = f32> {
    (0u32..=u32::MAX, 0usize..3 * EDGES.len())
        .prop_map(|(bits, pick)| f32::from_bits(EDGES.get(pick).copied().unwrap_or(bits)))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Round trips `t` through its JSON value and checks the encoded length.
fn round_trip(t: &Tensor) -> Tensor {
    let value = t.to_value();
    let data = value
        .get("data")
        .and_then(Value::as_str)
        .expect("string data");
    assert_eq!(data.len(), 4 * (4 * t.len()).div_ceil(3));
    Tensor::from_value(&value).expect("round trip")
}

fn block(shape: &[f64], data: &str) -> Value {
    Value::Object(vec![
        (
            "shape".into(),
            Value::Array(shape.iter().copied().map(Value::Number).collect()),
        ),
        ("data".into(), Value::String(data.into())),
    ])
}

/// The error `Tensor::from_value` gives for `value`, as text.
fn rejected(value: &Value) -> String {
    Tensor::from_value(value)
        .expect_err("hostile block must be refused")
        .to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Lengths 0–7 cover every padding remainder (4·len mod 3 = 0, 1, 2)
    /// with and without whole 3-float blocks ahead of the tail.
    #[test]
    fn every_padding_remainder_round_trips_bit_exact(
        data in (0usize..=7).prop_flat_map(|n| proptest::collection::vec(element(), n))
    ) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]).unwrap();
        let back = round_trip(&t);
        prop_assert_eq!(back.shape(), t.shape());
        prop_assert_eq!(bits(&back), bits(&t));
    }

    /// Shapes of rank 0 to 4, empty axes included.
    #[test]
    fn random_shapes_round_trip_bit_exact(
        (dims, data) in proptest::collection::vec(0usize..=5, 0..=4).prop_flat_map(|dims| {
            let volume = dims.iter().product::<usize>();
            proptest::collection::vec(element(), volume).prop_map(move |data| (dims.clone(), data))
        })
    ) {
        let t = Tensor::from_vec(data, &dims).unwrap();
        let back = round_trip(&t);
        prop_assert_eq!(back.shape().dims(), &dims[..]);
        prop_assert_eq!(bits(&back), bits(&t));
    }
}

#[test]
fn every_edge_pattern_round_trips_in_one_tensor() {
    let data: Vec<f32> = EDGES.iter().copied().map(f32::from_bits).collect();
    let t = Tensor::from_vec(data, &[2, 5]).unwrap();
    assert_eq!(bits(&round_trip(&t)), EDGES);
}

#[test]
fn the_encoding_is_standard_padded_base64_of_little_endian_bytes() {
    let t = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
    // 00 00 80 3f 00 00 00 c0
    assert_eq!(t.to_value(), block(&[2.0], "AACAPwAAAMA="));
    let one = Tensor::from_vec(vec![f32::from_bits(0xffff_ffff)], &[]).unwrap();
    assert_eq!(one.to_value(), block(&[], "/////w=="));
    assert_eq!(
        Tensor::from_vec(vec![], &[0, 3]).unwrap().to_value(),
        block(&[0.0, 3.0], "")
    );
}

#[test]
fn a_shape_past_exact_integers_is_refused() {
    let msg = rejected(&block(&[1e18, 1e18], "AAAAAA=="));
    assert!(msg.contains("`shape`"), "{msg}");
}

#[test]
fn a_volume_that_overflows_is_refused_not_wrapped() {
    // 2^32 · 2^32 wraps a 64-bit product to 0, which the empty text
    // would otherwise match.
    let msg = rejected(&block(&[4_294_967_296.0, 4_294_967_296.0], ""));
    assert!(
        msg.contains("`shape`") && msg.contains("overflows"),
        "{msg}"
    );
    // The volume fits; its byte count does not.
    let msg = rejected(&block(&[2_147_483_648.0, 2_147_483_648.0], ""));
    assert!(msg.contains("overflows"), "{msg}");
}

#[test]
fn a_huge_shape_with_short_text_fails_before_allocating() {
    // 2^40 floats would be a 4 TiB buffer; the length check comes first.
    let msg = rejected(&block(&[1_048_576.0, 1_048_576.0], "AAAAAA=="));
    assert!(
        msg.contains("`data`") && msg.contains("decodes to 4 bytes"),
        "{msg}"
    );
}

#[test]
fn text_for_another_shape_is_refused() {
    let msg = rejected(&block(&[2.0], "AAAAAA=="));
    assert!(msg.contains("needs 8"), "{msg}");
}

#[test]
fn a_character_outside_the_alphabet_is_refused_with_its_offset() {
    let msg = rejected(&block(&[3.0], "AAAAA!AAAAAAAAAA"));
    assert!(
        msg.contains("`data`") && msg.contains("0x21 at offset 5"),
        "{msg}"
    );
    // In the padded tail, and as a multibyte character.
    let msg = rejected(&block(&[1.0], "AAAAA-=="));
    assert!(msg.contains("0x2d at offset 5"), "{msg}");
    let msg = rejected(&block(&[1.0], "AA\u{e9}AA=="));
    assert!(msg.contains("0xc3 at offset 2"), "{msg}");
    // `=` anywhere but the end is not padding.
    let msg = rejected(&block(&[1.0], "AA=AAA=="));
    assert!(msg.contains("0x3d at offset 2"), "{msg}");
}

#[test]
fn bad_padding_is_refused() {
    let msg = rejected(&block(&[1.0], "AAAAA==="));
    assert!(msg.contains("bad padding"), "{msg}");
    // The unused low bits of the last character must be zero.
    let msg = rejected(&block(&[1.0], "AAAAAB=="));
    assert!(msg.contains("bad padding"), "{msg}");
    let msg = rejected(&block(&[2.0], "AAAAAAAAAAB="));
    assert!(msg.contains("bad padding"), "{msg}");
}

#[test]
fn a_length_not_divisible_by_four_is_refused() {
    let msg = rejected(&block(&[1.0], "AAAAAA="));
    assert!(
        msg.contains("`data`") && msg.contains("multiple of 4"),
        "{msg}"
    );
}

#[test]
fn a_missing_or_non_string_data_field_is_refused() {
    let missing = Value::Object(vec![("shape".into(), Value::Array(vec![]))]);
    let msg = rejected(&missing);
    assert!(msg.contains("missing field `data`"), "{msg}");
    // The decimal array earlier checkpoints wrote.
    let decimal = Value::Object(vec![
        ("shape".into(), Value::Array(vec![Value::Number(1.0)])),
        ("data".into(), Value::Array(vec![Value::Number(0.5)])),
    ]);
    let msg = rejected(&decimal);
    assert!(
        msg.contains("`data`") && msg.contains("base64 string"),
        "{msg}"
    );
    let no_shape = Value::Object(vec![("data".into(), Value::String(String::new()))]);
    assert!(rejected(&no_shape).contains("missing field `shape`"));
    assert!(rejected(&Value::Null).contains("missing field"));
}
