//! The JSON shim's string scanners, which test eight bytes a step: `"`,
//! `\`, every control byte and 2–4-byte UTF-8 placed at offsets 0..16,
//! so each lands at every position of a word and across word
//! boundaries. The writer must equal a byte-at-a-time reference, the
//! parser must give every string back, and a raw control byte must be
//! refused at its own offset.

use serde_json::Value;

/// Escapes `s` one character at a time, as JSON (and the shim) does.
fn reference(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The characters that end a verbatim run, and multibyte ones that
/// must not.
fn specials() -> Vec<char> {
    let mut specials: Vec<char> = (0u8..0x20).map(char::from).collect();
    specials.extend(['"', '\\', '\u{7f}', '\u{e9}', '\u{6f22}', '\u{1f600}']);
    specials
}

/// `lead` bytes of ASCII, `c`, then `tail` more characters mixing
/// ASCII and multibyte text.
fn sample(lead: usize, c: char, tail: usize) -> String {
    let filler = "ab\u{e9}cd\u{1f600}ef";
    let mut s: String = "x".repeat(lead);
    s.push(c);
    s.extend(filler.chars().cycle().take(tail));
    s
}

#[test]
fn the_writer_matches_the_reference_and_the_parser_gives_every_string_back() {
    for c in specials() {
        for lead in 0..16 {
            for tail in [0, 1, 7, 8, 9, 17] {
                let s = sample(lead, c, tail);
                let text = serde_json::to_string(&Value::String(s.clone())).unwrap();
                assert_eq!(text, reference(&s), "{s:?}");
                let back = serde_json::parse_value(&text).unwrap();
                assert_eq!(back.as_str(), Some(&*s), "{text}");
                // The same string as a key, beside a second run-ending
                // character in the value.
                let object = Value::Object(vec![(s.clone(), Value::String(format!("{s}{c}")))]);
                let text = serde_json::to_string(&object).unwrap();
                assert_eq!(serde_json::parse_value(&text).unwrap(), object, "{text}");
            }
        }
    }
}

#[test]
fn a_raw_control_byte_is_refused_at_its_offset() {
    for c in (0u8..0x20).map(char::from) {
        for lead in 0..16 {
            for tail in [0, 8, 9] {
                let s = sample(lead, c, tail);
                for text in [format!("{{\"k\":\"{s}\"}}"), format!("{{\"{s}\":1}}")] {
                    let at = text.find(c).expect("the raw byte");
                    let err = serde_json::parse_value(&text)
                        .expect_err("a raw control byte")
                        .to_string();
                    let want = format!(
                        "raw control character U+{:04X} in string at byte {at}",
                        u32::from(c)
                    );
                    assert!(err.ends_with(&want), "{err} / {want}");
                }
            }
        }
    }
}
