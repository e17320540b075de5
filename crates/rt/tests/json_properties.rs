//! Property and edge-case tests for the JSON module: serialize→parse
//! round-trips over random documents, and the parser's handling of the
//! grammar's corners (escapes, unicode, depth, signed zero, exponents).

use netarch_rt::json::{self, Json};
use netarch_rt::prop::{self, gen_vec, Config, Shrink};
use netarch_rt::{prop_assert_eq, Rng};

/// Shrinkable wrapper for random JSON documents.
#[derive(Clone, Debug)]
struct Doc(Json);

fn gen_string(rng: &mut Rng) -> String {
    let choices = [
        "", "a", "key", "héllo", "tab\there", "nl\nhere", "q\"uote", "back\\slash",
        "nul\u{0}", "snowman ☃", "astral 𝄞", "ctrl\u{1f}",
    ];
    (*rng.choose(&choices).unwrap()).to_string()
}

fn gen_json_depth(rng: &mut Rng, depth: u32) -> Json {
    let leaf_only = depth == 0 || rng.gen_bool(0.4);
    match rng.gen_range(0..if leaf_only { 5u32 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        // Integral values in the i64-printable window round-trip exactly.
        2 => Json::Num(rng.gen_range(-1_000_000_000i64..=1_000_000_000) as f64),
        3 => Json::Num((rng.gen_range(-8_000_000i64..=8_000_000) as f64) / 1024.0),
        4 => Json::Str(gen_string(rng)),
        5 => Json::Arr(gen_vec(rng, 0..=4, |r| gen_json_depth(r, depth - 1))),
        _ => Json::Obj(
            gen_vec(rng, 0..=4, |r| (gen_string(r), gen_json_depth(r, depth - 1)))
                .into_iter()
                .enumerate()
                // Keys must be unique for Obj comparison to be meaningful.
                .map(|(i, (k, v))| (format!("{k}#{i}"), v))
                .collect(),
        ),
    }
}

impl Shrink for Doc {
    fn shrink(&self) -> Vec<Doc> {
        match &self.0 {
            Json::Arr(items) => items.iter().map(|j| Doc(j.clone())).collect(),
            Json::Obj(fields) => fields.iter().map(|(_, j)| Doc(j.clone())).collect(),
            Json::Null => Vec::new(),
            _ => vec![Doc(Json::Null)],
        }
    }
}

#[test]
fn random_documents_roundtrip_compact_and_pretty() {
    prop::check(
        &Config::with_cases(256),
        |rng| Doc(gen_json_depth(rng, 4)),
        |Doc(doc)| {
            let compact: Json = json::from_str(&doc.dump()).map_err(|e| e.to_string())?;
            prop_assert_eq!(&compact, doc, "compact round-trip");
            let pretty: Json = json::from_str(&doc.dump_pretty()).map_err(|e| e.to_string())?;
            prop_assert_eq!(&pretty, doc, "pretty round-trip");
            Ok(())
        },
    );
}

#[test]
fn random_strings_roundtrip() {
    prop::check(
        &Config::with_cases(256),
        |rng| {
            // Arbitrary scalar values (any char, any length) stress the
            // escaping path beyond the fixed sample strings.
            gen_vec(rng, 0..=12, |r| {
                char::from_u32(r.gen_range(0..0xD800u32)).unwrap_or('\u{FFFD}')
            })
            .into_iter()
            .collect::<String>()
        },
        |s| {
            let back: String = json::from_str(&json::to_string(s)).map_err(|e| e.to_string())?;
            prop_assert_eq!(&back, s);
            Ok(())
        },
    );
}

#[test]
fn escape_sequences_parse() {
    let back: String = json::from_str(r#""\" \\ \/ \b \f \n \r \t""#).unwrap();
    assert_eq!(back, "\" \\ / \u{8} \u{c} \n \r \t");
}

#[test]
fn unicode_escapes_and_surrogate_pairs() {
    let back: String = json::from_str(r#""é☃𝄞""#).unwrap();
    assert_eq!(back, "é☃𝄞");
    // Unpaired surrogates are rejected, not silently replaced.
    assert!(json::from_str::<String>(r#""\ud834""#).is_err());
    assert!(json::from_str::<String>(r#""\udd1e""#).is_err());
}

#[test]
fn nested_depth_is_bounded() {
    // 127 levels parse; beyond the cap the parser errors instead of
    // overflowing the stack.
    let ok = format!("{}0{}", "[".repeat(127), "]".repeat(127));
    assert!(json::from_str::<Json>(&ok).is_ok());
    let too_deep = format!("{}0{}", "[".repeat(400), "]".repeat(400));
    let err = json::from_str::<Json>(&too_deep).unwrap_err();
    assert!(err.to_string().contains("deep"), "unexpected error: {err}");
}

#[test]
fn negative_zero_parses_as_zero() {
    let v: f64 = json::from_str("-0").unwrap();
    assert_eq!(v, 0.0);
    assert!(v.is_sign_negative());
    let v: f64 = json::from_str("-0.0").unwrap();
    assert_eq!(v, 0.0);
    // -0 is integral, so it prints on the i64 path as plain 0.
    assert_eq!(Json::Num(-0.0).dump(), "0");
}

#[test]
fn exponent_forms_parse() {
    assert_eq!(json::from_str::<f64>("1e9").unwrap(), 1.0e9);
    assert_eq!(json::from_str::<f64>("1E9").unwrap(), 1.0e9);
    assert_eq!(json::from_str::<f64>("1e+9").unwrap(), 1.0e9);
    assert_eq!(json::from_str::<f64>("1e-9").unwrap(), 1.0e-9);
    assert_eq!(json::from_str::<f64>("2.5e3").unwrap(), 2500.0);
    // 1e9 is integral and in-range: u64 conversion must accept it.
    assert_eq!(json::from_str::<u64>("1e9").unwrap(), 1_000_000_000);
    // Incomplete exponents are rejected.
    assert!(json::from_str::<f64>("1e").is_err());
    assert!(json::from_str::<f64>("1e+").is_err());
}

#[test]
fn number_grammar_rejects_nonstandard_forms() {
    for bad in ["01", "1.", ".5", "+1", "--1", "0x10", "NaN", "Infinity"] {
        assert!(json::from_str::<f64>(bad).is_err(), "{bad} should be rejected");
    }
}

#[test]
fn large_integers_roundtrip_through_text() {
    // The full u32 range and the 2^53 mantissa boundary survive a trip.
    for n in [0u64, 1, u32::MAX as u64, 1 << 52, (1 << 53) - 1] {
        let text = json::to_string(&n);
        assert_eq!(json::from_str::<u64>(&text).unwrap(), n, "{n}");
    }
    for n in [-((1i64 << 53) - 1), -1, i64::from(i32::MIN)] {
        assert_eq!(json::from_str::<i64>(&json::to_string(&n)).unwrap(), n, "{n}");
    }
    // Past 2^53 an `f64` no longer holds every integer. The text is still
    // written exactly, and reading it back is refused, never rounded or
    // saturated.
    for n in [1u64 << 53, (1 << 53) + 1, 9_007_199_254_740_993, 1 << 60, u64::MAX] {
        let text = json::to_string(&n);
        assert_eq!(text, n.to_string(), "emitted inexactly");
        let err = json::from_str::<u64>(&text).expect_err(&text).to_string();
        assert!(err.contains("out of range for u64") && err.len() < 100, "{text}: {err}");
    }
    for n in [-(1i64 << 53) - 1, i64::MIN] {
        let text = json::to_string(&n);
        assert_eq!(text, n.to_string(), "emitted inexactly");
        assert!(json::from_str::<i64>(&text).is_err(), "{text} read back");
    }
    for text in ["18446744073709551616", "1e300", "-1e300"] {
        let err = json::from_str::<u64>(text).expect_err(text).to_string();
        assert!(err.len() < 100, "{text}: error is not short: {err}");
        assert_eq!(json::parse(text).unwrap().as_u64(), None, "{text} saturated");
    }
    assert!(json::from_str::<u8>("256").unwrap_err().to_string().contains("out of range for u8"));
}
