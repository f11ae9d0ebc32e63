//! The JSON reader of the workspace's report files (`BENCH_*.json`,
//! `benchmark/`'s result files), re-exported from [`btadt_types::report`],
//! where it lives next to the writer.

pub use btadt_types::report::{parse, Json, JsonError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::json_string;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Number(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": "x"}, null], "c": true}"#).unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(a[2], Json::Null);
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn round_trips_the_harness_escapes() {
        let original = "quote\" slash\\ newline\n control\u{1}";
        let encoded = json_string(original);
        assert_eq!(parse(&encoded).unwrap().as_str(), Some(original));
    }

    #[test]
    fn parses_a_real_report_shape() {
        let doc = parse(
            r#"{
  "bench": "concurrent",
  "verification": [
    {"path": "strong-cas", "threads": 1, "criterion": "BT Strong Consistency", "admitted": true, "violations": 0, "ops": 81},
    {"path": "strong-cas", "threads": 2, "criterion": "BT Strong Consistency", "admitted": true, "violations": 0, "ops": 162}
  ],
  "metrics": {
    "all_histories_admitted": 1.000
  }
}"#,
        )
        .unwrap();
        let rows = doc.get("verification").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("ops").unwrap().as_f64(), Some(162.0));
        assert_eq!(rows[0].get("admitted").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("all_histories_admitted")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn reports_errors_with_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 garbage").is_err());
        assert!(err.to_string().contains("byte 6"));
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("{}").unwrap(), Json::Object(Default::default()));
        assert_eq!(parse("[]").unwrap(), Json::Array(vec![]));
    }
}
