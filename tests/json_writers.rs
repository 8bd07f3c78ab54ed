//! Every JSON writer in the stack, fed the same hostile strings, emits a
//! document the one parser (`applab_obs::json`) reads back to the same
//! string. The writers share one escaper; this keeps any of them from
//! growing its own again, or skipping it.

use applab_catalog::EoDataset;
use applab_obs::json::{self, Value};
use applab_obs::{QueryLogRecord, Registry};
use applab_rdf::Literal;
use applab_sparql::{QueryResults, Row};

/// Quote, backslash, the short escapes, the control-range edges, DEL,
/// a non-BMP character, the empty string, and all of them at once.
fn hostile() -> Vec<String> {
    let singles = ["\"", "\\", "\n\r\t", "\u{0}", "\u{1f}", "\u{7f}", "😀", ""];
    let mut all: Vec<String> = singles.iter().map(|s| s.to_string()).collect();
    all.push(format!("a{}z", singles.concat()));
    all
}

/// The string at `path` in `doc`, which must parse; numeric steps index
/// arrays.
fn string_at(doc: &str, path: &[&str]) -> String {
    let v = json::parse(doc).unwrap_or_else(|e| panic!("{e} in {doc:?}"));
    let mut at = &v;
    for key in path {
        at = match key.parse::<usize>() {
            Ok(i) => &at.as_array().expect("an array")[i],
            Err(_) => at.get(key).unwrap_or_else(|| panic!("no {key} in {doc:?}")),
        };
    }
    at.as_str().expect("a string").to_string()
}

#[test]
fn results_json_round_trips_hostile_strings() {
    for s in hostile() {
        let r = QueryResults::Solutions {
            variables: vec!["v".into(), "l".into()],
            rows: vec![Row {
                values: vec![
                    Some(Literal::string(s.clone()).into()),
                    Some(Literal::lang(s.clone(), "en").into()),
                ],
            }],
        };
        let doc = r.to_json();
        let mut streamed = Vec::new();
        r.write_json(&mut streamed).unwrap();
        assert_eq!(streamed, doc.as_bytes());
        for var in ["v", "l"] {
            let path = ["results", "bindings", "0", var, "value"];
            assert_eq!(string_at(&doc, &path), s);
        }
        assert_eq!(QueryResults::from_json(&doc).unwrap(), r);
    }
}

#[test]
fn http_error_bodies_round_trip_hostile_strings() {
    for s in hostile() {
        let doc = applab_http::error_body(&s, 400, &s);
        assert_eq!(string_at(&doc, &["error", "code"]), s);
        assert_eq!(string_at(&doc, &["error", "message"]), s);
    }
}

#[test]
fn metrics_snapshot_round_trips_hostile_label_values() {
    for s in hostile() {
        let registry = Registry::new();
        registry
            .histogram_with("applab_test_seconds", &[("k", &s)], &[1.0])
            .observe(0.5);
        let series = &registry.slo_report("").entries[0].series;
        let v = json::parse(&registry.to_json()).unwrap();
        for section in ["histograms", "slo"] {
            let members = v.get(section).and_then(Value::as_object).unwrap();
            let names: Vec<&String> = members.iter().map(|(k, _)| k).collect();
            assert_eq!(names, [series], "{section}");
        }
    }
}

#[test]
fn query_log_round_trips_hostile_strings() {
    for s in hostile() {
        let rec = QueryLogRecord {
            endpoint: s.clone(),
            backend: s.clone(),
            code: s.clone(),
            query: s.clone(),
            ..QueryLogRecord::default()
        };
        let line = rec.to_json();
        for key in ["endpoint", "backend", "code", "query"] {
            assert_eq!(string_at(&line, &[key]), s);
        }
        assert_eq!(QueryLogRecord::from_json(&line).unwrap(), rec);
    }
}

#[test]
fn explain_json_round_trips_hostile_strings() {
    for s in hostile() {
        let ((), tree) = applab_obs::profile("root", |root| root.record("query", s.as_str()));
        assert_eq!(string_at(&tree.to_json(), &["fields", "query"]), s);
    }
}

#[test]
fn json_ld_round_trips_hostile_strings() {
    for s in hostile() {
        let ds = EoDataset {
            id: s.clone(),
            name: s.clone(),
            description: s.clone(),
            keywords: vec![s.clone()],
            creator: s.clone(),
            ..EoDataset::default()
        };
        let doc = ds.to_json_ld();
        for path in ["@id", "name", "description", "keywords 0", "creator name"] {
            let path: Vec<&str> = path.split(' ').collect();
            assert_eq!(string_at(&doc, &path), s);
        }
    }
}

#[test]
fn json_write_round_trips_hostile_strings() {
    for s in hostile() {
        let value = Value::Object(vec![(s.clone(), Value::String(s.clone()))]);
        assert_eq!(json::parse(&json::write(&value)).unwrap(), value);
    }
}
