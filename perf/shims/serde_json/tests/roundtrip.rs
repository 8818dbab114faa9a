//! The stand-in derives against the shapes the repository serializes.

use serde::{Deserialize, Serialize};

fn one() -> f32 {
    1.0
}

fn is_zero(v: &u64) -> bool {
    *v == 0
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
enum Strategy {
    Exact,
    Ivf(Params),
    #[default]
    Auto,
    Mix {
        fraction: f32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Params {
    #[serde(default)]
    nprobe: usize,
    #[serde(default = "one")]
    recall: f32,
}

/// Doc comments and foreign attributes must be skipped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Snapshot {
    version: u32,
    name: String,
    data: Vec<f32>,
    model: Option<Params>,
    #[serde(default)]
    strategy: Strategy,
    #[serde(default, skip_serializing_if = "is_zero")]
    watermark: u64,
    #[serde(skip)]
    cache: Vec<u8>,
    #[serde(skip_serializing_if = "Option::is_none")]
    note: Option<String>,
}

fn sample() -> Snapshot {
    Snapshot {
        version: 1,
        name: "night \"street\"\n\u{1}é".into(),
        data: vec![0.1, -2.5e-8, 3.4028235e38, 0.0],
        model: Some(Params {
            nprobe: 3,
            recall: 0.9,
        }),
        strategy: Strategy::Mix { fraction: 0.5 },
        watermark: 0,
        cache: vec![1, 2, 3],
        note: None,
    }
}

#[test]
fn structs_and_enums_round_trip() {
    let s = sample();
    let json = serde_json::to_string(&s).unwrap();
    assert!(!json.contains("watermark") && !json.contains("cache") && !json.contains("note"));
    assert!(json.contains(r#""strategy":{"Mix":{"fraction":0.5}}"#), "{json}");
    let back: Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back,
        Snapshot {
            cache: Vec::new(),
            ..s
        }
    );
    for strategy in [
        Strategy::Exact,
        Strategy::Auto,
        Strategy::Ivf(Params {
            nprobe: 0,
            recall: 1.0,
        }),
    ] {
        let json = serde_json::to_string(&strategy).unwrap();
        assert_eq!(serde_json::from_str::<Strategy>(&json).unwrap(), strategy);
    }
    assert_eq!(serde_json::to_string(&Strategy::Exact).unwrap(), "\"Exact\"");
}

#[test]
fn absent_fields_take_their_defaults_and_unknown_ones_are_skipped() {
    let json = r#" { "future": {"a": [1, {"b": null}], "c": "x"}, "version": 2,
        "name": "n", "data": [], "strategy": {"Ivf": {}} } "#;
    let s: Snapshot = serde_json::from_str(json).unwrap();
    assert_eq!(s.version, 2);
    assert_eq!(s.model, None);
    assert_eq!(
        s.strategy,
        Strategy::Ivf(Params {
            nprobe: 0,
            recall: 1.0
        })
    );
    assert_eq!(s.watermark, 0);
}

#[test]
fn malformed_documents_are_errors_not_panics() {
    for bad in [
        "",
        "{",
        r#"{"version":1}"#,
        r#"{"version":"one","name":"n","data":[]}"#,
        r#"{"version":1,"name":"n","data":[1,]}"#,
        r#"{"version":1,"name":"n","data":[]} trailing"#,
        r#"{"version":1,"name":"\ud800","data":[]}"#,
    ] {
        assert!(serde_json::from_str::<Snapshot>(bad).is_err(), "{bad:?}");
    }
    assert!(serde_json::from_str::<Strategy>("\"Nope\"").is_err());
    assert!(serde_json::from_str::<Strategy>(r#"{"Nope":1}"#).is_err());
}
