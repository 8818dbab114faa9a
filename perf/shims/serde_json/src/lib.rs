//! Offline stand-in for `serde_json`: `to_string`, `from_str` and `Error`,
//! the items this repository's library code calls (`tasti_core::persist`),
//! over the stand-in serde's JSON-only traits.

pub use serde::de::Error;

/// Never fails; the `Result` mirrors the published signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut out);
    Ok(out)
}

pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = serde::de::Parser::new(text);
    let value = T::deserialize(&mut parser)?;
    parser.end()?;
    Ok(value)
}
