//! Offline stand-in for `serde`: `Serialize`/`Deserialize` traits that read
//! and write JSON directly (the only format this repository uses), plus the
//! derives from the sibling `serde_derive` stand-in. The JSON produced is
//! externally tagged like serde's default, so snapshots keep the documented
//! layout; number formatting is Rust's shortest round-trip `Display`.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {
    /// Appends `self` as JSON.
    fn serialize(&self, out: &mut String);
}

pub trait Deserialize: Sized {
    fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error>;

    /// The value of an absent struct field: `None` for options, an error
    /// for everything else (serde's derive behaves the same way).
    fn if_missing() -> Option<Self> {
        None
    }
}

pub mod ser {
    use super::Serialize;

    /// Writes `,` (after the first entry) and `"key":` of an object entry.
    pub fn key(out: &mut String, first: &mut bool, key: &str) {
        if !*first {
            out.push(',');
        }
        *first = false;
        string(out, key);
        out.push(':');
    }

    pub fn string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    pub fn seq<'a, T: Serialize + 'a>(out: &mut String, items: impl Iterator<Item = &'a T>) {
        out.push('[');
        for (i, item) in items.enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.serialize(out);
        }
        out.push(']');
    }
}

pub mod de {
    use std::borrow::Cow;
    use std::fmt;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        message: String,
        offset: usize,
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{} at byte {}", self.message, self.offset)
        }
    }

    impl std::error::Error for Error {}

    /// The value of a struct field the document did not carry.
    pub fn missing<T: super::Deserialize>(p: &Parser<'_>, field: &str) -> Result<T, Error> {
        T::if_missing().ok_or_else(|| p.error(format!("missing field `{field}`")))
    }

    /// A cursor over one JSON document.
    pub struct Parser<'a> {
        src: &'a str,
        pos: usize,
    }

    impl<'a> Parser<'a> {
        pub fn new(src: &'a str) -> Self {
            Self { src, pos: 0 }
        }

        pub fn error(&self, message: impl Into<String>) -> Error {
            Error {
                message: message.into(),
                offset: self.pos,
            }
        }

        fn skip_ws(&mut self) {
            let bytes = self.src.as_bytes();
            while matches!(bytes.get(self.pos), Some(b' ' | b'\n' | b'\t' | b'\r')) {
                self.pos += 1;
            }
        }

        /// The next non-blank byte, not consumed.
        pub fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.src.as_bytes().get(self.pos).copied()
        }

        fn eat(&mut self, byte: u8) -> bool {
            if self.peek() == Some(byte) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        pub fn expect(&mut self, byte: u8) -> Result<(), Error> {
            if self.eat(byte) {
                Ok(())
            } else {
                Err(self.error(format!("expected `{}`", byte as char)))
            }
        }

        /// Fails unless only blanks remain.
        pub fn end(&mut self) -> Result<(), Error> {
            match self.peek() {
                None => Ok(()),
                Some(_) => Err(self.error("trailing characters")),
            }
        }

        fn literal(&mut self, word: &str) -> bool {
            self.skip_ws();
            if self.src[self.pos..].starts_with(word) {
                self.pos += word.len();
                true
            } else {
                false
            }
        }

        pub fn null(&mut self) -> bool {
            self.literal("null")
        }

        pub fn bool(&mut self) -> Result<bool, Error> {
            if self.literal("true") {
                Ok(true)
            } else if self.literal("false") {
                Ok(false)
            } else {
                Err(self.error("expected a boolean"))
            }
        }

        /// The text of the number at the cursor.
        pub fn number(&mut self) -> Result<&'a str, Error> {
            self.skip_ws();
            let start = self.pos;
            let bytes = self.src.as_bytes();
            while matches!(
                bytes.get(self.pos),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                self.pos += 1;
            }
            if start == self.pos {
                return Err(self.error("expected a number"));
            }
            Ok(&self.src[start..self.pos])
        }

        pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
            self.expect(b'"')?;
            let start = self.pos;
            let bytes = self.src.as_bytes();
            loop {
                match bytes.get(self.pos) {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        let s = &self.src[start..self.pos];
                        self.pos += 1;
                        return Ok(Cow::Borrowed(s));
                    }
                    Some(b'\\') => break,
                    Some(_) => self.pos += 1,
                }
            }
            let mut out = String::from(&self.src[start..self.pos]);
            loop {
                let rest = &self.src[self.pos..];
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| self.error("unterminated string"))?;
                self.pos += c.len_utf8();
                match c {
                    '"' => return Ok(Cow::Owned(out)),
                    '\\' => {
                        let esc = self.src[self.pos..]
                            .chars()
                            .next()
                            .ok_or_else(|| self.error("unterminated escape"))?;
                        self.pos += esc.len_utf8();
                        match esc {
                            '"' | '\\' | '/' => out.push(esc),
                            'n' => out.push('\n'),
                            'r' => out.push('\r'),
                            't' => out.push('\t'),
                            'b' => out.push('\u{8}'),
                            'f' => out.push('\u{c}'),
                            'u' => {
                                let code = self.hex4()?;
                                let ch = if (0xD800..0xDC00).contains(&code) {
                                    if !self.src[self.pos..].starts_with("\\u") {
                                        return Err(self.error("lone surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid surrogate pair"));
                                    }
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    code
                                };
                                out.push(
                                    char::from_u32(ch)
                                        .ok_or_else(|| self.error("invalid \\u escape"))?,
                                );
                            }
                            _ => return Err(self.error("invalid escape")),
                        }
                    }
                    c => out.push(c),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, Error> {
            let digits = self
                .src
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let code =
                u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
            self.pos += 4;
            Ok(code)
        }

        pub fn begin_object(&mut self) -> Result<(), Error> {
            self.expect(b'{')
        }

        /// The next key of the object the cursor is inside (positioned at
        /// its value), or `None` once the closing brace is consumed.
        /// `first` must be true for the call right after `begin_object`.
        pub fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, Error> {
            if self.eat(b'}') {
                return Ok(None);
            }
            if !*first {
                self.expect(b',')?;
            }
            *first = false;
            let key = self.string()?;
            self.expect(b':')?;
            Ok(Some(key))
        }

        pub fn begin_array(&mut self) -> Result<(), Error> {
            self.expect(b'[')
        }

        /// Whether the array the cursor is inside has another element
        /// (positioned at it); consumes the closing bracket when not.
        pub fn next_element(&mut self, first: &mut bool) -> Result<bool, Error> {
            if self.eat(b']') {
                return Ok(false);
            }
            if !*first {
                self.expect(b',')?;
            }
            *first = false;
            Ok(true)
        }

        /// Skips one value of any shape (unknown fields).
        pub fn skip_value(&mut self) -> Result<(), Error> {
            match self.peek() {
                Some(b'{') => {
                    self.begin_object()?;
                    let mut first = true;
                    while self.next_key(&mut first)?.is_some() {
                        self.skip_value()?;
                    }
                    Ok(())
                }
                Some(b'[') => {
                    self.begin_array()?;
                    let mut first = true;
                    while self.next_element(&mut first)? {
                        self.skip_value()?;
                    }
                    Ok(())
                }
                Some(b'"') => self.string().map(drop),
                Some(b't' | b'f') => self.bool().map(drop),
                Some(b'n') if self.null() => Ok(()),
                Some(_) => self.number().map(drop),
                None => Err(self.error("unexpected end of input")),
            }
        }
    }
}

macro_rules! number_impls {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize(&self, out: &mut String) {
                use std::fmt::Write;
                write!(out, "{self}").expect("writing to a String cannot fail");
            }
        }
        impl Deserialize for $ty {
            fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
                let text = p.number()?;
                text.parse().map_err(|_| p.error(format!("invalid {} `{text}`", stringify!($ty))))
            }
        }
    )*};
}

number_impls!(u8, u16, u32, u64, usize, i8);

macro_rules! float_impls {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize(&self, out: &mut String) {
                use std::fmt::Write;
                if self.is_finite() {
                    write!(out, "{self}").expect("writing to a String cannot fail");
                } else {
                    out.push_str("null");
                }
            }
        }
        impl Deserialize for $ty {
            fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
                let text = p.number()?;
                text.parse().map_err(|_| p.error(format!("invalid {} `{text}`", stringify!($ty))))
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.bool()
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        ser::string(out, self);
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        ser::string(out, self);
    }
}

impl Deserialize for String {
    fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.string().map(|s| s.into_owned())
    }
}

/// Only so `#[derive(Deserialize)]` on a struct holding a `&'static str`
/// compiles (`tasti_cluster::AssignStats`); nothing deserializes one at run
/// time, and a caller that did would leak the string.
impl Deserialize for &'static str {
    fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.string().map(|s| &*Box::leak(s.into_owned().into_boxed_str()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        if p.null() {
            Ok(None)
        } else {
            T::deserialize(p).map(Some)
        }
    }

    fn if_missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        ser::seq(out, self.iter());
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        ser::seq(out, self.iter());
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.begin_array()?;
        let mut items = Vec::new();
        let mut first = true;
        while p.next_element(&mut first)? {
            items.push(T::deserialize(p)?);
        }
        Ok(items)
    }
}
