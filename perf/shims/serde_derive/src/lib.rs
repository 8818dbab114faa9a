//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! (no `syn`/`quote` offline). Supports what this repository derives on:
//! non-generic structs with named fields and enums with unit, newtype and
//! struct variants, and the field attributes `default`, `default = "path"`,
//! `skip`, and `skip_serializing_if = "path"`. Anything else is a compile
//! error rather than a silently different encoding.

extern crate proc_macro;

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct FieldAttrs {
    skip: bool,
    /// `Some(None)` = `Default::default()`, `Some(Some(path))` = `path()`.
    default: Option<Option<String>>,
    skip_serializing_if: Option<String>,
}

struct Field {
    name: String,
    attrs: FieldAttrs,
}

enum Shape {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct { name: String, fields: Vec<Field> },
    Enum { name: String, variants: Vec<Variant> },
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(tt: Option<&TokenTree>, ch: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == ch)
}

/// Consumes leading `#[...]` attributes, folding `#[serde(...)]` ones into
/// the returned settings.
fn take_attrs(tokens: &mut Tokens) -> Result<FieldAttrs, String> {
    let mut attrs = FieldAttrs::default();
    while is_punct(tokens.peek(), '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            return Err("malformed attribute".into());
        };
        let mut inner = group.stream().into_iter();
        match inner.next() {
            Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            return Err("expected #[serde(...)]".into());
        };
        let mut args = args.stream().into_iter().peekable();
        while let Some(tt) = args.next() {
            let TokenTree::Ident(key) = tt else {
                return Err(format!("unexpected token `{tt}` in #[serde(...)]"));
            };
            let value = if is_punct(args.peek(), '=') {
                args.next();
                match args.next() {
                    Some(TokenTree::Literal(lit)) => {
                        Some(lit.to_string().trim_matches('"').to_string())
                    }
                    _ => return Err(format!("expected a string after `{key} =`")),
                }
            } else {
                None
            };
            match (key.to_string().as_str(), value) {
                ("skip", None) => attrs.skip = true,
                ("default", value) => attrs.default = Some(value),
                ("skip_serializing_if", Some(path)) => attrs.skip_serializing_if = Some(path),
                (other, _) => return Err(format!("unsupported serde attribute `{other}`")),
            }
            if is_punct(args.peek(), ',') {
                args.next();
            }
        }
    }
    Ok(attrs)
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Named fields of a `{ ... }` body. Types are skipped: the generated code
/// lets inference supply them.
fn parse_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut tokens = body.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let attrs = take_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            return Err("expected a field name".into());
        };
        if !is_punct(tokens.next().as_ref(), ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        // Commas inside `<...>` belong to the type, not the field list.
        let mut depth = 0i32;
        for tt in tokens.by_ref() {
            match &tt {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
        }
        fields.push(Field {
            name: name.to_string(),
            attrs,
        });
    }
    Ok(fields)
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut tokens = body.into_iter().peekable();
    let mut variants = Vec::new();
    while tokens.peek().is_some() {
        take_attrs(&mut tokens)?;
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            return Err("expected a variant name".into());
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(g.stream())?;
                tokens.next();
                Shape::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let mut depth = 0i32;
                for tt in g.stream() {
                    match &tt {
                        TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                            return Err(format!(
                                "variant `{name}`: only one-field tuple variants are supported"
                            ));
                        }
                        _ => {}
                    }
                }
                tokens.next();
                Shape::Newtype
            }
            _ => Shape::Unit,
        };
        match tokens.next() {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(other) => return Err(format!("unexpected `{other}` after variant `{name}`")),
        }
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    take_attrs(&mut tokens)?;
    skip_visibility(&mut tokens);
    let Some(TokenTree::Ident(kind)) = tokens.next() else {
        return Err("expected `struct` or `enum`".into());
    };
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        return Err("expected a type name".into());
    };
    let name = name.to_string();
    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => {
            return Err(format!(
                "`{name}`: only non-generic braced structs and enums are supported"
            ))
        }
    };
    match kind.to_string().as_str() {
        "struct" => Ok(Item::Struct {
            name,
            fields: parse_fields(body)?,
        }),
        "enum" => Ok(Item::Enum {
            name,
            variants: parse_variants(body)?,
        }),
        other => Err(format!("cannot derive on `{other}`")),
    }
}

/// Statements writing `fields` as the entries of an already-open object;
/// `access` turns a field name into the expression holding a reference to it.
fn write_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("let mut first = true;\n");
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let value = access(&f.name);
        let entry = format!(
            "::serde::ser::key(out, &mut first, \"{}\"); ::serde::Serialize::serialize({value}, out);",
            f.name
        );
        match &f.attrs.skip_serializing_if {
            Some(path) => code.push_str(&format!("if !{path}({value}) {{ {entry} }}\n")),
            None => {
                code.push_str(&entry);
                code.push('\n');
            }
        }
    }
    code
}

/// An expression block reading an object into `ctor { fields… }`.
fn read_fields(ctor: &str, fields: &[Field]) -> String {
    let mut code = String::from("{\n");
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        code.push_str(&format!(
            "let mut f_{} = ::std::option::Option::None;\n",
            f.name
        ));
    }
    code.push_str("p.begin_object()?;\nlet mut first = true;\n");
    code.push_str("while let Some(key) = p.next_key(&mut first)? {\nmatch &*key {\n");
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        code.push_str(&format!(
            "\"{0}\" => f_{0} = ::std::option::Option::Some(::serde::Deserialize::deserialize(p)?),\n",
            f.name
        ));
    }
    code.push_str("_ => p.skip_value()?,\n}\n}\n");
    code.push_str(&format!("{ctor} {{\n"));
    for f in fields {
        let fallback = match &f.attrs.default {
            Some(Some(path)) => format!("{path}()"),
            Some(None) => "::std::default::Default::default()".to_string(),
            None if f.attrs.skip => "::std::default::Default::default()".to_string(),
            None => format!("::serde::de::missing(p, \"{}\")?", f.name),
        };
        if f.attrs.skip {
            code.push_str(&format!("{}: {fallback},\n", f.name));
        } else {
            code.push_str(&format!(
                "{0}: match f_{0} {{ ::std::option::Option::Some(v) => v, ::std::option::Option::None => {fallback} }},\n",
                f.name
            ));
        }
    }
    code.push_str("}\n}");
    code
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => generate(&item),
        Err(message) => format!("compile_error!(\"serde stand-in derive: {message}\");"),
    };
    code.parse().expect("generated code is valid Rust")
}

fn serialize_impl(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let entries = write_fields(fields, |f| format!("&self.{f}"));
            (name, format!("out.push('{{');\n{entries}out.push('}}');"))
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::ser::string(out, \"{vname}\"),\n"
                    )),
                    Shape::Newtype => arms.push_str(&format!(
                        "{name}::{vname}(inner) => {{ out.push('{{'); ::serde::ser::string(out, \"{vname}\"); out.push(':'); ::serde::Serialize::serialize(inner, out); out.push('}}'); }}\n"
                    )),
                    Shape::Struct(fields) => {
                        let bindings: Vec<&str> =
                            fields.iter().map(|f| f.name.as_str()).collect();
                        let entries = write_fields(fields, |f| f.to_string());
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{ out.push('{{'); ::serde::ser::string(out, \"{vname}\"); out.push_str(\":{{\"); {entries} out.push_str(\"}}}}\"); }}\n",
                            bindings.join(", ")
                        ));
                    }
                }
            }
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         #[allow(unused_mut, unused_variables)]\n\
         fn serialize(&self, out: &mut ::std::string::String) {{\n{body}\n}}\n}}"
    )
}

fn deserialize_impl(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, format!("Ok({})", read_fields(name, fields))),
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n"))
                    }
                    Shape::Newtype => tagged_arms.push_str(&format!(
                        "\"{vname}\" => {name}::{vname}(::serde::Deserialize::deserialize(p)?),\n"
                    )),
                    Shape::Struct(fields) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => {},\n",
                        read_fields(&format!("{name}::{vname}"), fields)
                    )),
                }
            }
            let body = format!(
                "if p.peek() == Some(b'\"') {{\n\
                 let tag = p.string()?;\n\
                 return match &*tag {{\n{unit_arms}\
                 other => Err(p.error(format!(\"unknown variant `{{other}}` of {name}\"))),\n}};\n}}\n\
                 p.begin_object()?;\n\
                 let mut first_variant = true;\n\
                 let Some(tag) = p.next_key(&mut first_variant)? else {{\n\
                 return Err(p.error(\"expected a variant of {name}\"));\n}};\n\
                 let value = match &*tag {{\n{tagged_arms}\
                 other => return Err(p.error(format!(\"unknown variant `{{other}}` of {name}\"))),\n}};\n\
                 p.expect(b'}}')?;\n\
                 Ok(value)"
            );
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         #[allow(unused_mut, unused_variables, unreachable_code)]\n\
         fn deserialize(p: &mut ::serde::de::Parser<'_>) -> ::std::result::Result<Self, ::serde::de::Error> {{\n{body}\n}}\n}}"
    )
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, serialize_impl)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, deserialize_impl)
}
