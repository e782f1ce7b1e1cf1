//! `#[derive(Serialize, Deserialize)]` for the serde stand-in.
//!
//! Written against `proc_macro` alone (no syn/quote offline): the item is
//! scanned for its shape — field names, tuple arity, variant kinds and the
//! one supported attribute, `#[serde(with = "module")]` — and the impl is
//! generated as source text. Field *types* are never parsed; the generated
//! code lets inference pick the `Serialize`/`Deserialize` impl. Generic
//! items are rejected with a compile error.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

enum Fields {
    Unit,
    /// Tuple fields; only the count matters.
    Tuple(usize),
    /// Named fields with their optional `with` module.
    Named(Vec<(String, Option<String>)>),
}

enum Shape {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct Item {
    name: String,
    shape: Shape,
}

/// Consumes leading `#[...]` attributes and a `pub`/`pub(...)` qualifier,
/// returning the `with` module if a `#[serde(with = "...")]` was among them.
fn skip_attrs_and_vis(tokens: &[TokenTree], pos: &mut usize) -> Option<String> {
    let mut with = None;
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(attr)) = tokens.get(*pos + 1) {
                    with = with.or_else(|| serde_with(attr));
                }
                *pos += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *pos += 1;
                if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *pos += 1;
                }
            }
            _ => return with,
        }
    }
}

/// Extracts `module` from the body of `[serde(with = "module")]`.
fn serde_with(attr: &Group) -> Option<String> {
    let body: Vec<TokenTree> = attr.stream().into_iter().collect();
    match body.as_slice() {
        [TokenTree::Ident(name), TokenTree::Group(args)] if name.to_string() == "serde" => {
            let args: Vec<TokenTree> = args.stream().into_iter().collect();
            match args.as_slice() {
                [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                    if key.to_string() == "with" && eq.as_char() == '=' =>
                {
                    Some(lit.to_string().trim_matches('"').to_string())
                }
                _ => panic!("serde stand-in: only #[serde(with = \"module\")] is supported"),
            }
        }
        _ => None,
    }
}

/// Splits a field list on top-level commas. Generic arguments are not
/// token groups, so angle brackets are tracked by depth.
fn split_commas(group: &Group) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0i32;
    for tt in group.stream() {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        if let Some(last) = parts.last_mut() {
            last.push(tt);
        }
    }
    parts.retain(|p| !p.is_empty());
    parts
}

fn parse_fields(group: &Group) -> Fields {
    let parts = split_commas(group);
    match group.delimiter() {
        Delimiter::Parenthesis => Fields::Tuple(parts.len()),
        Delimiter::Brace => Fields::Named(
            parts
                .iter()
                .map(|part| {
                    let mut pos = 0;
                    let with = skip_attrs_and_vis(part, &mut pos);
                    match part.get(pos) {
                        Some(TokenTree::Ident(name)) => (name.to_string(), with),
                        other => panic!("serde stand-in: expected a field name, found {other:?}"),
                    }
                })
                .collect(),
        ),
        other => panic!("serde stand-in: unexpected {other:?} field list"),
    }
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    skip_attrs_and_vis(&tokens, &mut pos);
    let keyword = tokens.get(pos).map(ToString::to_string).unwrap_or_default();
    let name = tokens
        .get(pos + 1)
        .map(ToString::to_string)
        .unwrap_or_default();
    pos += 2;
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde stand-in: generic type `{name}` is not supported");
    }
    let shape = match (keyword.as_str(), tokens.get(pos)) {
        ("struct", Some(TokenTree::Group(g))) => Shape::Struct(parse_fields(g)),
        ("struct", _) => Shape::Struct(Fields::Unit),
        ("enum", Some(TokenTree::Group(g))) => Shape::Enum(
            split_commas(g)
                .iter()
                .map(|part| {
                    let mut pos = 0;
                    skip_attrs_and_vis(part, &mut pos);
                    let name = part[pos].to_string();
                    let fields = match part.get(pos + 1) {
                        Some(TokenTree::Group(g)) => parse_fields(g),
                        _ => Fields::Unit,
                    };
                    (name, fields)
                })
                .collect(),
        ),
        _ => panic!("serde stand-in: can only derive for structs and enums"),
    };
    Item { name, shape }
}

/// Expression serializing the fields bound to `bindings` (one per field).
fn ser_fields(fields: &Fields, bindings: &[String]) -> String {
    match fields {
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Tuple(1) => format!("::serde::Serialize::to_value({})", bindings[0]),
        Fields::Tuple(_) => {
            let items: Vec<String> = bindings
                .iter()
                .map(|b| format!("::serde::Serialize::to_value({b})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Fields::Named(named) => {
            let items: Vec<String> = named
                .iter()
                .zip(bindings)
                .map(|((name, with), b)| match with {
                    Some(module) => format!("(\"{name}\".to_string(), {module}::serialize({b}))"),
                    None => {
                        format!("(\"{name}\".to_string(), ::serde::Serialize::to_value({b}))")
                    }
                })
                .collect();
            format!("::serde::Value::Object(vec![{}])", items.join(", "))
        }
    }
}

/// Expression rebuilding `ctor` (a struct or variant path) from the value
/// expression `v`, inside a function returning `Result<_, DeError>`.
fn de_fields(fields: &Fields, ctor: &str, v: &str) -> String {
    match fields {
        Fields::Unit => format!("{{ let _ = {v}; {ctor} }}"),
        Fields::Tuple(1) => format!("{ctor}(::serde::Deserialize::from_value({v})?)"),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "match {v} {{ ::serde::Value::Array(items) if items.len() == {n} => {ctor}({}), \
                 other => return Err(::serde::DeError::expected(\"an array of length {n}\", other)) }}",
                items.join(", ")
            )
        }
        Fields::Named(named) => {
            let items: Vec<String> = named
                .iter()
                .enumerate()
                .map(|(i, (name, with))| match with {
                    Some(module) => format!(
                        "{name}: match entries.iter().find(|(k, _)| k == \"{name}\") {{ \
                         Some((_, v)) => {module}::deserialize(v)?, \
                         None => return Err(::serde::DeError::msg(\"missing field `{name}`\")) }}"
                    ),
                    None => format!("{name}: ::serde::field(entries, {i}, \"{name}\")?"),
                })
                .collect();
            format!(
                "match {v} {{ ::serde::Value::Object(entries) => {ctor} {{ {} }}, \
                 other => return Err(::serde::DeError::expected(\"an object\", other)) }}",
                items.join(", ")
            )
        }
    }
}

/// Pattern binding a variant's fields, plus the binding names in order.
fn variant_pattern(fields: &Fields) -> (String, Vec<String>) {
    match fields {
        Fields::Unit => (String::new(), Vec::new()),
        Fields::Tuple(n) => {
            let names: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
            (format!("({})", names.join(", ")), names)
        }
        Fields::Named(named) => {
            let names: Vec<String> = named.iter().map(|(n, _)| n.clone()).collect();
            (format!("{{ {} }}", names.join(", ")), names)
        }
    }
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let bindings: Vec<String> = match fields {
                Fields::Unit => Vec::new(),
                Fields::Tuple(n) => (0..*n).map(|i| format!("&self.{i}")).collect(),
                Fields::Named(named) => named.iter().map(|(n, _)| format!("&self.{n}")).collect(),
            };
            ser_fields(fields, &bindings)
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(variant, fields)| {
                    let (pattern, bindings) = variant_pattern(fields);
                    let value = match fields {
                        Fields::Unit => format!("::serde::Value::Str(\"{variant}\".to_string())"),
                        _ => format!(
                            "::serde::Value::Object(vec![(\"{variant}\".to_string(), {})])",
                            ser_fields(fields, &bindings)
                        ),
                    };
                    format!("{name}::{variant} {pattern} => {value}")
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
         fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
    )
    .parse()
    .expect("serde stand-in: generated Serialize impl must parse")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => format!("Ok({})", de_fields(fields, name, "v")),
        Shape::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| matches!(f, Fields::Unit))
                .map(|(variant, _)| format!("\"{variant}\" => Ok({name}::{variant}),"))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| !matches!(f, Fields::Unit))
                .map(|(variant, fields)| {
                    format!(
                        "\"{variant}\" => Ok({}),",
                        de_fields(fields, &format!("{name}::{variant}"), "inner")
                    )
                })
                .collect();
            format!(
                "match v {{ \
                 ::serde::Value::Str(tag) => match tag.as_str() {{ {} \
                   other => Err(::serde::DeError(format!(\"unknown variant `{{other}}` of {name}\"))) }}, \
                 ::serde::Value::Object(entries) if entries.len() == 1 => {{ \
                   let (tag, inner) = &entries[0]; \
                   match tag.as_str() {{ {} \
                     other => Err(::serde::DeError(format!(\"unknown variant `{{other}}` of {name}\"))) }} }}, \
                 other => Err(::serde::DeError::expected(\"a variant of {name}\", other)) }}",
                unit_arms.join(" "),
                data_arms.join(" ")
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
         #[allow(unused_variables)] \
         fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }} }}"
    )
    .parse()
    .expect("serde stand-in: generated Deserialize impl must parse")
}
