//! Derive macros for the offline `serde` shim.
//!
//! The build environment has no crates.io access, so `syn`/`quote` are
//! unavailable; the item is parsed directly from the [`proc_macro`]
//! token stream. Supported shapes cover everything the workspace
//! derives:
//!
//! * structs with named fields → JSON objects (declaration order);
//! * newtype structs → transparent (the inner value);
//! * tuple structs with 2+ fields → JSON arrays;
//! * unit structs → `null`;
//! * enums: unit variants → `"Name"`, newtype variants →
//!   `{"Name": value}`, tuple variants → `{"Name": [..]}`, struct
//!   variants → `{"Name": {..}}` (serde's externally-tagged form).
//!
//! Generic parameters are intentionally rejected — nothing in the
//! workspace derives on a generic type, and supporting them would
//! roughly double the parser for no benefit.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What a parsed item looks like, reduced to what codegen needs.
enum Item {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    shape: VariantShape,
}

/// A named struct field plus the one field attribute the shim honors.
struct Field {
    name: String,
    /// Set by `#[serde(skip_serializing_if = "Option::is_none")]`: the
    /// member is omitted from the object when `None`, and an absent
    /// member deserializes back to `None`.
    skip_if_none: bool,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);

    let keyword = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }

    match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::NamedStruct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Item::TupleStruct {
                    name,
                    arity: count_tuple_fields(g.stream()),
                }
            }
            _ => Item::UnitStruct { name },
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde shim derive: malformed enum body: {other:?}"),
        },
        other => panic!("serde shim derive: expected struct or enum, found `{other}`"),
    }
}

/// Advances past `#[...]` attributes and `pub` / `pub(...)` visibility.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde shim derive: expected identifier, found {other:?}"),
    }
}

/// Splits a token stream at top-level commas (commas inside `<...>`,
/// `(...)`, `[...]`, `{...}` do not split — groups are single tokens, so
/// only angle-bracket depth needs explicit tracking).
fn split_top_level_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0i32;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                out.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(tt);
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Named-field list: `a: Ty, pub b: Ty, ...`, honoring the
/// `skip_serializing_if = "Option::is_none"` serde attribute (the only
/// field attribute the shim supports; any other `skip_serializing_if`
/// predicate is rejected rather than silently ignored).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    split_top_level_commas(stream)
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .map(|seg| {
            let mut skip_if_none = false;
            let mut j = 0;
            while let Some(TokenTree::Punct(p)) = seg.get(j) {
                if p.as_char() != '#' {
                    break;
                }
                if let Some(TokenTree::Group(g)) = seg.get(j + 1) {
                    let squashed: String = g
                        .stream()
                        .to_string()
                        .chars()
                        .filter(|c| !c.is_whitespace())
                        .collect();
                    if squashed.contains("skip_serializing_if") {
                        if !squashed.contains("\"Option::is_none\"") {
                            panic!(
                                "serde shim derive: only skip_serializing_if = \
                                 \"Option::is_none\" is supported, got `{squashed}`"
                            );
                        }
                        skip_if_none = true;
                    }
                }
                j += 2;
            }
            let mut i = 0;
            skip_attrs_and_vis(&seg, &mut i);
            Field {
                name: expect_ident(&seg, &mut i),
                skip_if_none,
            }
        })
        .collect()
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level_commas(stream)
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .count()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level_commas(stream)
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .map(|seg| {
            let mut i = 0;
            skip_attrs_and_vis(&seg, &mut i);
            let name = expect_ident(&seg, &mut i);
            let shape = match seg.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    VariantShape::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    // Field attributes are not honored on enum variants.
                    VariantShape::Named(
                        parse_named_fields(g.stream())
                            .into_iter()
                            .map(|f| f.name)
                            .collect(),
                    )
                }
                _ => VariantShape::Unit,
            };
            Variant { name, shape }
        })
        .collect()
}

// ---------------------------------------------------------------- codegen

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    let fname = &f.name;
                    if f.skip_if_none {
                        format!(
                            "if self.{fname}.is_some() {{\n\
                                 __members.push((\"{fname}\".to_string(), \
                                 ::serde::Serialize::to_value(&self.{fname})));\n\
                             }}\n"
                        )
                    } else {
                        format!(
                            "__members.push((\"{fname}\".to_string(), \
                             ::serde::Serialize::to_value(&self.{fname})));\n"
                        )
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         let mut __members: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                         {pushes}\
                         ::serde::Value::Object(__members)\n\
                     }}\n\
                 }}"
            )
        }
        Item::TupleStruct { name, arity: 1 } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                     ::serde::Serialize::to_value(&self.0)\n\
                 }}\n\
             }}"
        ),
        Item::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Array(vec![{}])\n\
                     }}\n\
                 }}",
                items.join(", ")
            )
        }
        Item::UnitStruct { name } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{ ::serde::Value::Null }}\n\
             }}"
        ),
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!(
                            "{name}::{vname} => \
                             ::serde::Value::String(\"{vname}\".to_string()),\n"
                        ),
                        VariantShape::Tuple(1) => format!(
                            "{name}::{vname}(__f0) => ::serde::Value::Object(vec![\
                             (\"{vname}\".to_string(), ::serde::Serialize::to_value(__f0))]),\n"
                        ),
                        VariantShape::Tuple(arity) => {
                            let binds: Vec<String> =
                                (0..*arity).map(|i| format!("__f{i}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => ::serde::Value::Object(vec![\
                                 (\"{vname}\".to_string(), \
                                 ::serde::Value::Array(vec![{}]))]),\n",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        VariantShape::Named(fields) => {
                            let binds = fields.join(", ");
                            let pushes: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(\"{f}\".to_string(), \
                                         ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vname} {{ {binds} }} => ::serde::Value::Object(vec![\
                                 (\"{vname}\".to_string(), \
                                 ::serde::Value::Object(vec![{}]))]),\n",
                                pushes.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}\n}}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let builds: String = fields
                .iter()
                .map(|f| {
                    let fname = &f.name;
                    if f.skip_if_none {
                        // An omitted member is `None`; a present one,
                        // `null` included, goes through from_value.
                        format!(
                            "{fname}: match __v.get(\"{fname}\") {{\n\
                                 ::std::option::Option::None => ::std::option::Option::None,\n\
                                 ::std::option::Option::Some(__x) => \
                                     ::serde::Deserialize::from_value(__x)?,\n\
                             }},\n"
                        )
                    } else {
                        format!(
                            "{fname}: ::serde::Deserialize::from_value(__v.field(\"{fname}\")?)?,\n"
                        )
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::ValueError> {{\n\
                         if !matches!(__v, ::serde::Value::Object(_)) {{\n\
                             return Err(::serde::ValueError::expected(\"object\", __v));\n\
                         }}\n\
                         Ok({name} {{\n{builds}\n}})\n\
                     }}\n\
                 }}"
            )
        }
        Item::TupleStruct { name, arity: 1 } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(__v: &::serde::Value) \
                     -> ::std::result::Result<Self, ::serde::ValueError> {{\n\
                     Ok({name}(::serde::Deserialize::from_value(__v)?))\n\
                 }}\n\
             }}"
        ),
        Item::TupleStruct { name, arity } => {
            let builds: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::ValueError> {{\n\
                         match __v {{\n\
                             ::serde::Value::Array(__items) if __items.len() == {arity} => \
                                 Ok({name}({})),\n\
                             __other => Err(::serde::ValueError::expected(\
                                 \"{arity}-element array\", __other)),\n\
                         }}\n\
                     }}\n\
                 }}",
                builds.join(", ")
            )
        }
        Item::UnitStruct { name } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(__v: &::serde::Value) \
                     -> ::std::result::Result<Self, ::serde::ValueError> {{\n\
                     match __v {{\n\
                         ::serde::Value::Null => Ok({name}),\n\
                         __other => Err(::serde::ValueError::expected(\"null\", __other)),\n\
                     }}\n\
                 }}\n\
             }}"
        ),
        Item::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| format!("\"{0}\" => Ok({name}::{0}),\n", v.name))
                .collect();
            let data_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        VariantShape::Unit => None,
                        VariantShape::Tuple(1) => Some(format!(
                            "\"{vname}\" => Ok({name}::{vname}(\
                             ::serde::Deserialize::from_value(__val)?)),\n"
                        )),
                        VariantShape::Tuple(arity) => {
                            let builds: Vec<String> = (0..*arity)
                                .map(|i| {
                                    format!("::serde::Deserialize::from_value(&__items[{i}])?")
                                })
                                .collect();
                            Some(format!(
                                "\"{vname}\" => match __val {{\n\
                                     ::serde::Value::Array(__items) if __items.len() == {arity} => \
                                         Ok({name}::{vname}({})),\n\
                                     __other => Err(::serde::ValueError::expected(\
                                         \"{arity}-element array\", __other)),\n\
                                 }},\n",
                                builds.join(", ")
                            ))
                        }
                        VariantShape::Named(fields) => {
                            let builds: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "{f}: ::serde::Deserialize::from_value(\
                                         __val.field(\"{f}\")?)?"
                                    )
                                })
                                .collect();
                            Some(format!(
                                "\"{vname}\" => Ok({name}::{vname} {{ {} }}),\n",
                                builds.join(", ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::ValueError> {{\n\
                         match __v {{\n\
                             ::serde::Value::String(__s) => match __s.as_str() {{\n\
                                 {unit_arms}\
                                 __other => Err(::serde::ValueError::msg(\
                                     format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                             }},\n\
                             ::serde::Value::Object(__members) if __members.len() == 1 => {{\n\
                                 let (__tag, __val) = &__members[0];\n\
                                 match __tag.as_str() {{\n\
                                     {data_arms}\
                                     __other => Err(::serde::ValueError::msg(\
                                         format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                                 }}\n\
                             }}\n\
                             __other => Err(::serde::ValueError::expected(\
                                 \"enum representation\", __other)),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}
