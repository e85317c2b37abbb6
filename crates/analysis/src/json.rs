//! The one JSON writer: every JSON document the binaries print
//! (`mdw-lint --json` and `--model-stats`, the deadlock report,
//! `figures --bench`) is a [`Json`] tree rendered and escaped here.

use std::fmt::Display;

/// A JSON value, rendered by [`Json::document`] or [`Json::line`].
#[derive(Debug)]
pub enum Json {
    /// A number, `true`, `false` or `null`, written exactly as given.
    Raw(String),
    /// A string, quoted and escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are written in the given order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A number, boolean or `null`, formatted by the caller.
    pub fn raw(v: impl Display) -> Json {
        Json::Raw(v.to_string())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders a document ending in a newline: top-level keys and the
    /// elements of top-level arrays on their own lines, the rest inline:
    ///
    /// ```text
    /// {
    ///   "scalar": 1,
    ///   "table": [
    ///     {"nested": [1, 2], "deeper": {"inline": "yes"}}
    ///   ],
    ///   "empty": [
    ///   ]
    /// }
    /// ```
    pub fn document(&self) -> String {
        self.render(Some("")) + "\n"
    }

    /// Renders the value on one line, for JSON-lines output.
    pub fn line(&self) -> String {
        self.render(None)
    }

    /// Renders `self` inline, or one member per line when `indent` is the
    /// indentation of its closing bracket.
    fn render(&self, indent: Option<&str>) -> String {
        let members: Vec<String> = match self {
            Json::Raw(v) => return v.clone(),
            Json::Str(s) => return quote(s),
            Json::Arr(items) => items.iter().map(|v| v.render(None)).collect(),
            Json::Obj(fields) => fields
                .iter()
                .map(|(key, value)| {
                    // The top-level object's arrays get one element per line.
                    let lines = indent == Some("") && matches!(value, Json::Arr(_));
                    format!("{}: {}", quote(key), value.render(lines.then_some("  ")))
                })
                .collect(),
        };
        let (open, close) = match self {
            Json::Obj(_) => ('{', '}'),
            _ => ('[', ']'),
        };
        match indent {
            Some(i) => {
                let lines: Vec<String> = members.iter().map(|m| format!("\n{i}  {m}")).collect();
                format!("{open}{}\n{i}{close}", lines.join(","))
            }
            None => format!("{open}{}{close}", members.join(", ")),
        }
    }
}

/// `s` as a quoted JSON string.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[u32]) -> Json {
        Json::Arr(v.iter().map(Json::raw).collect())
    }

    #[test]
    fn document_puts_top_level_keys_and_rows_on_lines_and_the_rest_inline() {
        let doc = Json::Obj(vec![
            ("n", Json::raw(format!("{:.3}", 0.25))),
            ("flag", Json::raw(true)),
            ("map", Json::Obj(vec![("a", ints(&[1, 2]))])),
            (
                "rows",
                Json::Arr(vec![
                    Json::Obj(vec![("x", Json::raw("null")), ("s", Json::str("v"))]),
                    ints(&[]),
                ]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.document(),
            "{\n  \"n\": 0.250,\n  \"flag\": true,\n  \"map\": {\"a\": [1, 2]},\n  \
             \"rows\": [\n    {\"x\": null, \"s\": \"v\"},\n    []\n  ],\n  \
             \"empty\": [\n  ]\n}\n"
        );
        assert_eq!(Json::Obj(vec![]).document(), "{\n}\n");
    }

    #[test]
    fn line_is_the_inline_form() {
        let v = Json::Obj(vec![("k", Json::str("v")), ("a", ints(&[1, 2]))]);
        assert_eq!(v.line(), "{\"k\": \"v\", \"a\": [1, 2]}");
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let v = Json::Obj(vec![("q\"k", Json::str("a\"b\\c\nd\te\u{1}"))]);
        assert_eq!(v.line(), "{\"q\\\"k\": \"a\\\"b\\\\c\\nd\\te\\u0001\"}");
    }
}
