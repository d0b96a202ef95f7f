//! Result rendering shared by the HTTP handlers and the test suite.
//!
//! Both the planner pipeline (`Vec<Tuple>`) and the interpreter
//! (`Sequence` of [`Item`]s) funnel into the same [`Row`] shape, so a
//! query answered from the plan cache, the cold planner, or the
//! interpreter renders byte-identically. Tests exploit this: they run
//! [`PathPlan::execute_parallel`](mct_query::PathPlan) directly,
//! render with these functions, and compare against server responses
//! byte for byte.

use mct_core::{ColorSet, McNodeId, Palette, StoredDb};
use mct_query::{Item, Tuple};
use mct_storage::DiskManager;
use std::fmt::Write;

/// One result row: a node projected to (name, content, colors), or a
/// scalar from the interpreter. Rows borrow from the store (and the
/// interpreter's items), so building one copies nothing.
#[derive(Clone, Copy, Debug)]
pub enum Row<'a> {
    /// An element with its tag name, text content, and colors.
    Node {
        /// Tag name.
        name: &'a str,
        /// Text content (empty for structure-only elements).
        content: &'a str,
        /// Every color the node participates in.
        colors: ColorSet,
        /// Names for `colors`.
        palette: &'a Palette,
    },
    /// A string value.
    Str(&'a str),
    /// A numeric value.
    Num(f64),
    /// A boolean value.
    Bool(bool),
}

/// Project one node to a [`Row`].
pub fn node_row<D: DiskManager>(s: &StoredDb<D>, n: McNodeId) -> Row<'_> {
    Row::Node {
        name: s.db.name_str(n).unwrap_or("?"),
        content: s.db.content(n).unwrap_or(""),
        colors: s.db.colors(n),
        palette: &s.db.palette,
    }
}

/// Rows for a planner result set (first column of each tuple, matching
/// `mctq --plan-exec` output).
pub fn rows_from_tuples<'a, D: DiskManager>(s: &'a StoredDb<D>, tuples: &[Tuple]) -> Vec<Row<'a>> {
    tuples.iter().map(|t| node_row(s, t[0].node)).collect()
}

/// Rows for an interpreter result sequence.
pub fn rows_from_items<'a, D: DiskManager>(s: &'a StoredDb<D>, items: &'a [Item]) -> Vec<Row<'a>> {
    items
        .iter()
        .map(|item| match item {
            Item::Node(n, _) => node_row(s, *n),
            Item::Str(v) => Row::Str(v),
            Item::Num(v) => Row::Num(*v),
            Item::Bool(v) => Row::Bool(*v),
        })
        .collect()
}

/// Append `s` with every byte `special` accepts replaced by
/// `escape(byte)`, copying the runs between them whole. `special` must
/// accept only ASCII bytes, so every run boundary is a `char` boundary.
fn escape_runs(
    s: &str,
    out: &mut String,
    special: impl Fn(u8) -> bool,
    escape: impl Fn(u8, &mut String),
) {
    let mut from = 0;
    for (i, b) in s.bytes().enumerate() {
        if special(b) {
            out.push_str(&s[from..i]);
            escape(b, out);
            from = i + 1;
        }
    }
    out.push_str(&s[from..]);
}

fn xml_escape(s: &str, out: &mut String) {
    escape_runs(
        s,
        out,
        |b| matches!(b, b'&' | b'<' | b'>' | b'"'),
        |b, out| {
            out.push_str(match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                _ => "&quot;",
            })
        },
    );
}

fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    escape_runs(
        s,
        out,
        |b| b == b'"' || b == b'\\' || b < 0x20,
        |b, out| match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        },
    );
    out.push('"');
}

/// Render rows as the `/query` XML body.
pub fn render_xml(rows: &[Row]) -> String {
    let mut out = format!("<results count=\"{}\">\n", rows.len());
    for row in rows {
        match *row {
            Row::Node {
                name,
                content,
                colors,
                palette,
            } => {
                out.push_str("  <node name=\"");
                xml_escape(name, &mut out);
                out.push_str("\" colors=\"");
                for (j, c) in colors.iter().enumerate() {
                    if j > 0 {
                        out.push(' ');
                    }
                    xml_escape(palette.name(c), &mut out);
                }
                out.push_str("\">");
                xml_escape(content, &mut out);
                out.push_str("</node>\n");
            }
            Row::Str(v) => {
                out.push_str("  <value>");
                xml_escape(v, &mut out);
                out.push_str("</value>\n");
            }
            Row::Num(v) => {
                let _ = writeln!(out, "  <value>{v}</value>");
            }
            Row::Bool(v) => {
                let _ = writeln!(out, "  <value>{v}</value>");
            }
        }
    }
    out.push_str("</results>\n");
    out
}

/// Render rows as the `/query` JSON body (`?format=json`).
pub fn render_json(rows: &[Row]) -> String {
    let mut out = format!("{{\"count\":{},\"rows\":[", rows.len());
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match *row {
            Row::Node {
                name,
                content,
                colors,
                palette,
            } => {
                out.push_str("{\"name\":");
                json_escape(name, &mut out);
                out.push_str(",\"content\":");
                json_escape(content, &mut out);
                out.push_str(",\"colors\":[");
                for (j, c) in colors.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json_escape(palette.name(c), &mut out);
                }
                out.push_str("]}");
            }
            Row::Str(v) => {
                out.push_str("{\"value\":");
                json_escape(v, &mut out);
                out.push('}');
            }
            Row::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{{\"value\":{v}}}");
                } else {
                    out.push_str("{\"value\":null}");
                }
            }
            Row::Bool(v) => {
                let _ = write!(out, "{{\"value\":{v}}}");
            }
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn palette() -> Palette {
        let mut p = Palette::new();
        p.register("red");
        p.register("green");
        p
    }

    fn node<'a>(name: &'a str, content: &'a str, palette: &'a Palette) -> Row<'a> {
        Row::Node {
            name,
            content,
            colors: palette.iter().map(|(c, _)| c).collect(),
            palette,
        }
    }

    #[test]
    fn xml_rendering_escapes_markup() {
        let p = palette();
        let rows = vec![
            node("a<b", "x & y", &p),
            Row::Str("s\"q"),
            Row::Num(3.5),
            Row::Bool(true),
        ];
        let xml = render_xml(&rows);
        assert!(xml.contains("count=\"4\""));
        assert!(xml.contains("name=\"a&lt;b\" colors=\"red green\">x &amp; y</node>"));
        assert!(xml.contains("<value>s&quot;q</value>"));
        assert!(xml.contains("<value>3.5</value>"));
        assert!(xml.contains("<value>true</value>"));
    }

    #[test]
    fn json_rendering_escapes_strings() {
        let p = palette();
        let rows = vec![
            Row::Node {
                name: "n",
                content: "line\nbreak",
                colors: ColorSet::single(mct_core::ColorId(0)),
                palette: &p,
            },
            Row::Str("q\""),
            Row::Num(f64::NAN),
        ];
        let json = render_json(&rows);
        assert!(json.starts_with("{\"count\":3,\"rows\":["));
        assert!(json.contains("\"content\":\"line\\nbreak\",\"colors\":[\"red\"]"));
        assert!(json.contains("{\"value\":\"q\\\"\"}"));
        assert!(json.contains("{\"value\":null}"));
        assert!(json.ends_with("]}\n"));
    }

    /// Per-`char` reference escapers: what the run-copying ones must
    /// reproduce byte for byte.
    fn xml_escape_chars(s: &str) -> String {
        let mut out = String::new();
        for ch in s.chars() {
            match ch {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                _ => out.push(ch),
            }
        }
        out
    }

    fn json_escape_chars(s: &str) -> String {
        let mut out = String::from("\"");
        for ch in s.chars() {
            match ch {
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
        out
    }

    #[test]
    fn run_copying_escapes_match_per_char_escaping() {
        let cases = [
            "",
            "plain ascii text 123",
            "&",
            "<",
            ">",
            "\"",
            "a&b<c>d\"e",
            "&&<<>>\"\"",
            "caf\u{e9}&na\u{ef}ve",
            "\u{65e5}<\u{672c}>\u{8a9e}",
            "\u{1f600}\"\u{1f600}",
            "\u{e9}",
            "tab\there\nnew\rline",
            "\u{0}\u{1}\u{1f}\u{7f}\\back\\",
            "\u{e9}\u{1}\u{e9}\\",
        ];
        for case in cases {
            let mut xml = String::new();
            xml_escape(case, &mut xml);
            assert_eq!(xml, xml_escape_chars(case), "xml {case:?}");
            let mut json = String::new();
            json_escape(case, &mut json);
            assert_eq!(json, json_escape_chars(case), "json {case:?}");
        }
    }
}
