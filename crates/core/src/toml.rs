//! A hand-written parser for the TOML subset used by Celestial configuration
//! files.
//!
//! Celestial passes all experiment parameters in a single TOML file to limit
//! side effects and ensure repeatable testing (§3.1). The subset supported
//! here covers what such configuration files need: top-level key/value pairs,
//! `[tables]`, `[[arrays of tables]]`, dotted section names one or more
//! levels deep (`[[scenario.block]]` nests under the `scenario` table,
//! creating it implicitly if needed), strings, integers, floats, booleans
//! and flat arrays. Inline tables, nested arrays and dotted *keys* are not
//! supported. Every key and table header keeps its 1-based line, so errors
//! about the document — here or in `crate::config` — name where it went
//! wrong.

use celestial_types::{Error, Result};
use std::collections::{BTreeMap, BTreeSet};

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A quoted string.
    String(String),
    /// An integer.
    Integer(i64),
    /// A floating point number.
    Float(f64),
    /// A boolean.
    Boolean(bool),
    /// A flat array of scalar values.
    Array(Vec<TomlValue>),
    /// A table of key/value pairs.
    Table(TomlTable),
    /// An array of tables (`[[name]]` sections).
    TableArray(Vec<TomlTable>),
}

/// A table: its keys, each with the line it was written on, and the line of
/// the header that opened it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlTable {
    /// 1-based line of the `[header]` that opened the table; 0 for the
    /// document root.
    pub line: usize,
    /// Each key's 1-based line and value. A key holding a table or an array
    /// of tables carries the line of its first header.
    pub entries: BTreeMap<String, (usize, TomlValue)>,
}

impl TomlTable {
    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries.get(key).map(|(_, value)| value)
    }
}

/// A configuration error located at a 1-based input line.
pub(crate) fn line_error(line: usize, message: impl std::fmt::Display) -> Error {
    Error::config(format!("line {line}: {message}"))
}

/// Parses a TOML document into its top-level table.
///
/// # Errors
///
/// Returns [`Error::Config`] naming the offending line on any syntax the
/// subset does not support.
pub fn parse(input: &str) -> Result<TomlTable> {
    let mut root = TomlTable::default();
    // Path of the table currently being filled; empty for the root.
    let mut current: Vec<String> = Vec::new();
    // Explicit `[name]` headers already seen, to reject duplicates while
    // still allowing tables created implicitly by dotted children.
    let mut declared: BTreeSet<String> = BTreeSet::new();

    for (index, raw_line) in input.lines().enumerate() {
        let line_no = index + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let header = (line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")).map(|n| (n, true)))
            .or_else(|| line.strip_prefix('[').and_then(|l| l.strip_suffix(']')).map(|n| (n, false)));
        if let Some((name, array)) = header {
            let name = name.trim();
            let path = section_path(name, line_no)?;
            if !array && !declared.insert(path.join(".")) {
                return Err(line_error(line_no, format!("table '{name}' defined twice")));
            }
            let (last, parents) = path.split_last().expect("section paths are non-empty");
            let table = TomlTable { line: line_no, ..TomlTable::default() };
            let fresh = if array {
                TomlValue::TableArray(Vec::new())
            } else {
                TomlValue::Table(table.clone())
            };
            let parent = open(&mut root, parents, line_no)?;
            match (&mut parent.entries.entry(last.clone()).or_insert((line_no, fresh)).1, array) {
                (TomlValue::TableArray(tables), true) => tables.push(table),
                // A table created implicitly by a dotted child takes the
                // line of its explicit header.
                (TomlValue::Table(existing), false) => existing.line = line_no,
                (_, true) => {
                    return Err(line_error(line_no, format!("'{name}' is already a non-array table")))
                }
                (_, false) => {
                    return Err(line_error(line_no, format!("'{name}' is already an array of tables")))
                }
            }
            current = path;
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_owned();
            if key.is_empty() {
                return Err(line_error(line_no, "empty key"));
            }
            let value = parse_value(value.trim())
                .map_err(|problem| line_error(line_no, format!("key '{key}' {problem}")))?;
            let target = open(&mut root, &current, line_no)?;
            if target.entries.insert(key.clone(), (line_no, value)).is_some() {
                return Err(line_error(line_no, format!("duplicate key '{key}'")));
            }
        } else {
            return Err(line_error(line_no, format!("cannot parse '{line}'")));
        }
    }
    Ok(root)
}

/// Splits a section header into its dot-separated path segments.
fn section_path(name: &str, line_no: usize) -> Result<Vec<String>> {
    let segments: Vec<String> = name.split('.').map(|s| s.trim().to_owned()).collect();
    if name.is_empty()
        || segments
            .iter()
            .any(|s| s.is_empty() || s.contains('[') || s.contains(']'))
    {
        return Err(line_error(line_no, format!("unsupported section name '{name}'")));
    }
    Ok(segments)
}

/// Returns the table `path` names, creating missing tables implicitly (so
/// `[[scenario.block]]` may appear before any `[scenario]` header). Array of
/// tables segments resolve to their most recent element, as in standard
/// TOML.
fn open<'a>(root: &'a mut TomlTable, path: &[String], line_no: usize) -> Result<&'a mut TomlTable> {
    let mut table = root;
    for segment in path {
        let implicit = TomlTable { line: line_no, ..TomlTable::default() };
        let (_, value) =
            table.entries.entry(segment.clone()).or_insert((line_no, TomlValue::Table(implicit)));
        table = match value {
            TomlValue::Table(t) => t,
            TomlValue::TableArray(tables) => {
                tables.last_mut().expect("array headers always push an element")
            }
            _ => return Err(line_error(line_no, format!("'{segment}' is not a table"))),
        };
    }
    Ok(table)
}

fn strip_comment(line: &str) -> &str {
    // A '#' starts a comment unless it is inside a quoted string.
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a value: a scalar, or a flat array of scalars. Errors describe
/// the problem for the caller to attach to the key and line.
fn parse_value(text: &str) -> std::result::Result<TomlValue, String> {
    let Some(rest) = text.strip_prefix('[') else {
        return parse_scalar(text);
    };
    let inner = rest.strip_suffix(']').ok_or("has an unterminated array")?.trim();
    if inner.is_empty() {
        return Ok(TomlValue::Array(Vec::new()));
    }
    // Items split at commas outside strings; one trailing comma is allowed.
    let mut in_string = false;
    inner
        .strip_suffix(',')
        .unwrap_or(inner)
        .split(|c| {
            if c == '"' {
                in_string = !in_string;
            }
            c == ',' && !in_string
        })
        .map(|item| parse_scalar(item.trim()))
        .collect::<std::result::Result<_, _>>()
        .map(TomlValue::Array)
}

fn parse_scalar(text: &str) -> std::result::Result<TomlValue, String> {
    if text.is_empty() {
        return Err("is missing a value".into());
    }
    if text.starts_with('[') {
        return Err("holds a nested array; arrays are flat".into());
    }
    if let Some(stripped) = text.strip_prefix('"') {
        let end = stripped.find('"').ok_or("has an unterminated string")?;
        if !stripped[end + 1..].trim().is_empty() {
            return Err("has trailing characters after a string".into());
        }
        return Ok(TomlValue::String(stripped[..end].to_owned()));
    }
    if text == "true" {
        return Ok(TomlValue::Boolean(true));
    }
    if text == "false" {
        return Ok(TomlValue::Boolean(false));
    }
    // Numbers: prefer integer when there is no decimal point or exponent.
    let numeric = text.replace('_', "");
    if !numeric.contains('.') && !numeric.contains(['e', 'E']) {
        if let Ok(i) = numeric.parse::<i64>() {
            return Ok(TomlValue::Integer(i));
        }
    }
    numeric
        .parse::<f64>()
        .map(TomlValue::Float)
        .map_err(|_| format!("has an unparseable value '{text}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value<'a>(table: &'a TomlTable, key: &str) -> &'a TomlValue {
        table.get(key).unwrap_or_else(|| panic!("key '{key}' present"))
    }

    fn table<'a>(parent: &'a TomlTable, key: &str) -> &'a TomlTable {
        match value(parent, key) {
            TomlValue::Table(table) => table,
            other => panic!("'{key}' is not a table: {other:?}"),
        }
    }

    fn tables<'a>(parent: &'a TomlTable, key: &str) -> &'a [TomlTable] {
        match value(parent, key) {
            TomlValue::TableArray(tables) => tables,
            other => panic!("'{key}' is not an array of tables: {other:?}"),
        }
    }

    fn array<'a>(parent: &'a TomlTable, key: &str) -> &'a [TomlValue] {
        match value(parent, key) {
            TomlValue::Array(items) => items,
            other => panic!("'{key}' is not an array: {other:?}"),
        }
    }

    fn string(s: &str) -> TomlValue {
        TomlValue::String(s.to_owned())
    }

    #[test]
    fn parses_scalars_tables_and_table_arrays() {
        let doc = r#"
# experiment configuration
seed = 42
update-interval-s = 2.5
name = "starlink meetup"   # inline comment
animate = false

[bounding-box]
lat-min = -5.0
lat-max = 25

[[shell]]
altitude-km = 550.0
planes = 72

[[shell]]
altitude-km = 1110.0
planes = 32
"#;
        let doc = parse(doc).expect("valid document");
        assert_eq!(value(&doc, "seed"), &TomlValue::Integer(42));
        assert_eq!(value(&doc, "update-interval-s"), &TomlValue::Float(2.5));
        assert_eq!(value(&doc, "name"), &string("starlink meetup"));
        assert_eq!(value(&doc, "animate"), &TomlValue::Boolean(false));
        let bbox = table(&doc, "bounding-box");
        assert_eq!(value(bbox, "lat-min"), &TomlValue::Float(-5.0));
        assert_eq!(value(bbox, "lat-max"), &TomlValue::Integer(25));
        let shells = tables(&doc, "shell");
        assert_eq!(shells.len(), 2);
        assert_eq!(value(&shells[1], "altitude-km"), &TomlValue::Float(1110.0));
    }

    #[test]
    fn records_the_line_of_every_key_and_header() {
        let doc = "seed = 1\n\n[[shell]]\nplanes = 2\n[[shell]]\n\nplanes = 3\n[chaos]\n";
        let doc = parse(doc).expect("valid document");
        assert_eq!(doc.line, 0);
        assert_eq!(doc.entries["seed"].0, 1);
        assert_eq!(doc.entries["shell"].0, 3, "an array of tables keeps its first header");
        let shells = tables(&doc, "shell");
        assert_eq!((shells[0].line, shells[0].entries["planes"].0), (3, 4));
        assert_eq!((shells[1].line, shells[1].entries["planes"].0), (5, 7));
        assert_eq!(table(&doc, "chaos").line, 8);
        // A table created implicitly by a dotted child takes the line of its
        // later explicit header.
        let doc = parse("[[scenario.block]]\nkind = \"cbr\"\n[scenario]\n").unwrap();
        assert_eq!(table(&doc, "scenario").line, 3);
    }

    #[test]
    fn parses_arrays() {
        let doc = parse("ports = [1, 2, 3]\nnames = [\"a\", \"b,c\",]\nempty = []").unwrap();
        let ports = array(&doc, "ports");
        assert_eq!(ports.len(), 3);
        assert_eq!(ports[2], TomlValue::Integer(3));
        let names = array(&doc, "names");
        assert_eq!(names.len(), 2, "one trailing comma is allowed");
        assert_eq!(names[1], string("b,c"));
        assert!(array(&doc, "empty").is_empty());
    }

    #[test]
    fn nested_arrays_are_rejected_with_their_line() {
        for doc in ["a = 1\nx = [[1], [2]]", "a = 1\nx = [1, [2]]", "a = 1\nx = [1, 2"] {
            let err = parse(doc).unwrap_err().to_string();
            assert!(err.contains("line 2: key 'x'"), "{doc:?}: {err}");
        }
        // Deep nesting is an error, not a stack overflow.
        for deep in ["[".repeat(100_000), format!("{}{}", "[".repeat(100_000), "]".repeat(100_000))] {
            let err = parse(&format!("x = {deep}")).unwrap_err().to_string();
            assert!(err.contains("line 1: key 'x'"), "{err}");
        }
    }

    #[test]
    fn rejects_duplicate_keys_and_tables() {
        assert!(parse("a = 1\na = 2").is_err());
        assert!(parse("[t]\nx = 1\n[t]\ny = 2").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("this is not toml").is_err());
        assert!(parse("key = ").is_err());
        assert!(parse("key = \"unterminated").is_err());
        assert!(parse("[bad..name]\n").is_err());
        assert!(parse("[.bad]\n").is_err());
        assert!(parse("= 3").is_err());
    }

    #[test]
    fn parses_dotted_sections_and_nested_table_arrays() {
        let doc = r#"
[scenario]
tenants = 4

[[scenario.block]]
kind = "cbr"
population = 100

[[scenario.block]]
kind = "iot"
"#;
        let doc = parse(doc).expect("valid document");
        let scenario = table(&doc, "scenario");
        assert_eq!(value(scenario, "tenants"), &TomlValue::Integer(4));
        let blocks = tables(scenario, "block");
        assert_eq!(blocks.len(), 2);
        assert_eq!(value(&blocks[0], "kind"), &string("cbr"));
        assert_eq!(value(&blocks[0], "population"), &TomlValue::Integer(100));
        assert_eq!(value(&blocks[1], "kind"), &string("iot"));
    }

    #[test]
    fn dotted_sections_create_parents_implicitly_and_merge_later_headers() {
        // The child appears before any [scenario] header; the parent table is
        // created implicitly and a later explicit header fills the same table.
        let doc = "[[scenario.block]]\nkind = \"cbr\"\n\n[scenario]\ntenants = 2\n";
        let doc = parse(doc).expect("valid document");
        let scenario = table(&doc, "scenario");
        assert_eq!(value(scenario, "tenants"), &TomlValue::Integer(2));
        assert_eq!(tables(scenario, "block").len(), 1);
        // Duplicate explicit headers are still rejected.
        assert!(parse("[a.b]\nx = 1\n[a.b]\ny = 2").is_err());
        // A dotted child under a scalar is rejected.
        assert!(parse("a = 1\n[[a.b]]\nx = 1").is_err());
        // Table/array mixing is rejected at nested level too.
        assert!(parse("[a.b]\nx = 1\n[[a.b]]\ny = 2").is_err());
    }

    #[test]
    fn mixing_table_and_table_array_is_rejected() {
        assert!(parse("[shell]\nx = 1\n[[shell]]\ny = 2").is_err());
    }

    #[test]
    fn comments_and_hash_in_strings() {
        let doc = parse("name = \"value # not a comment\" # real comment").unwrap();
        assert_eq!(value(&doc, "name"), &string("value # not a comment"));
    }

    #[test]
    fn integers_with_underscores_and_floats_with_exponent() {
        let doc = parse("big = 1_000_000\nsmall = 1.5e-3").unwrap();
        assert_eq!(value(&doc, "big"), &TomlValue::Integer(1_000_000));
        assert_eq!(value(&doc, "small"), &TomlValue::Float(1.5e-3));
    }
}
