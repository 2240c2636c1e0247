//! A hand-written parser for the TOML subset used by Celestial configuration
//! files.
//!
//! Celestial passes all experiment parameters in a single TOML file to limit
//! side effects and ensure repeatable testing (§3.1). The subset supported
//! here covers what such configuration files need: top-level key/value pairs,
//! `[tables]`, `[[arrays of tables]]`, dotted section names one or more
//! levels deep (`[[scenario.block]]` nests under the `scenario` table,
//! creating it implicitly if needed), strings, integers, floats, booleans
//! and flat arrays. Inline tables and dotted *keys* are not supported.

use celestial_types::{Error, Result};
use std::collections::BTreeMap;

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
    /// A flat array of values.
    Array(Vec<TomlValue>),
    /// A table of key/value pairs.
    Table(TomlTable),
    /// An array of tables (`[[name]]` sections).
    TableArray(Vec<TomlTable>),
}

/// A table: ordered map from keys to values.
pub type TomlTable = BTreeMap<String, TomlValue>;

impl TomlValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float; integers are widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TomlValue::Float(f) => Some(*f),
            TomlValue::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            TomlValue::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TomlValue::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a table.
    pub fn as_table(&self) -> Option<&TomlTable> {
        match self {
            TomlValue::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The value as an array of tables.
    pub fn as_table_array(&self) -> Option<&[TomlTable]> {
        match self {
            TomlValue::TableArray(tables) => Some(tables),
            _ => None,
        }
    }

    /// The value as a flat array.
    pub fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses a TOML document into its top-level table.
///
/// # Errors
///
/// Returns [`Error::Config`] describing the offending line on any syntax the
/// subset does not support.
pub fn parse(input: &str) -> Result<TomlTable> {
    let mut root: TomlTable = BTreeMap::new();
    // Path of the table currently being filled: None = root, otherwise the
    // dot-separated section path and whether it is an array-of-tables
    // element.
    let mut current_section: Option<(Vec<String>, bool)> = None;
    // Explicit `[name]` headers already seen, to reject duplicates while
    // still allowing tables created implicitly by dotted children.
    let mut declared: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();

    for (line_no, raw_line) in input.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = name.trim();
            let path = section_path(name, line_no)?;
            let parent = open_parent(&mut root, &path, line_no)?;
            let last = path.last().expect("section paths are non-empty");
            match parent
                .entry(last.clone())
                .or_insert_with(|| TomlValue::TableArray(Vec::new()))
            {
                TomlValue::TableArray(tables) => tables.push(BTreeMap::new()),
                _ => {
                    return Err(Error::config(format!(
                        "line {}: '{name}' is already defined as a non-array table",
                        line_no + 1
                    )))
                }
            }
            current_section = Some((path, true));
        } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim();
            let path = section_path(name, line_no)?;
            if !declared.insert(path.join(".")) {
                return Err(Error::config(format!(
                    "line {}: table '{name}' defined twice",
                    line_no + 1
                )));
            }
            let parent = open_parent(&mut root, &path, line_no)?;
            let last = path.last().expect("section paths are non-empty");
            match parent
                .entry(last.clone())
                .or_insert_with(|| TomlValue::Table(BTreeMap::new()))
            {
                TomlValue::Table(_) => {}
                _ => {
                    return Err(Error::config(format!(
                        "line {}: '{name}' is already defined as an array of tables",
                        line_no + 1
                    )))
                }
            }
            current_section = Some((path, false));
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_owned();
            if key.is_empty() {
                return Err(Error::config(format!("line {}: empty key", line_no + 1)));
            }
            let value = parse_value(value.trim(), line_no)?;
            let target: &mut TomlTable = match &current_section {
                None => &mut root,
                Some((path, _)) => open_section(&mut root, path),
            };
            if target.insert(key.clone(), value).is_some() {
                return Err(Error::config(format!(
                    "line {}: duplicate key '{key}'",
                    line_no + 1
                )));
            }
        } else {
            return Err(Error::config(format!(
                "line {}: cannot parse '{line}'",
                line_no + 1
            )));
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
        return Err(Error::config(format!(
            "line {}: unsupported section name '{name}'",
            line_no + 1
        )));
    }
    Ok(segments)
}

/// Returns the table the section's *parent* path names, creating
/// intermediate tables implicitly (so `[[scenario.block]]` may appear before
/// any `[scenario]` header). Intermediate array-of-tables segments resolve to
/// their most recent element, as in standard TOML.
fn open_parent<'a>(
    root: &'a mut TomlTable,
    path: &[String],
    line_no: usize,
) -> Result<&'a mut TomlTable> {
    let mut table = root;
    for segment in &path[..path.len() - 1] {
        let value = table
            .entry(segment.clone())
            .or_insert_with(|| TomlValue::Table(BTreeMap::new()));
        table = match value {
            TomlValue::Table(t) => t,
            TomlValue::TableArray(tables) => {
                tables.last_mut().expect("array headers always push an element")
            }
            _ => {
                return Err(Error::config(format!(
                    "line {}: '{segment}' is not a table",
                    line_no + 1
                )))
            }
        };
    }
    Ok(table)
}

/// Navigates to the table the current section header selected (the most
/// recent element when a path segment is an array of tables).
fn open_section<'a>(root: &'a mut TomlTable, path: &[String]) -> &'a mut TomlTable {
    let mut table = root;
    for segment in path {
        table = match table.get_mut(segment).expect("section header inserted the path") {
            TomlValue::Table(t) => t,
            TomlValue::TableArray(tables) => {
                tables.last_mut().expect("section header pushed a table")
            }
            _ => unreachable!("section bookkeeping is consistent"),
        };
    }
    table
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

fn parse_value(text: &str, line_no: usize) -> Result<TomlValue> {
    let text = text.trim();
    if text.is_empty() {
        return Err(Error::config(format!("line {}: missing value", line_no + 1)));
    }
    if let Some(stripped) = text.strip_prefix('"') {
        let Some(end) = stripped.find('"') else {
            return Err(Error::config(format!(
                "line {}: unterminated string",
                line_no + 1
            )));
        };
        let rest = stripped[end + 1..].trim();
        if !rest.is_empty() {
            return Err(Error::config(format!(
                "line {}: trailing characters after string",
                line_no + 1
            )));
        }
        return Ok(TomlValue::String(stripped[..end].to_owned()));
    }
    if text == "true" {
        return Ok(TomlValue::Boolean(true));
    }
    if text == "false" {
        return Ok(TomlValue::Boolean(false));
    }
    if let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(TomlValue::Array(Vec::new()));
        }
        let items = split_array_items(inner)
            .into_iter()
            .map(|item| parse_value(item.trim(), line_no))
            .collect::<Result<Vec<_>>>()?;
        return Ok(TomlValue::Array(items));
    }
    // Numbers: prefer integer when there is no decimal point or exponent.
    let numeric = text.replace('_', "");
    if !numeric.contains('.') && !numeric.contains(['e', 'E']) {
        if let Ok(i) = numeric.parse::<i64>() {
            return Ok(TomlValue::Integer(i));
        }
    }
    if let Ok(f) = numeric.parse::<f64>() {
        return Ok(TomlValue::Float(f));
    }
    Err(Error::config(format!(
        "line {}: cannot parse value '{text}'",
        line_no + 1
    )))
}

fn split_array_items(inner: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth = depth.saturating_sub(1),
            ',' if !in_string && depth == 0 => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < inner.len() {
        items.push(&inner[start..]);
    }
    items
}

/// Typed accessors over a parsed table. An absent key is `None`; a key
/// that is present with the wrong type is an error naming the key, never a
/// silent default.
pub trait TableExt {
    /// A required float value (integers widen).
    fn require_f64(&self, key: &str) -> Result<f64>;
    /// An optional float value (integers widen).
    fn get_f64(&self, key: &str) -> Result<Option<f64>>;
    /// An optional integer value.
    fn get_i64(&self, key: &str) -> Result<Option<i64>>;
    /// An optional string value.
    fn get_str(&self, key: &str) -> Result<Option<&str>>;
    /// An optional boolean value.
    fn get_bool(&self, key: &str) -> Result<Option<bool>>;
}

/// Converts the value of `key`, if present, failing when it has another
/// type than `expected`.
fn typed<'a, T>(
    table: &'a TomlTable,
    key: &str,
    expected: &str,
    convert: impl FnOnce(&'a TomlValue) -> Option<T>,
) -> Result<Option<T>> {
    match table.get(key) {
        None => Ok(None),
        Some(value) => convert(value)
            .map(Some)
            .ok_or_else(|| Error::config(format!("key '{key}' must be {expected}"))),
    }
}

impl TableExt for TomlTable {
    fn require_f64(&self, key: &str) -> Result<f64> {
        self.get_f64(key)?
            .ok_or_else(|| Error::config(format!("missing key '{key}'")))
    }

    fn get_f64(&self, key: &str) -> Result<Option<f64>> {
        typed(self, key, "a number", TomlValue::as_f64)
    }

    fn get_i64(&self, key: &str) -> Result<Option<i64>> {
        typed(self, key, "an integer", TomlValue::as_i64)
    }

    fn get_str(&self, key: &str) -> Result<Option<&str>> {
        typed(self, key, "a string", TomlValue::as_str)
    }

    fn get_bool(&self, key: &str) -> Result<Option<bool>> {
        typed(self, key, "a boolean", TomlValue::as_bool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let table = parse(doc).expect("valid document");
        assert_eq!(table.get_i64("seed").unwrap(), Some(42));
        assert_eq!(table.get_f64("update-interval-s").unwrap(), Some(2.5));
        assert_eq!(table.get_str("name").unwrap(), Some("starlink meetup"));
        assert_eq!(table.get_bool("animate").unwrap(), Some(false));
        let bbox = table["bounding-box"].as_table().expect("table");
        assert_eq!(bbox.get_f64("lat-min").unwrap(), Some(-5.0));
        assert_eq!(bbox.get_f64("lat-max").unwrap(), Some(25.0));
        let shells = table["shell"].as_table_array().expect("table array");
        assert_eq!(shells.len(), 2);
        assert_eq!(shells[1].get_f64("altitude-km").unwrap(), Some(1110.0));
    }

    #[test]
    fn parses_arrays() {
        let table = parse("ports = [1, 2, 3]\nnames = [\"a\", \"b\"]\nempty = []").unwrap();
        let ports = table["ports"].as_array().unwrap();
        assert_eq!(ports.len(), 3);
        assert_eq!(ports[2].as_i64(), Some(3));
        let names = table["names"].as_array().unwrap();
        assert_eq!(names[1].as_str(), Some("b"));
        assert!(table["empty"].as_array().unwrap().is_empty());
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
        let table = parse(doc).expect("valid document");
        let scenario = table["scenario"].as_table().expect("table");
        assert_eq!(scenario.get_i64("tenants").unwrap(), Some(4));
        let blocks = scenario["block"].as_table_array().expect("table array");
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].get_str("kind").unwrap(), Some("cbr"));
        assert_eq!(blocks[0].get_i64("population").unwrap(), Some(100));
        assert_eq!(blocks[1].get_str("kind").unwrap(), Some("iot"));
    }

    #[test]
    fn dotted_sections_create_parents_implicitly_and_merge_later_headers() {
        // The child appears before any [scenario] header; the parent table is
        // created implicitly and a later explicit header fills the same table.
        let doc = "[[scenario.block]]\nkind = \"cbr\"\n\n[scenario]\ntenants = 2\n";
        let table = parse(doc).expect("valid document");
        let scenario = table["scenario"].as_table().expect("table");
        assert_eq!(scenario.get_i64("tenants").unwrap(), Some(2));
        assert_eq!(scenario["block"].as_table_array().unwrap().len(), 1);
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
        let table = parse("name = \"value # not a comment\" # real comment").unwrap();
        assert_eq!(table.get_str("name").unwrap(), Some("value # not a comment"));
    }

    #[test]
    fn integers_with_underscores_and_floats_with_exponent() {
        let table = parse("big = 1_000_000\nsmall = 1.5e-3").unwrap();
        assert_eq!(table.get_i64("big").unwrap(), Some(1_000_000));
        assert!((table.get_f64("small").unwrap().unwrap() - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn require_f64_reports_missing_keys() {
        let table = parse("x = 1").unwrap();
        assert!(table.require_f64("x").is_ok());
        let err = table.require_f64("y").unwrap_err();
        assert!(err.to_string().contains("'y'"));
    }

}
