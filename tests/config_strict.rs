//! The configuration reader is strict: bad input fails loudly with the key
//! and line it came from, never as a silent default, and no input panics.
//!
//! - arbitrary bytes and soups of configuration lines never panic
//!   `TestbedConfig::from_toml`;
//! - every TOML document the repository ships parses;
//! - every single-character misspelling of every key in those documents is
//!   rejected naming the misspelled key and its line;
//! - known wrong inputs (unknown keys and sections, wrapped integers,
//!   oversized fleets, ratios outside [0, 1]) are rejected naming the key
//!   and its line.
//!
//! The properties run `PROPTEST_CASES` cases (64 by default).

use celestial::config::TestbedConfig;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Records the largest single allocation, so a test can show that an
/// oversized fleet is rejected before anything is provisioned for it.
struct LargestAllocation;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the only addition is a statistic.
// The default `realloc` goes through `alloc`, so it is recorded too.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// The smallest valid shell, completing configuration fragments.
const SHELL: &str =
    "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2\n";

/// A ground station, for fragments running a scenario.
const STATION: &str = "[[ground-station]]\nname = \"accra\"\nlat = 5.6037\nlon = -0.187\n";

/// Every TOML document the repository ships, with where it came from: the
/// example scenario, the end-to-end test configuration and each ```toml
/// fence in `docs/*.md`. A fragment without a shell gets one appended (and a
/// ground station when it runs a scenario), which keeps its line numbers.
fn shipped() -> Vec<(String, String)> {
    let mut documents = vec![
        ("examples/scenario.toml".to_owned(), include_str!("../examples/scenario.toml").to_owned()),
        ("tests/full_config.toml".to_owned(), include_str!("full_config.toml").to_owned()),
    ];
    let docs = [
        ("docs/CHAOS.md", include_str!("../docs/CHAOS.md")),
        ("docs/CONFIG.md", include_str!("../docs/CONFIG.md")),
        ("docs/MEGASCALE.md", include_str!("../docs/MEGASCALE.md")),
        ("docs/NETPROG.md", include_str!("../docs/NETPROG.md")),
        ("docs/PATHS.md", include_str!("../docs/PATHS.md")),
        ("docs/PIPELINE.md", include_str!("../docs/PIPELINE.md")),
        ("docs/SCENARIOS.md", include_str!("../docs/SCENARIOS.md")),
        ("docs/SERVE.md", include_str!("../docs/SERVE.md")),
        ("docs/SHARDING.md", include_str!("../docs/SHARDING.md")),
        ("docs/TENANTS.md", include_str!("../docs/TENANTS.md")),
    ];
    for (path, text) in docs {
        for (index, fence) in text.split("```toml\n").skip(1).enumerate() {
            let mut document = fence.split("```").next().unwrap_or_default().to_owned();
            if !document.contains("[[shell]]") {
                document = format!("{document}\n{SHELL}");
                if document.contains("[scenario]") {
                    document.push_str(STATION);
                }
            }
            documents.push((format!("{path} fence {index}"), document));
        }
    }
    documents
}

/// A key or section-name token of a document, at a 1-based line.
struct Token {
    line: usize,
    /// Byte range of the token within its line.
    start: usize,
    end: usize,
}

/// Every key and every section-name segment written in `document`.
fn tokens(document: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    for (index, text) in document.lines().enumerate() {
        let code = text.split('#').next().unwrap_or_default();
        let line = index + 1;
        if code.trim_start().starts_with('[') {
            let open = code.find(|c: char| c != '[' && !c.is_whitespace()).unwrap_or(code.len());
            let close = code.find(']').unwrap_or(code.len());
            let mut start = open;
            for segment in code[open..close].split('.') {
                tokens.push(Token { line, start, end: start + segment.len() });
                start += segment.len() + 1;
            }
        } else if let Some((key, _)) = code.split_once('=') {
            let start = key.len() - key.trim_start().len();
            tokens.push(Token { line, start, end: key.trim_end().len() });
        }
    }
    tokens
}

/// Characters a misspelling may introduce: those of key names.
const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";

/// Applies one single-character edit to `word`: `kind` selects deletion,
/// substitution, insertion or transposition at `position`.
fn misspell(word: &str, kind: usize, position: usize, letter: u8) -> String {
    let mut bytes = word.as_bytes().to_vec();
    let at = position % bytes.len();
    match kind % 4 {
        0 => {
            bytes.remove(at);
        }
        1 => bytes[at] = letter,
        2 => bytes.insert(at, letter),
        _ => {
            let at = at.min(bytes.len() - 2);
            bytes.swap(at, at + 1);
        }
    }
    String::from_utf8(bytes).expect("key characters are ASCII")
}

/// Asserts that `from_toml` rejects `document` with an error naming `key`
/// and `line`.
fn assert_rejected(document: &str, key: &str, line: usize) -> Result<(), String> {
    match TestbedConfig::from_toml(document) {
        Ok(_) => Err(format!("accepted {key:?} on line {line}")),
        Err(err) => {
            let message = err.to_string();
            if message.contains(&format!("line {line}:")) && message.contains(&format!("'{key}'")) {
                Ok(())
            } else {
                Err(format!("error for {key:?} on line {line} does not name both: {message}"))
            }
        }
    }
}

/// Values of every type and range, for the line soup.
const VALUES: &[&str] = &[
    "-1", "0", "1", "95", "300", "5000", "10000000", "4294967297", "9223372036854775807",
    "1.5", "-95.0", "1e400", "nan", "inf", "\"x\"", "\"\"", "true", "[]", "[\"a\"]",
    "[1, [2]]", "[[[[[[[[1]]]]]]]]",
];

/// Section headers for the line soup, including unknown ones.
const HEADERS: &[&str] = &[
    "[bounding-box]", "[[shell]]", "[[ground-station]]", "[[host]]", "[chaos]", "[serve]",
    "[paths]", "[tenants]", "[[tenant]]", "[scenario]", "[[scenario.block]]", "[chaoss]",
    "[shell]", "[[chaos]]",
];

proptest! {
    /// Arbitrary bytes, bare or inside an arbitrarily deep array value,
    /// never panic the reader.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        depth in 0usize..200_000,
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let document = if depth % 2 == 0 {
            text.into_owned()
        } else {
            format!("x = {}{text}{}", "[".repeat(depth), "]".repeat(depth))
        };
        let _ = TestbedConfig::from_toml(&document);
    }

    /// Shipped documents stirred with soups of lines never panic the
    /// reader: most draws rewrite the value of a key line; the others
    /// insert an accepted key of any section or a section header. Values
    /// span every type and range.
    #[test]
    fn line_soups_never_panic(
        pick in 0usize..64,
        draws in prop::collection::vec(0usize..1 << 24, 0..64),
    ) {
        let documents = shipped();
        let keys = TestbedConfig::toml_keys();
        let mut lines: Vec<String> = documents[pick % documents.len()].1.lines().map(str::to_owned).collect();
        for draw in draws {
            let at = (draw / 4) % (lines.len() + 1);
            let value = VALUES[(draw >> 10) % VALUES.len()];
            match draw % 4 {
                0..=2 => {
                    let key = lines.get(at).and_then(|l| l.split_once('=')).map(|(k, _)| k.to_owned());
                    if let Some(key) = key {
                        lines[at] = format!("{key}= {value}");
                    }
                }
                _ if draw & 4 == 0 => {
                    lines.insert(at, format!("{} = {value}", keys[(draw >> 15) % keys.len()].1));
                }
                _ => lines.insert(at, HEADERS[(draw >> 15) % HEADERS.len()].to_owned()),
            }
        }
        let _ = TestbedConfig::from_toml(&lines.join("\n"));
    }

    /// Every key of every shipped document, misspelled by one character, is
    /// rejected naming the misspelled key and its line. Each case misspells
    /// every key once, each with its own drawn edit.
    #[test]
    fn single_character_misspellings_are_rejected_with_key_and_line(
        edits in prop::collection::vec(0usize..1 << 16, 256..257),
    ) {
        let known: Vec<&str> = TestbedConfig::toml_keys().into_iter().map(|(_, k)| k).collect();
        let mut edit = edits.iter().cycle();
        for (origin, document) in shipped() {
            let lines: Vec<&str> = document.lines().collect();
            for token in tokens(&document) {
                let draw = edit.next().expect("cycled");
                let line = lines[token.line - 1];
                let word = &line[token.start..token.end];
                let letter = KEY_CHARS[(draw >> 8) % KEY_CHARS.len()];
                let wrong = misspell(word, draw % 4, (draw >> 2) % 64, letter);
                if wrong == word || known.contains(&wrong.as_str()) {
                    continue;
                }
                let mut edited: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
                edited[token.line - 1] = format!("{}{wrong}{}", &line[..token.start], &line[token.end..]);
                let result = assert_rejected(&edited.join("\n"), &wrong, token.line);
                prop_assert!(result.is_ok(), "{origin}: {}", result.unwrap_err());
            }
        }
    }
}

#[test]
fn every_shipped_document_parses() {
    let documents = shipped();
    assert!(documents.len() >= 12, "found only {} shipped documents", documents.len());
    for (origin, document) in documents {
        assert!(!tokens(&document).is_empty(), "{origin} has no keys");
        if let Err(err) = TestbedConfig::from_toml(&document) {
            panic!("{origin} does not parse: {err}");
        }
    }
}

#[test]
fn known_bad_inputs_are_rejected_with_key_and_line() {
    let scenario_block = "[[scenario.block]]\nkind = \"cbr\"\n";
    let tenant_blocks = |n: usize| -> String {
        (0..n).map(|i| format!("[[tenant]]\nname = \"t{i}\"\n")).collect()
    };
    // (document, key the error names, its line, value the error quotes)
    let cases: Vec<(String, &str, usize, &str)> = vec![
        (format!("sede = 2026\n{SHELL}"), "sede", 1, ""),
        (format!("{SHELL}[chaoss]\nplane-outages = 1\n"), "chaoss", 6, ""),
        (format!("bounding-box = 5\n{SHELL}"), "bounding-box", 1, ""),
        (format!("{SHELL}[[tenant]]\nname = \"a\"\ncount = 7\n"), "count", 8, ""),
        (format!("{SHELL}[tenants]\ncount = 4294967297\n"), "count", 7, "4294967297"),
        (
            format!("{SHELL}{STATION}[scenario]\ntenants = 4294967297\n{scenario_block}"),
            "tenants",
            11,
            "4294967297",
        ),
        (SHELL.replace("planes = 1", "planes = -1"), "planes", 4, "-1"),
        (format!("{SHELL}[[host]]\ncores = -1\n"), "cores", 7, "-1"),
        (format!("{SHELL}vcpus = -2\n"), "vcpus", 6, "-2"),
        (format!("{SHELL}isl-bandwidth-kbps = -5\n"), "isl-bandwidth-kbps", 6, "-5"),
        (
            format!("{SHELL}isl-bandwidth-kbps = 9223372036854775807\n"),
            "isl-bandwidth-kbps",
            6,
            "9223372036854775807",
        ),
        (
            format!("{SHELL}[chaos]\nsolar-storm-cpu-share-percent = 300\n"),
            "solar-storm-cpu-share-percent",
            7,
            "300",
        ),
        (format!("{SHELL}[bounding-box]\nlat-min = 95\nlat-max = 96\nlon-min = 0\nlon-max = 1\n"),
            "bounding-box", 6, ""),
        (format!("x = {}\n{SHELL}", "[".repeat(100_000)), "x", 1, ""),
        (format!("shards = 10000000\n{SHELL}"), "shards", 1, "10000000"),
        (format!("shards = 4294967297\n{SHELL}"), "shards", 1, "4294967297"),
        (format!("{SHELL}[tenants]\ncount = 5000\n"), "count", 7, "5000"),
        (format!("{SHELL}{}", tenant_blocks(4097)), "tenant", 6, "4097"),
        (
            format!("{SHELL}{STATION}[scenario]\ntenants = 5000\n{scenario_block}"),
            "tenants",
            11,
            "5000",
        ),
        (
            format!("{SHELL}{STATION}[[scenario.block]]\nname = \"edge\"\nhit-ratio = 1.5\n"),
            "hit-ratio",
            12,
            "1.5",
        ),
    ];
    for (document, key, line, value) in &cases {
        LARGEST.store(0, Ordering::Relaxed);
        let err = TestbedConfig::from_toml(document)
            .map(|_| ())
            .expect_err(&format!("accepted the '{key}' probe"))
            .to_string();
        assert!(
            err.contains(&format!("line {line}:")) && err.contains(&format!("'{key}'")),
            "the '{key}' probe names no key and line: {err}"
        );
        assert!(err.contains(value), "the '{key}' probe does not quote {value}: {err}");
        if *key == "shards" {
            // No host fleet was provisioned for the rejected shard count.
            let largest = LARGEST.load(Ordering::Relaxed);
            assert!(largest < 16 << 20, "a {largest}-byte allocation for '{document}'");
        }
    }
}

#[test]
fn ground_station_resources_override_one_at_a_time() {
    let station = |extra: &str| {
        let config = TestbedConfig::from_toml(&format!("{SHELL}{STATION}{extra}"))
            .expect("valid config");
        let resources = &config.ground_stations[0].resources;
        (resources.vcpus, resources.memory_mib)
    };
    assert_eq!(station(""), (4, 4096), "paper client defaults");
    assert_eq!(station("vcpus = 16\n"), (16, 4096));
    assert_eq!(station("memory-mib = 8192\n"), (4, 8192));
    assert_eq!(station("vcpus = 8\nmemory-mib = 8192\n"), (8, 8192));
}

#[test]
fn the_builder_rejects_oversized_shard_counts_without_provisioning() {
    let shell = celestial_constellation::Shell::from_walker(celestial_sgp4::WalkerShell::new(
        550.0, 53.0, 1, 2,
    ));
    for shards in [0, 4097, 10_000_000, u32::MAX] {
        LARGEST.store(0, Ordering::Relaxed);
        let err = TestbedConfig::builder()
            .shell(shell.clone())
            .shards(shards)
            .build()
            .expect_err("oversized shard count accepted");
        assert!(err.to_string().contains("shards"), "{err}");
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(largest < 16 << 20, "a {largest}-byte allocation for shards = {shards}");
    }
}
