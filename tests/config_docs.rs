//! Smoke tests tying the documented configuration format to the code: the
//! TOML example embedded in `docs/CONFIG.md` must parse, produce the §4
//! testbed shape, and survive a serde round trip; the defaults each
//! section's page documents must match the code; and the key tables of
//! `docs/CONFIG.md` must list exactly the keys the reader accepts.

use celestial::config::{
    ChaosConfig, PathsConfig, ScenarioBlock, ScenarioConfig, ServeConfig, TenantsConfig,
    TestbedConfig,
};
use celestial_constellation::PathAlgorithm;
use std::collections::BTreeSet;

/// The documentation page this test validates.
const CONFIG_DOC: &str = include_str!("../docs/CONFIG.md");

/// Extracts the first fenced ```toml block from the documentation.
fn documented_example() -> &'static str {
    let start = CONFIG_DOC
        .find("```toml\n")
        .expect("docs/CONFIG.md contains a ```toml example")
        + "```toml\n".len();
    let end = CONFIG_DOC[start..]
        .find("```")
        .expect("the toml fence is closed")
        + start;
    &CONFIG_DOC[start..end]
}

#[test]
fn the_documented_example_parses_to_the_meetup_testbed() {
    let config = TestbedConfig::from_toml(documented_example()).expect("documented TOML parses");
    assert_eq!(config.seed, 2022);
    assert_eq!(config.update_interval_s, 2.0);
    assert_eq!(config.duration_s, 45.0);
    assert_eq!(config.path_algorithm, PathAlgorithm::Dijkstra);
    assert_eq!(config.hosts.len(), 3);
    assert_eq!(config.shells.len(), 1);
    assert_eq!(config.shells[0].satellite_count(), 1584);
    assert_eq!(config.ground_stations.len(), 2);
    assert_eq!(config.ground_stations[0].name, "accra");
    // The bounding box covers West Africa but not Johannesburg.
    assert!(config
        .bounding_box
        .contains(&celestial_types::geo::Geodetic::new(5.6, -0.19, 0.0)));
    assert!(!config
        .bounding_box
        .contains(&celestial_types::geo::Geodetic::new(-26.2, 28.0, 0.0)));
}

#[test]
fn the_documented_example_round_trips_through_serde() {
    let config = TestbedConfig::from_toml(documented_example()).expect("documented TOML parses");
    let json = serde_json::to_string(&config).expect("serializes");
    let back: TestbedConfig = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(config, back);
}

/// The chaos documentation page, whose `[chaos]` example lists every key
/// with its default value.
const CHAOS_DOC: &str = include_str!("../docs/CHAOS.md");

#[test]
fn the_documented_chaos_defaults_match_the_code() {
    let start = CHAOS_DOC
        .find("```toml\n")
        .expect("docs/CHAOS.md contains a ```toml example")
        + "```toml\n".len();
    let end = CHAOS_DOC[start..].find("```").expect("the toml fence is closed") + start;
    let block = &CHAOS_DOC[start..end];
    assert!(block.contains("[chaos]"), "the example documents the [chaos] table");
    let toml = format!(
        "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2\n\n{block}"
    );
    let config = TestbedConfig::from_toml(&toml).expect("documented chaos TOML parses");
    // The documented values are exactly the engine's defaults.
    assert_eq!(config.chaos, Some(ChaosConfig::default()));
}

/// The serving-plane documentation page, whose `[serve]` example lists
/// every key with its default value.
const SERVE_DOC: &str = include_str!("../docs/SERVE.md");

#[test]
fn the_documented_serve_defaults_match_the_code() {
    let start = SERVE_DOC
        .find("```toml\n")
        .expect("docs/SERVE.md contains a ```toml example")
        + "```toml\n".len();
    let end = SERVE_DOC[start..].find("```").expect("the toml fence is closed") + start;
    let block = &SERVE_DOC[start..end];
    assert!(block.contains("[serve]"), "the example documents the [serve] table");
    let toml = format!(
        "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2\n\n{block}"
    );
    let config = TestbedConfig::from_toml(&toml).expect("documented serve TOML parses");
    // The documented values are exactly the serving plane's defaults.
    assert_eq!(config.serve, Some(ServeConfig::default()));
    // A config with the serving plane on still round-trips through serde.
    let json = serde_json::to_string(&config).expect("serializes");
    let back: TestbedConfig = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(config, back);
}

/// The multi-tenancy documentation page, whose `[tenants]` example lists
/// every key with its default value.
const TENANTS_DOC: &str = include_str!("../docs/TENANTS.md");

#[test]
fn the_documented_tenants_defaults_match_the_code() {
    let start = TENANTS_DOC
        .find("```toml\n")
        .expect("docs/TENANTS.md contains a ```toml example")
        + "```toml\n".len();
    let end = TENANTS_DOC[start..].find("```").expect("the toml fence is closed") + start;
    let block = &TENANTS_DOC[start..end];
    assert!(block.contains("[tenants]"), "the example documents the [tenants] table");
    let toml = format!(
        "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2\n\n{block}"
    );
    let config = TestbedConfig::from_toml(&toml).expect("documented tenants TOML parses");
    // The documented values are exactly the fan-out's defaults.
    assert_eq!(config.tenants, Some(TenantsConfig::default()));
    // A config with tenancy on still round-trips through serde.
    let json = serde_json::to_string(&config).expect("serializes");
    let back: TestbedConfig = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(config, back);
}

/// The mega-constellation documentation page, whose `[paths]` example
/// lists every key with its default value.
const MEGASCALE_DOC: &str = include_str!("../docs/MEGASCALE.md");

#[test]
fn the_documented_paths_defaults_match_the_code() {
    let start = MEGASCALE_DOC
        .find("```toml\n")
        .expect("docs/MEGASCALE.md contains a ```toml example")
        + "```toml\n".len();
    let end = MEGASCALE_DOC[start..].find("```").expect("the toml fence is closed") + start;
    let block = &MEGASCALE_DOC[start..end];
    assert!(block.contains("[paths]"), "the example documents the [paths] table");
    let toml = format!(
        "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2\n\n{block}"
    );
    let config = TestbedConfig::from_toml(&toml).expect("documented paths TOML parses");
    // The documented values are exactly the solve scope's defaults.
    assert_eq!(config.paths, Some(PathsConfig::default()));
    // A config with the scope tuned still round-trips through serde.
    let json = serde_json::to_string(&config).expect("serializes");
    let back: TestbedConfig = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(config, back);
}

/// The scenario-engine documentation page, whose `[scenario]` example lists
/// every key of the table and of a block with its default value.
const SCENARIOS_DOC: &str = include_str!("../docs/SCENARIOS.md");

#[test]
fn the_documented_scenario_defaults_match_the_code() {
    let start = SCENARIOS_DOC
        .find("```toml\n")
        .expect("docs/SCENARIOS.md contains a ```toml example")
        + "```toml\n".len();
    let end = SCENARIOS_DOC[start..].find("```").expect("the toml fence is closed") + start;
    let block = &SCENARIOS_DOC[start..end];
    assert!(block.contains("[scenario]"), "the example documents the [scenario] table");
    assert!(
        block.contains("[[scenario.block]]"),
        "the example documents a [[scenario.block]]"
    );
    // A scenario needs a ground station to attach its blocks to.
    let toml = format!(
        "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2\n\n\
         [[ground-station]]\nname = \"accra\"\nlat = 5.6037\nlon = -0.187\n\n{block}"
    );
    let config = TestbedConfig::from_toml(&toml).expect("documented scenario TOML parses");
    // The documented values are exactly the generator's defaults: one
    // tenant, one all-default block.
    assert_eq!(
        config.scenario,
        Some(ScenarioConfig {
            tenants: 1,
            blocks: vec![ScenarioBlock::default()],
        })
    );
    // A config with the generator on still round-trips through serde.
    let json = serde_json::to_string(&config).expect("serializes");
    let back: TestbedConfig = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(config, back);
}

#[test]
fn defaults_listed_in_the_documentation_hold() {
    let minimal = "\n[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2\n";
    let config = TestbedConfig::from_toml(minimal).expect("minimal config parses");
    assert_eq!(config.seed, 0);
    assert_eq!(config.update_interval_s, 2.0);
    assert_eq!(config.duration_s, 600.0);
    assert_eq!(config.utilization_sample_interval_s, 1.0);
    assert_eq!(config.path_algorithm, PathAlgorithm::Dijkstra);
    assert!(!config.ballooning);
    assert_eq!(config.hosts.len(), 3);
    assert_eq!(config.hosts[0].cores, 32);
    assert_eq!(config.hosts[0].memory_mib, 32 * 1024);
    let shell = &config.shells[0];
    assert_eq!(shell.resources.vcpus, 2);
    assert_eq!(shell.resources.memory_mib, 512);
    assert_eq!(shell.min_elevation_deg, 25.0);
    assert_eq!(
        shell.isl_bandwidth,
        celestial_types::Bandwidth::from_gbps(10)
    );
}

/// The backticked spans of `text`.
fn backticked(text: &str) -> impl Iterator<Item = &str> {
    text.split('`').skip(1).step_by(2)
}

/// The `(section, key)` rows of the key tables in `docs/CONFIG.md`, and
/// the sections its headings document. A heading names its section in
/// backticks (`[chaos]`), or is the "Top-level keys" heading; a row's
/// first cell holds one or more backticked keys.
fn documented_keys() -> (BTreeSet<(String, String)>, BTreeSet<String>) {
    let mut rows = BTreeSet::new();
    let mut headings = BTreeSet::new();
    let mut section: Option<String> = None;
    for line in CONFIG_DOC.lines() {
        if line.starts_with('#') {
            section = if line.contains("Top-level keys") {
                Some("top-level".to_owned())
            } else {
                backticked(line).next().map(str::to_owned)
            };
            headings.extend(section.clone());
        } else if line.starts_with("| `") {
            let section = section.clone().expect("key rows sit under a section heading");
            let cell = line.split('|').nth(1).expect("a first cell");
            rows.extend(backticked(cell).map(|key| (section.clone(), key.to_owned())));
        }
    }
    (rows, headings)
}

/// The keys of the `[[scenario.block]]` in the `docs/SCENARIOS.md` example.
fn documented_block_keys() -> BTreeSet<String> {
    let start = SCENARIOS_DOC.find("```toml\n").expect("a toml example");
    let example = &SCENARIOS_DOC[start..];
    let example = &example[..example[3..].find("```").expect("closed fence")];
    let block = &example[example.find("[[scenario.block]]").expect("a block")..];
    block
        .lines()
        .filter_map(|line| line.split_once('='))
        .map(|(key, _)| key.trim().to_owned())
        .collect()
}

#[test]
fn the_documented_key_tables_match_the_code() {
    let keys = TestbedConfig::toml_keys();
    let (rows, headings) = documented_keys();
    let block_keys = documented_block_keys();
    let sections: BTreeSet<&str> = keys.iter().map(|(section, _)| *section).collect();
    // A key opening a nested section, e.g. `shell` at the top level or
    // `block` in `[scenario]`, is documented by that section's heading.
    let nested = |section: &str, key: &str| {
        let parent = section.trim_matches(['[', ']']);
        let path = if section == "top-level" { key.to_owned() } else { format!("{parent}.{key}") };
        sections
            .iter()
            .find(|s| s.trim_matches(['[', ']']) == path)
            .map(|s| s.to_string())
    };
    for (section, key) in &keys {
        match (nested(section, key), *section) {
            (Some(child), _) if child == "[[scenario.block]]" => {
                assert!(!block_keys.is_empty(), "docs/SCENARIOS.md shows no block")
            }
            (Some(child), _) => {
                assert!(headings.contains(&child), "docs/CONFIG.md has no {child} heading")
            }
            (None, "[[scenario.block]]") => assert!(
                block_keys.contains(*key),
                "the docs/SCENARIOS.md example lacks block key '{key}'"
            ),
            (None, _) => assert!(
                rows.contains(&(section.to_string(), key.to_string())),
                "docs/CONFIG.md documents no {section} key '{key}'"
            ),
        }
    }
    let accepted: BTreeSet<(String, String)> =
        keys.iter().map(|(s, k)| (s.to_string(), k.to_string())).collect();
    for row in &rows {
        assert!(accepted.contains(row), "docs/CONFIG.md documents unknown {} key '{}'", row.0, row.1);
    }
    for heading in &headings {
        assert!(sections.contains(heading.as_str()), "docs/CONFIG.md documents unknown {heading}");
    }
    for key in &block_keys {
        assert!(
            accepted.contains(&("[[scenario.block]]".to_owned(), key.clone())),
            "docs/SCENARIOS.md shows unknown block key '{key}'"
        );
    }
}
