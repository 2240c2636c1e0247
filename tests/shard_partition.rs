//! Property tests of the host-sharded programme partition
//! (`docs/SHARDING.md`):
//!
//! (a) the union of the per-host deltas, replayed from epoch 0, equals the
//!     global programme at every timestep,
//! (b) every cross-host pair appears in exactly its two endpoint shards and
//!     every same-host pair in exactly one, and
//! (c) the partition is invariant under host-count re-pinning of the
//!     round-robin placement: it is a pure function of the nodes' stable pin
//!     indices modulo the host count, and relabelling the hosts permutes the
//!     per-host deltas accordingly.

use celestial::pipeline::PipelineMode;
use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, ScopeParams, Shell};
use celestial_netem::shard::{PlacementPolicy, ShardPlan};
use celestial_netem::ProgrammeDelta;
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::SimDuration;
use celestial_types::{Bandwidth, Latency};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn constellation() -> Constellation {
    Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("valid constellation")
}

fn sharded_coordinator(hosts: u32, interval_s: f64) -> Coordinator {
    Coordinator::with_scoped_fanout(
        constellation(),
        SimDuration::from_secs_f64(interval_s),
        PipelineMode::Synchronous,
        Some(ShardPlan::new(hosts)),
        vec!["tenant-0".to_owned()],
        ScopeParams::default(),
    )
}

type Programme = BTreeMap<(NodeId, NodeId), (Latency, Bandwidth)>;

fn replay(map: &mut Programme, delta: &ProgrammeDelta) {
    for pair in delta.added.iter().chain(&delta.changed) {
        map.insert((pair.a, pair.b), (pair.latency, pair.bandwidth));
    }
    for pair in &delta.removed {
        map.remove(pair);
    }
}

/// Rebuilds the expected per-host partition of a global delta from nothing
/// but the placement pinning — the independent reference the store's
/// in-walk partition is checked against.
fn partition_reference(delta: &ProgrammeDelta, hosts: u32) -> Vec<ProgrammeDelta> {
    let plan = ShardPlan::new(hosts);
    let mut out: Vec<ProgrammeDelta> = (0..hosts)
        .map(|_| ProgrammeDelta {
            epoch: delta.epoch,
            ..ProgrammeDelta::default()
        })
        .collect();
    let shards = |a: NodeId, b: NodeId| {
        let (ha, hb) = plan.shards_of_pair(a, b);
        (ha.index(), hb.map(|h| h.index()))
    };
    for pair in &delta.added {
        let (ha, hb) = shards(pair.a, pair.b);
        out[ha].added.push(*pair);
        if let Some(hb) = hb {
            out[hb].added.push(*pair);
        }
    }
    for pair in &delta.changed {
        let (ha, hb) = shards(pair.a, pair.b);
        out[ha].changed.push(*pair);
        if let Some(hb) = hb {
            out[hb].changed.push(*pair);
        }
    }
    for &(a, b) in &delta.removed {
        let (ha, hb) = shards(a, b);
        out[ha].removed.push((a, b));
        if let Some(hb) = hb {
            out[hb].removed.push((a, b));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Property (a): replaying every host's delta stream from epoch 0 and
    /// taking the union reproduces the global programme at every timestep,
    /// for arbitrary host counts, start times and update intervals — and the
    /// mirrored copies of a cross-host pair always agree on the programmed
    /// values.
    #[test]
    fn union_of_host_replays_equals_the_global_programme(
        hosts in 1u32..9,
        t0 in 0.0f64..2000.0,
        interval in 0.5f64..10.0,
        steps in 3usize..6,
    ) {
        let mut coordinator = sharded_coordinator(hosts, interval);
        let mut global: Programme = BTreeMap::new();
        let mut per_host: Vec<Programme> = vec![BTreeMap::new(); hosts as usize];
        for step in 0..steps {
            coordinator.update(t0 + step as f64 * interval).expect("update");
            replay(&mut global, coordinator.programme_delta());
            let host_deltas = coordinator.host_deltas();
            prop_assert_eq!(host_deltas.len(), hosts as usize);
            for (replayed, delta) in per_host.iter_mut().zip(host_deltas) {
                replay(replayed, delta);
            }
            let mut union: Programme = BTreeMap::new();
            for replayed in &per_host {
                for (&pair, &value) in replayed {
                    if let Some(existing) = union.insert(pair, value) {
                        prop_assert_eq!(
                            existing, value,
                            "mirrored copies of {:?} disagree at step {}", pair, step
                        );
                    }
                }
            }
            prop_assert_eq!(&union, &global, "union diverged at step {}", step);
        }
    }
}

/// Property (b): every entry of the global delta appears in exactly its
/// endpoint shards — twice when the endpoints live on different hosts, once
/// when they share one — and shards never contain a foreign pair.
#[test]
fn every_pair_lands_in_exactly_its_endpoint_shards() {
    let hosts = 4u32;
    let plan = ShardPlan::new(hosts);
    let mut coordinator = sharded_coordinator(hosts, 1.0);
    let mut cross_seen = 0usize;
    let mut local_seen = 0usize;
    for step in 0..25 {
        coordinator.update(f64::from(step)).expect("update");
        let global = coordinator.programme_delta();
        let host_deltas = coordinator.host_deltas();

        // Count occurrences of every entry across all shards.
        let mut count: BTreeMap<(NodeId, NodeId, u8), usize> = BTreeMap::new();
        for (host, delta) in host_deltas.iter().enumerate() {
            for pair in &delta.added {
                let (ha, hb) = plan.shards_of_pair(pair.a, pair.b);
                assert!(
                    ha.index() == host || hb.map(|h| h.index()) == Some(host),
                    "shard {host} holds foreign pair {}-{}", pair.a, pair.b
                );
                *count.entry((pair.a, pair.b, 0)).or_default() += 1;
            }
            for pair in &delta.changed {
                *count.entry((pair.a, pair.b, 1)).or_default() += 1;
            }
            for &(a, b) in &delta.removed {
                *count.entry((a, b, 2)).or_default() += 1;
            }
        }
        let mut check = |a: NodeId, b: NodeId, kind: u8| {
            let expected = if plan.host_of(a) == plan.host_of(b) {
                local_seen += 1;
                1
            } else {
                cross_seen += 1;
                2
            };
            assert_eq!(
                count.remove(&(a, b, kind)),
                Some(expected),
                "pair {a}-{b} (kind {kind}) multiplicity at step {step}"
            );
        };
        for pair in &global.added {
            check(pair.a, pair.b, 0);
        }
        for pair in &global.changed {
            check(pair.a, pair.b, 1);
        }
        for &(a, b) in &global.removed {
            check(a, b, 2);
        }
        assert!(count.is_empty(), "shards contain entries absent from the global delta: {count:?}");
    }
    // The constellation exercised both classes, so the test wasn't vacuous.
    assert!(cross_seen > 0, "no cross-host pairs seen");
    assert!(local_seen > 0, "no same-host pairs seen");
}

/// Property (c): the partition is a pure function of the nodes' stable pin
/// indices modulo the host count. For every host count it matches the
/// reference rebuilt from the pinning alone, and relabelling the hosts with
/// any permutation permutes the per-host deltas with it.
#[test]
fn partition_is_invariant_under_host_count_re_pinning() {
    let policy = PlacementPolicy::RoundRobin;
    for hosts in [1u32, 2, 3, 5, 8] {
        let mut coordinator = sharded_coordinator(hosts, 1.0);
        for step in 0..8 {
            coordinator.update(f64::from(step)).expect("update");
            let global = coordinator.programme_delta();
            let reference = partition_reference(global, hosts);
            assert_eq!(
                coordinator.host_deltas(),
                &reference[..],
                "partition diverged from the pin-derived reference at {hosts} hosts, step {step}"
            );
            // Pin stability: the shard of every entry is pin % hosts — the
            // pin itself does not depend on the host count.
            for pair in global.added.iter().chain(&global.changed) {
                let plan = ShardPlan::new(hosts);
                assert_eq!(plan.host_of(pair.a).index(), policy.pin(pair.a) % hosts as usize);
                assert_eq!(plan.host_of(pair.b).index(), policy.pin(pair.b) % hosts as usize);
            }
            // Relabelling invariance: bucketing by π(host) yields exactly
            // the π-permuted per-host deltas, for a non-trivial permutation.
            let permutation: Vec<usize> =
                (0..hosts as usize).map(|h| (h + 1) % hosts as usize).collect();
            let mut permuted: Vec<ProgrammeDelta> = (0..hosts)
                .map(|_| ProgrammeDelta {
                    epoch: global.epoch,
                    ..ProgrammeDelta::default()
                })
                .collect();
            for (host, delta) in reference.iter().enumerate() {
                permuted[permutation[host]] = delta.clone();
            }
            for (host, delta) in coordinator.host_deltas().iter().enumerate() {
                assert_eq!(
                    &permuted[permutation[host]], delta,
                    "relabelling broke the partition at {hosts} hosts"
                );
            }
        }
    }
}
