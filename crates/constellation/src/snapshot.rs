//! Snapshots of machine activity and diffs between them.
//!
//! Celestial's coordinator recomputes the constellation at a fixed update
//! interval and sends the *changes* to the machine managers on each host:
//! machines to boot, suspend or resume as satellites cross the bounding box.
//! [`ConstellationSnapshot`] is the desired activity of every machine at one
//! instant, and [`ConstellationDiff`] is the change set between two
//! snapshots. Links are not part of it: they are shaped from the per-host
//! programme delta of the `ProgrammeStore` (`celestial::netprog`).

use crate::constellation::ConstellationState;
use celestial_types::ids::NodeId;
use serde::{Deserialize, Serialize};

/// Whether a node's machine should be running or suspended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineActivity {
    /// The machine should be running.
    Active,
    /// The machine should be suspended (satellite outside the bounding box).
    Suspended,
}

/// A wire-level snapshot of the constellation at one instant: the desired
/// activity of every machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ConstellationSnapshot {
    /// The simulated time of the snapshot in seconds.
    pub time_seconds: f64,
    /// Desired activity per node, in node-index order — satellites shell by
    /// shell, then ground stations, which is ascending [`NodeId`] order.
    pub machines: Vec<(NodeId, MachineActivity)>,
}

impl ConstellationSnapshot {
    /// Builds a snapshot from a computed constellation state: satellites
    /// follow their bounding-box activity, ground stations are always active.
    pub fn from_state(state: &ConstellationState) -> Self {
        let satellites = state.active_raw().iter().map(|&active| {
            if active {
                MachineActivity::Active
            } else {
                MachineActivity::Suspended
            }
        });
        let ground_stations =
            std::iter::repeat_n(MachineActivity::Active, state.ground_station_count());
        let machines = satellites
            .chain(ground_stations)
            .enumerate()
            .map(|(idx, activity)| (state.node_id(idx).expect("index in range"), activity))
            .collect();
        ConstellationSnapshot {
            time_seconds: state.time_seconds,
            machines,
        }
    }

    /// Computes the change set that transforms this snapshot into `newer` in
    /// one pass over both machine lists, so every list of the diff ascends in
    /// [`NodeId`] order.
    ///
    /// Both snapshots come from one constellation, whose node set is fixed,
    /// or this one is empty (the [`Default`] before the first epoch) and
    /// every machine of `newer` is added.
    pub fn diff(&self, newer: &ConstellationSnapshot) -> ConstellationDiff {
        let mut diff = ConstellationDiff {
            time_seconds: newer.time_seconds,
            ..ConstellationDiff::default()
        };
        for (idx, &(node, activity)) in newer.machines.iter().enumerate() {
            match self.machines.get(idx) {
                None => diff.machines_added.push((node, activity)),
                Some(&(old_node, old)) => {
                    debug_assert_eq!(old_node, node, "snapshots of different constellations");
                    if old != activity {
                        match activity {
                            MachineActivity::Active => diff.activated.push(node),
                            MachineActivity::Suspended => diff.suspended.push(node),
                        }
                    }
                }
            }
        }
        diff
    }

    /// Applies a change set to this snapshot, producing the newer snapshot.
    /// `snapshot.apply(&snapshot.diff(&newer))` reproduces `newer`.
    pub fn apply(&self, diff: &ConstellationDiff) -> ConstellationSnapshot {
        let mut result = self.clone();
        result.time_seconds = diff.time_seconds;
        let mut set = |node: NodeId, activity| match result
            .machines
            .binary_search_by_key(&node, |&(node, _)| node)
        {
            Ok(idx) => result.machines[idx].1 = activity,
            Err(idx) => result.machines.insert(idx, (node, activity)),
        };
        for &(node, activity) in &diff.machines_added {
            set(node, activity);
        }
        for &node in &diff.activated {
            set(node, MachineActivity::Active);
        }
        for &node in &diff.suspended {
            set(node, MachineActivity::Suspended);
        }
        result
    }
}

/// The change set between two consecutive snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ConstellationDiff {
    /// The simulated time of the newer snapshot in seconds.
    pub time_seconds: f64,
    /// Nodes that appear for the first time, with their initial activity.
    pub machines_added: Vec<(NodeId, MachineActivity)>,
    /// Machines to resume (satellite re-entered the bounding box).
    pub activated: Vec<NodeId>,
    /// Machines to suspend (satellite left the bounding box).
    pub suspended: Vec<NodeId>,
}

impl ConstellationDiff {
    /// Returns true if the diff contains no changes at all.
    pub fn is_empty(&self) -> bool {
        self.change_count() == 0
    }

    /// Total number of changed machines in the diff.
    pub fn change_count(&self) -> usize {
        self.machines_added.len() + self.activated.len() + self.suspended.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::Constellation;
    use crate::ground_station::presets;
    use crate::shell::Shell;
    use crate::BoundingBox;
    use celestial_sgp4::WalkerShell;
    use proptest::prelude::*;

    fn constellation() -> Constellation {
        Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 4, 6)))
            .ground_station(presets::accra())
            .bounding_box(BoundingBox::west_africa())
            .build()
            .expect("valid constellation")
    }

    /// Two shells, as in the paper's meetup constellation: node indices of
    /// the second shell follow the first's.
    fn two_shells() -> Constellation {
        Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 4, 6)))
            .shell(Shell::from_walker(WalkerShell::new(1110.0, 53.8, 3, 5)))
            .ground_station(presets::accra())
            .bounding_box(BoundingBox::west_africa())
            .build()
            .expect("valid constellation")
    }

    fn ascending(nodes: impl IntoIterator<Item = NodeId>) -> bool {
        let nodes: Vec<NodeId> = nodes.into_iter().collect();
        nodes.windows(2).all(|pair| pair[0] < pair[1])
    }

    #[test]
    fn snapshot_covers_all_nodes() {
        let c = constellation();
        let state = c.state_at(0.0).unwrap();
        let snapshot = ConstellationSnapshot::from_state(&state);
        assert_eq!(snapshot.machines.len(), 25);
        // Ground stations are always active.
        assert_eq!(
            snapshot.machines.last(),
            Some(&(NodeId::ground_station(0), MachineActivity::Active))
        );
    }

    #[test]
    fn identical_snapshots_have_empty_diff() {
        let c = constellation();
        let state = c.state_at(0.0).unwrap();
        let snap = ConstellationSnapshot::from_state(&state);
        let diff = snap.diff(&snap);
        assert!(diff.is_empty());
        assert_eq!(diff.change_count(), 0);
    }

    #[test]
    fn diff_apply_round_trips() {
        let c = constellation();
        let s0 = ConstellationSnapshot::from_state(&c.state_at(0.0).unwrap());
        let s1 = ConstellationSnapshot::from_state(&c.state_at(300.0).unwrap());
        let diff = s0.diff(&s1);
        assert_eq!(diff.time_seconds, 300.0);
        let rebuilt = s0.apply(&diff);
        assert_eq!(rebuilt, s1);
    }

    #[test]
    fn bounding_box_transitions_show_up_as_suspend_resume() {
        let c = constellation();
        // Scan a few update steps and confirm that at least one satellite
        // transitions between active and suspended (satellites cross the
        // West Africa box within minutes).
        let mut saw_transition = false;
        let mut prev = ConstellationSnapshot::from_state(&c.state_at(0.0).unwrap());
        for step in 1..30 {
            let next = ConstellationSnapshot::from_state(&c.state_at(step as f64 * 60.0).unwrap());
            let diff = prev.diff(&next);
            if !diff.activated.is_empty() || !diff.suspended.is_empty() {
                saw_transition = true;
                break;
            }
            prev = next;
        }
        assert!(saw_transition, "no suspend/resume transition in 30 minutes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn apply_diff_reproduces_target_for_any_times(t0 in 0.0f64..3600.0, t1 in 0.0f64..3600.0) {
            for c in [constellation(), two_shells()] {
                let s0 = ConstellationSnapshot::from_state(&c.state_at(t0).unwrap());
                let s1 = ConstellationSnapshot::from_state(&c.state_at(t1).unwrap());
                let diff = s0.diff(&s1);
                prop_assert_eq!(s0.apply(&diff), s1.clone());
                let first = ConstellationSnapshot::default().diff(&s1);
                prop_assert_eq!(ConstellationSnapshot::default().apply(&first), s1);
                // The testbed boots and suspends in the order of these lists.
                prop_assert!(ascending(first.machines_added.iter().map(|&(node, _)| node)));
                prop_assert!(ascending(diff.activated.iter().copied()));
                prop_assert!(ascending(diff.suspended.iter().copied()));
            }
        }
    }
}
