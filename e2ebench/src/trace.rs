//! The traced replay: the epochs of a run driven once more through each
//! layer's public call, each call wrapped in a span.
//!
//! Spans are recorded here, around the calls into the layers, never inside
//! the program. The replay builds a coordinator exactly as `Testbed::new`
//! does and, beside it, the layer calls that `EpochCompute::compute` makes,
//! in the same order and on an identical constellation. The compute-layer
//! spans name the coordinator span of the same epoch as their parent: they
//! are the work `Coordinator::update` contains, measured on a twin, so the
//! coordinator's self time is its duration minus theirs.

use crate::probe::CallbackSpan;
use crate::stats::median;
use celestial::config::TestbedConfig;
use celestial::netprog::ProgrammeStore;
use celestial::snapshot::SnapshotStore;
use celestial::Coordinator;
use celestial_constellation::{
    Constellation, ConstellationSnapshot, PathAlgorithm, PathEngine, SolveScope, StateBuffers,
};
use celestial_netem::overlay::HostOverlay;
use celestial_netem::shard::{NetworkPlane, PlacementPolicy, ShardPlan};
use celestial_serve::pipeline::Envelope;
use celestial_serve::plane::{build_pipeline, ServePlane};
use celestial_types::ids::{NodeId, TenantId};
use celestial_types::time::{SimDuration, SimInstant};
use celestial_types::{Error, Latency, Result};
use httpd::{Client, Method, Request};
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Info-API queries issued per epoch, both in process and over HTTP.
const QUERIES: [&str; 2] = ["/self", "/path/0.gst/1.gst"];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub epoch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log, written out when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Runs `work` inside a span and returns its result and the span index.
    fn time<T>(
        &mut self,
        layer: &'static str,
        epoch: u64,
        parent: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed();
        let value = work();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            layer,
            epoch,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
        });
        (value, self.spans.len() - 1)
    }

    /// Adds the application callbacks of a traced run as `apps` spans.
    pub fn extend_callbacks(&mut self, callbacks: &[CallbackSpan]) {
        self.spans.extend(callbacks.iter().map(|c| Span {
            layer: "apps",
            epoch: c.epoch,
            start_ns: c.start_ns,
            end_ns: c.end_ns,
            parent: None,
        }));
    }

    /// Writes one line per span: `index,layer,epoch,start_ns,end_ns,parent`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,layer,epoch,start_ns,end_ns,parent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{},{},{},{},{parent}",
                s.layer, s.epoch, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Total nanoseconds of `layer` over the epochs the run window covers
    /// (epoch 0 is computed during set-up).
    pub fn run_ns(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.epoch > 0)
            .map(Span::ns)
            .sum()
    }

    /// Self time of `layer` in the run window: duration minus the durations
    /// of its child spans.
    pub fn run_self_ns(&self, layer: &str) -> u64 {
        let mut total = 0i128;
        for (i, s) in self.spans.iter().enumerate() {
            if s.layer == layer && s.epoch > 0 {
                total += i128::from(s.ns());
                total -= self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| i128::from(c.ns()))
                    .sum::<i128>();
            }
        }
        total.max(0) as u64
    }
}

/// Counts the replay observes, summed over the run window's epochs.
#[derive(Debug, Default)]
pub struct Counts {
    pub epochs: u64,
    pub nodes: u64,
    pub links: u64,
    pub machine_changes: u64,
    pub scope_sources: u64,
    pub scope_required: u64,
    pub scope_landmarks: u64,
    pub settled: u64,
    /// Settlements the bounded rows needed: required nodes per bounded row.
    pub useful_settled: u64,
    pub programme_pairs: u64,
    pub delta_ops: u64,
    pub apply_ops: u64,
    pub snapshots: u64,
    pub requests: u64,
    pub rejected: u64,
    pub handle_us: Vec<f64>,
    pub client_us: Vec<f64>,
}

impl Counts {
    pub fn transport_p50_us(&self) -> f64 {
        median(&self.client_us) - median(&self.handle_us)
    }
}

/// Replays the epochs of `config` through the layer calls, recording spans
/// into `recorder`.
///
/// The first pass follows the testbed's order at each epoch boundary: the
/// coordinator update, then every tenant's network apply. The second pass
/// runs the twin computation over the same epochs, and the third drives a
/// fresh coordinator again to feed the serving side, which no timed run
/// has. Separate passes keep each layer's caches as warm as in a run.
///
/// # Errors
///
/// Propagates layer errors, and fails if the twin computation disagrees
/// with the coordinator on any tenant's programme.
pub fn replay(config: &TestbedConfig, recorder: &mut Recorder) -> Result<Counts> {
    if config.chaos.is_some() {
        return Err(Error::Application(
            "the replay does not model [chaos]".to_owned(),
        ));
    }
    let constellation = Constellation::builder()
        .shells(config.shells.iter().cloned())
        .ground_stations(config.ground_stations.iter().cloned())
        .bounding_box(config.bounding_box)
        .path_algorithm(config.path_algorithm)
        .build()?;
    if constellation.path_algorithm() == PathAlgorithm::Incremental {
        return Err(Error::Application(
            "the replay models the scoped solve only".to_owned(),
        ));
    }
    let tenant_names: Vec<String> = match (&config.scenario, &config.tenants) {
        (Some(scenario), _) => scenario.tenant_names(),
        (None, Some(tenants)) => tenants.tenant_names(),
        (None, None) => vec!["tenant-0".to_owned()],
    };
    let tenant_count = tenant_names.len();
    let shard_plan = config.shards.map(ShardPlan::new);
    let scope_params = config.paths.map(|p| p.scope_params()).unwrap_or_default();
    let interval = SimDuration::from_secs_f64(config.update_interval_s);
    let end = SimInstant::from_secs_f64(config.duration_s);
    let mut epochs = Vec::new();
    let mut now = SimInstant::EPOCH;
    while now <= end {
        epochs.push(now.as_secs_f64());
        now += interval;
    }
    let mut counts = Counts::default();

    // Pass 1: the coordinator, built as `Testbed::new` builds it.
    let mut coordinator = Coordinator::with_scoped_fanout(
        constellation.clone(),
        interval,
        config.pipeline,
        shard_plan,
        tenant_names.clone(),
        scope_params,
    );
    // Each tenant's network plane, built and placed as the testbed does.
    let hosts = config.hosts.len();
    let mut networks: Vec<(NetworkPlane, BTreeSet<NodeId>)> = (0..tenant_count)
        .map(|_| {
            let mut network = match shard_plan {
                Some(plan) => NetworkPlane::sharded(plan),
                None => NetworkPlane::global(HostOverlay::new(hosts as u32)),
            };
            if let Some(us) = config.host_latency_us {
                network.set_default_host_latency(Latency::from_micros(us));
            }
            (network, BTreeSet::new())
        })
        .collect();
    // Per epoch: the coordinator's span and every tenant's (delta
    // operations, programme pairs), which the twin must reproduce.
    let mut coordinator_spans = Vec::with_capacity(epochs.len());
    let mut programmes: Vec<Vec<(usize, usize)>> = Vec::with_capacity(epochs.len());
    for (epoch, &t) in epochs.iter().enumerate() {
        let epoch = epoch as u64;
        let (update, span) =
            recorder.time("core.coordinator", epoch, None, || coordinator.update(t));
        update?;
        coordinator_spans.push(span);
        programmes.push(
            coordinator
                .database()
                .tenant_reports()
                .iter()
                .map(|report| (report.delta_ops, report.pairs))
                .collect(),
        );

        let (ops, _) = recorder.time("netem.apply", epoch, None, || {
            let mut ops = 0u64;
            for (i, (network, placed)) in networks.iter_mut().enumerate() {
                let tenant = TenantId(i as u32);
                let delta = coordinator.programme_delta_for(tenant);
                for pair in &delta.added {
                    for node in [pair.a, pair.b] {
                        if placed.insert(node) {
                            network.place(node, PlacementPolicy::RoundRobin.host_for(node, hosts));
                        }
                    }
                }
                match network {
                    NetworkPlane::Global(network) => {
                        network.apply_delta(delta);
                    }
                    NetworkPlane::Sharded(sharded) => {
                        sharded.apply_delta_sharded(coordinator.host_deltas_for(tenant));
                    }
                }
                ops += delta.op_count() as u64;
            }
            ops
        });
        if epoch > 0 {
            counts.apply_ops += ops;
        }
    }

    // Pass 2: the twin of `EpochCompute`, built the way its constructor
    // builds it, making the layer calls in `EpochCompute::compute` order.
    let mut buffers = StateBuffers::new();
    let mut previous: Option<ConstellationSnapshot> = None;
    let mut scope = SolveScope::new();
    let mut engine = PathEngine::new(constellation.path_algorithm());
    let mut template = ProgrammeStore::new();
    template.set_threads(buffers.threads());
    template.set_shard_plan(shard_plan);
    let mut stores = vec![template; tenant_count];
    let mut sources: Vec<u32> = Vec::new();
    for (epoch, &t) in epochs.iter().enumerate() {
        let parent = Some(coordinator_spans[epoch]);
        let epoch = epoch as u64;
        let (propagated, _) = recorder.time("constellation.state", epoch, parent, || {
            constellation.state_at_into(t, &mut buffers)
        });
        propagated?;
        let state = buffers.state().expect("state was just computed");
        let (diff, _) = recorder.time("constellation.diff", epoch, parent, || {
            let snapshot = ConstellationSnapshot::from_state(state);
            let diff = previous.as_ref().map_or_else(
                || ConstellationSnapshot::default().diff(&snapshot),
                |previous| previous.diff(&snapshot),
            );
            previous = Some(snapshot);
            diff
        });
        let (derived, _) = recorder.time("constellation.scope", epoch, parent, || {
            sources.clear();
            for sat in state.active_satellites() {
                sources.push(state.node_index(NodeId::Satellite(sat))? as u32);
            }
            for gst in 0..state.ground_station_count() as u32 {
                sources.push(state.node_index(NodeId::ground_station(gst))? as u32);
            }
            scope.derive(state, &constellation.bounding_box(), &scope_params);
            Ok::<(), Error>(())
        });
        derived?;
        recorder.time("constellation.solve", epoch, parent, || {
            engine.solve_scope(state.graph(), &scope);
        });
        let paths = engine.paths().expect("paths were just solved");
        recorder.time("core.netprog", epoch, parent, || {
            for store in &mut stores {
                store.update_epoch(state, paths, &sources);
            }
        });
        let twin: Vec<(usize, usize)> = stores
            .iter()
            .map(|s| (s.delta().op_count(), s.pair_count()))
            .collect();
        if twin != programmes[epoch as usize] {
            return Err(Error::Application(format!(
                "the replayed programme diverged from the coordinator's at epoch {epoch}"
            )));
        }

        if epoch > 0 {
            counts.epochs += 1;
            counts.nodes = state.node_count() as u64;
            counts.links += state.links.len() as u64;
            counts.machine_changes += diff.change_count() as u64;
            counts.scope_sources += scope.sources().len() as u64;
            counts.scope_required += scope.required_count() as u64;
            counts.scope_landmarks += scope.landmarks().len() as u64;
            let solve = engine.last_solve();
            counts.settled += solve.scope_settled;
            counts.useful_settled +=
                ((solve.scope_sources - solve.scope_landmarks) * solve.scope_required) as u64;
            counts.programme_pairs += twin.iter().map(|(_, pairs)| *pairs as u64).sum::<u64>();
            counts.delta_ops += twin.iter().map(|(ops, _)| *ops as u64).sum::<u64>();
        }
    }

    // Pass 3: the serving side over a fresh coordinator's epochs.
    let mut coordinator = Coordinator::with_scoped_fanout(
        constellation.clone(),
        interval,
        config.pipeline,
        shard_plan,
        tenant_names,
        scope_params,
    );
    // The serving side: a snapshot store fed from the coordinator's
    // database, the standard middleware stack in process, and the same
    // stack behind the HTTP server with one keep-alive client. Dropping the
    // plane at return stops and joins its threads.
    let serve_config = celestial::config::ServeConfig {
        workers: 1,
        rate_limit_per_epoch: 0,
        ..config.serve.clone().unwrap_or_default()
    };
    let snapshots = Arc::new(SnapshotStore::new(coordinator.database().clone()));
    let (pipeline, _) = build_pipeline(&serve_config, Arc::clone(&snapshots));
    let plane = ServePlane::start(&serve_config, Arc::clone(&snapshots))
        .map_err(|e| Error::Application(format!("serve plane: {e}")))?;
    let mut client = Client::connect(plane.addr())
        .map_err(|e| Error::Application(format!("serve client: {e}")))?;

    for (epoch, &t) in epochs.iter().enumerate() {
        let epoch = epoch as u64;
        coordinator.update(t)?;
        recorder.time("core.snapshot", epoch, None, || {
            snapshots.publish(epoch + 1, coordinator.database());
        });
        for target in QUERIES {
            let mut envelope = Envelope::new(Request::new(Method::Get, target));
            let (reply, handled) = recorder.time("serve.handle", epoch, None, || {
                pipeline.handle(&mut envelope)
            });
            let (response, requested) =
                recorder.time("serve.request", epoch, None, || client.get(target));
            let status = response.map_or(0, |response| response.status);
            if epoch > 0 {
                counts.requests += 2;
                counts.rejected += u64::from(reply.status != 200) + u64::from(status != 200);
                counts
                    .handle_us
                    .push(recorder.spans[handled].ns() as f64 / 1e3);
                counts
                    .client_us
                    .push(recorder.spans[requested].ns() as f64 / 1e3);
            }
        }
        if epoch > 0 {
            counts.snapshots += 1;
        }
    }
    Ok(counts)
}
