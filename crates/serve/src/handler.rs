//! The terminal stage: answering info-API requests from epoch snapshots.
//!
//! [`InfoHandler`] resolves the current [`EpochSnapshot`] through a
//! thread-local [`SnapshotReader`] — the steady-state read path is one
//! atomic epoch check, no lock — runs [`InfoApi`] against the snapshot's
//! database, stamps every JSON reply with the `snapshot_epoch` it was
//! answered at, and maps the error taxonomy to HTTP statuses:
//! [`Error::NotFound`] / [`Error::UnknownNode`] → 404, everything else
//! (malformed parameters, uninitialised database) → 400.

use crate::pipeline::{Envelope, Handler, ServeReply};
use celestial::info_api::InfoApi;
use celestial::snapshot::{EpochSnapshot, SnapshotReader, SnapshotStore};
use celestial_types::ids::{NodeId, TenantId};
use celestial_types::Error;
use serde_json::Value;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Per-thread snapshot readers, keyed by store identity so handlers over
    /// different stores (tests, multiple planes) never cross wires.
    static READERS: RefCell<Vec<(usize, SnapshotReader)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's cached reader for `store`, creating it on
/// first use.
fn with_reader<R>(store: &Arc<SnapshotStore>, f: impl FnOnce(&mut SnapshotReader) -> R) -> R {
    let key = Arc::as_ptr(store) as usize;
    READERS.with(|readers| {
        let mut readers = readers.borrow_mut();
        if let Some((_, reader)) = readers.iter_mut().find(|(k, _)| *k == key) {
            return f(reader);
        }
        readers.push((key, store.reader()));
        let (_, reader) = readers.last_mut().expect("reader was just pushed");
        f(reader)
    })
}

/// The info-API handler over a snapshot store.
#[derive(Debug)]
pub struct InfoHandler {
    store: Arc<SnapshotStore>,
}

impl InfoHandler {
    /// Creates the handler reading from `store`.
    pub fn new(store: Arc<SnapshotStore>) -> InfoHandler {
        InfoHandler { store }
    }

    /// The snapshot store this handler reads from.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Answers `path` for `requester_header` against `snapshot`, scoped to
    /// `tenant`.
    fn answer(
        snapshot: &EpochSnapshot,
        tenant: TenantId,
        requester_header: Option<&str>,
        path: &str,
    ) -> ServeReply {
        let api = InfoApi::for_tenant(&snapshot.database, tenant);
        let requester = match requester_header {
            Some(name) => match api.parse_node(name) {
                Ok(node) => node,
                Err(error) => return error_reply(&error),
            },
            None => NodeId::ground_station(0),
        };
        match api.handle_path(requester, path) {
            Ok(mut body) => {
                stamp_epoch(&mut body, snapshot.epoch);
                ServeReply::ok(body)
            }
            Err(error) => error_reply(&error),
        }
    }

    /// Resolves the envelope's tenant name against `snapshot`: the empty
    /// name is tenant 0 (the solo default), anything else must be a
    /// configured tenant (see `docs/TENANTS.md`).
    fn resolve_tenant(snapshot: &EpochSnapshot, name: &str) -> Result<TenantId, ServeReply> {
        if name.is_empty() {
            return Ok(TenantId(0));
        }
        match snapshot.database.tenant_index(name) {
            Some(index) => Ok(TenantId(index as u32)),
            None => Err(error_reply(&Error::not_found(format!(
                "unknown tenant '{name}'"
            )))),
        }
    }
}

impl Handler for InfoHandler {
    fn handle(&self, envelope: &mut Envelope) -> ServeReply {
        with_reader(&self.store, |reader| {
            let snapshot = reader.current();
            envelope.epoch = snapshot.epoch;
            let requester = envelope.request.header("x-celestial-node").map(str::to_owned);
            let path = envelope.request.path().to_owned();
            let mut reply = match InfoHandler::resolve_tenant(snapshot, &envelope.tenant) {
                Ok(tenant) => {
                    InfoHandler::answer(snapshot, tenant, requester.as_deref(), &path)
                }
                Err(reply) => reply,
            };
            if reply.status >= 400 {
                stamp_epoch(&mut reply.body, snapshot.epoch);
            }
            reply
        })
    }
}

/// Appends `snapshot_epoch` to a JSON object reply (non-objects pass
/// through untouched).
fn stamp_epoch(body: &mut Value, epoch: u64) {
    if let Value::Map(entries) = body {
        entries.push((
            Value::Str("snapshot_epoch".to_owned()),
            Value::U64(epoch),
        ));
    }
}

/// Maps the workspace error taxonomy to an HTTP error reply: entities and
/// routes that do not exist are 404, malformed requests are 400.
pub fn error_reply(error: &Error) -> ServeReply {
    let status = match error {
        Error::NotFound(_) | Error::UnknownNode(_) => 404,
        _ => 400,
    };
    ServeReply::error(status, error.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use celestial::Coordinator;
    use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
    use celestial_sgp4::WalkerShell;
    use celestial_types::geo::Geodetic;
    use celestial_types::time::SimDuration;
    use httpd::{Method, Request};

    fn serving_coordinator() -> (Coordinator, Arc<SnapshotStore>) {
        let constellation = Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 6, 8)))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap();
        let mut coordinator = Coordinator::new(constellation, SimDuration::from_secs(2));
        let store = coordinator.enable_snapshots();
        (coordinator, store)
    }

    fn get(pipeline: &Pipeline, path: &str) -> ServeReply {
        pipeline.handle(&mut Envelope::new(Request::new(Method::Get, path)))
    }

    #[test]
    fn error_taxonomy_maps_to_http_statuses() {
        assert_eq!(error_reply(&Error::not_found("x")).status, 404);
        assert_eq!(error_reply(&Error::unknown_node("x")).status, 404);
        assert_eq!(error_reply(&Error::InfoApi("x".into())).status, 400);
        assert_eq!(error_reply(&Error::config("x")).status, 400);
    }

    #[test]
    fn replies_are_stamped_with_the_snapshot_epoch() {
        let (mut coordinator, store) = serving_coordinator();
        let pipeline = Pipeline::new(InfoHandler::new(store));

        // Before any update the store still holds the epoch-0 snapshot; the
        // database is uninitialised, so node queries are 400.
        assert_eq!(get(&pipeline, "/self").status, 400);

        coordinator.update(0.0).unwrap();
        let reply = get(&pipeline, "/self");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body.get("snapshot_epoch").and_then(Value::as_u64), Some(1));

        coordinator.update(2.0).unwrap();
        let reply = get(&pipeline, "/info");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body.get("snapshot_epoch").and_then(Value::as_u64), Some(2));
        assert_eq!(reply.body.get("updated_at_s").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn unknown_routes_and_entities_are_404_with_json_bodies() {
        let (mut coordinator, store) = serving_coordinator();
        coordinator.update(0.0).unwrap();
        let pipeline = Pipeline::new(InfoHandler::new(store));

        for path in ["/bogus", "/gst/lagos", "/shell/9", "/path/lagos.gst/0.gst"] {
            let reply = get(&pipeline, path);
            assert_eq!(reply.status, 404, "{path} should be 404");
            assert!(reply.body.get("error").and_then(Value::as_str).is_some());
            assert_eq!(reply.body.get("status").and_then(Value::as_u64), Some(404));
            assert_eq!(
                reply.body.get("snapshot_epoch").and_then(Value::as_u64),
                Some(1),
                "error replies carry the epoch too"
            );
        }
        // Malformed parameters on a known route stay 400.
        assert_eq!(get(&pipeline, "/sat/x/1").status, 400);
    }

    #[test]
    fn tenant_header_routes_to_the_named_tenant_or_404s() {
        let constellation = Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 6, 8)))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap();
        let mut coordinator = Coordinator::with_scoped_fanout(
            constellation,
            SimDuration::from_secs(2),
            celestial::PipelineMode::Synchronous,
            None,
            vec!["alpha".to_owned(), "beta".to_owned()],
            celestial_constellation::ScopeParams::default(),
        );
        let store = coordinator.enable_snapshots();
        coordinator.update(0.0).unwrap();
        let pipeline = Pipeline::new(InfoHandler::new(store));

        let tenant_get = |tenant: &str, path: &str| {
            let mut request = Request::new(Method::Get, path);
            request.headers.push(("x-celestial-tenant".into(), tenant.into()));
            pipeline.handle(&mut Envelope::new(request))
        };

        let reply = tenant_get("beta", "/info");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body.get("tenant").and_then(Value::as_str), Some("beta"));
        assert_eq!(reply.body.get("tenants").and_then(Value::as_u64), Some(2));

        // No header: the default tenant (tenant 0).
        let reply = get(&pipeline, "/info");
        assert_eq!(reply.body.get("tenant").and_then(Value::as_str), Some("alpha"));

        // An unknown tenant is a 404 with the epoch stamped like any other
        // error reply.
        let reply = tenant_get("gamma", "/self");
        assert_eq!(reply.status, 404);
        let error = reply.body.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("unknown tenant 'gamma'"), "{error}");
        assert_eq!(reply.body.get("snapshot_epoch").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn requester_header_selects_the_self_node() {
        let (mut coordinator, store) = serving_coordinator();
        coordinator.update(0.0).unwrap();
        let pipeline = Pipeline::new(InfoHandler::new(store));

        let mut request = Request::new(Method::Get, "/self");
        request.headers.push(("x-celestial-node".into(), "accra.gst".into()));
        let reply = pipeline.handle(&mut Envelope::new(request));
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body.get("name").and_then(Value::as_str), Some("accra"));

        // An unknown requester is a 404, a malformed one a 400.
        let mut request = Request::new(Method::Get, "/self");
        request.headers.push(("x-celestial-node".into(), "lagos.gst".into()));
        assert_eq!(pipeline.handle(&mut Envelope::new(request)).status, 404);
        let mut request = Request::new(Method::Get, "/self");
        request.headers.push(("x-celestial-node".into(), "nonsense".into()));
        assert_eq!(pipeline.handle(&mut Envelope::new(request)).status, 400);
    }
}
