//! The HTTP-style info API exposed to emulated machines.
//!
//! Every Celestial host runs an HTTP server that lets guest applications
//! query satellite positions, network paths, constellation information and
//! their own identity, backed by the coordinator's database (§3.2). This
//! module reproduces that API: requests are expressed as paths (exactly as an
//! application would issue them against the HTTP server) and answered with
//! JSON documents.

use crate::database::InfoDatabase;
use celestial_constellation::PathAlgorithm;
use celestial_types::ids::{NodeId, TenantId};
use celestial_types::{Error, Result};
use serde_json::{json, Value};

/// A request to the info API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InfoRequest {
    /// `GET /self` — information about the requesting machine.
    SelfInfo,
    /// `GET /info` — constellation summary: shells, satellite counts, ground
    /// stations.
    Info,
    /// `GET /shell/{shell}` — information about one shell.
    Shell(u16),
    /// `GET /sat/{shell}/{sat}` — position and activity of one satellite.
    Satellite(u16, u32),
    /// `GET /gst/{name}` — information about a ground station by name.
    GroundStation(String),
    /// `GET /path/{source}/{target}` — the current shortest path and latency
    /// between two nodes, named by their DNS names without the `.celestial`
    /// suffix (e.g. `/path/878.0/accra.gst`).
    Path(String, String),
}

impl InfoRequest {
    /// Parses a request path such as `/sat/0/878` or `/path/0.0/1.gst`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for unknown routes (the serving plane
    /// maps it to HTTP 404) and [`Error::InfoApi`] for malformed parameters
    /// on a known route (HTTP 400).
    pub fn parse(path: &str) -> Result<Self> {
        let parts: Vec<&str> = path.trim().trim_matches('/').split('/').collect();
        match parts.as_slice() {
            ["self"] => Ok(InfoRequest::SelfInfo),
            ["info"] => Ok(InfoRequest::Info),
            ["shell", shell] => Ok(InfoRequest::Shell(parse_num(shell)?)),
            ["sat", shell, sat] => Ok(InfoRequest::Satellite(parse_num(shell)?, parse_num(sat)?)),
            ["gst", name] => Ok(InfoRequest::GroundStation((*name).to_owned())),
            ["path", source, target] => {
                Ok(InfoRequest::Path((*source).to_owned(), (*target).to_owned()))
            }
            _ => Err(Error::not_found(format!("unknown route '{path}'"))),
        }
    }
}

fn parse_num<T: std::str::FromStr>(text: &str) -> Result<T> {
    text.parse::<T>()
        .map_err(|_| Error::InfoApi(format!("invalid numeric parameter '{text}'")))
}

/// The info API server handling requests against a database.
///
/// The API is tenant-scoped: a fleet shares one database, and per-tenant
/// fields of `/info` (`programmed_pairs`, `programme_delta_ops`) are read
/// from the handler's tenant report (see `docs/TENANTS.md`). [`InfoApi::new`]
/// serves tenant 0, which in a solo testbed is the whole testbed.
#[derive(Debug, Clone)]
pub struct InfoApi<'a> {
    database: &'a InfoDatabase,
    tenant: TenantId,
}

impl<'a> InfoApi<'a> {
    /// Creates an API handler over the given database, answering as tenant 0
    /// (the solo tenant).
    pub fn new(database: &'a InfoDatabase) -> Self {
        Self::for_tenant(database, TenantId(0))
    }

    /// Creates an API handler answering for one tenant of a fleet.
    pub fn for_tenant(database: &'a InfoDatabase, tenant: TenantId) -> Self {
        InfoApi { database, tenant }
    }

    /// The tenant this handler answers for.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Handles a request issued by `requester` (the emulated machine asking),
    /// returning the JSON response body.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] or [`Error::UnknownNode`] for entities
    /// that do not exist (HTTP 404 at the serve layer) and
    /// [`Error::InfoApi`] for malformed parameters or an uninitialised
    /// database (HTTP 400).
    pub fn handle(&self, requester: NodeId, request: &InfoRequest) -> Result<Value> {
        match request {
            InfoRequest::SelfInfo => self.node_info(requester),
            InfoRequest::Info => {
                // Per-tenant slices of the shared epoch. A raw database that
                // never saw a coordinator has no reports; fall back to the
                // global programme stats so solo replies look pre-tenancy.
                let reports = self.database.tenant_reports();
                let report = reports.get(self.tenant.index());
                let tenant_pairs = Value::Map(
                    reports
                        .iter()
                        .map(|t| (Value::Str(t.name.clone()), Value::U64(t.pairs as u64)))
                        .collect(),
                );
                Ok(json!({
                    "shells": self.database.shells().iter().enumerate().map(|(i, s)| json!({
                        "shell": i,
                        "altitude_km": s.walker.altitude_km,
                        "inclination_deg": s.walker.inclination_deg,
                        "planes": s.walker.planes,
                        "satellites_per_plane": s.walker.satellites_per_plane,
                        "satellites": s.satellite_count(),
                    })).collect::<Vec<_>>(),
                    "satellites": self.database.satellite_count(),
                    "ground_stations": self.database.ground_stations().iter().map(|g| g.name.clone()).collect::<Vec<_>>(),
                    "updated_at_s": self.database.updated_at_seconds(),
                    "path_algorithm": self.database.state().map(|_| PathAlgorithm::Dijkstra.name()),
                    "tenant": report.map(|t| t.name.clone()),
                    "tenants": reports.len().max(1),
                    "tenant_programmed_pairs": tenant_pairs,
                    "programmed_pairs": report
                        .map(|t| t.pairs)
                        .or_else(|| self.database.programme_stats().map(|s| s.pairs)),
                    "programme_delta_ops": report
                        .map(|t| t.delta_ops)
                        .or_else(|| self.database.programme_stats().map(|s| s.delta_ops)),
                    "pipeline": self.database.pipeline_report().map(|r| r.stats.mode.name()),
                    "pipeline_handover_wait_ms": self
                        .database
                        .pipeline_report()
                        .map(|r| r.stats.last_wait_ns as f64 / 1e6),
                    "pipeline_lead_ms": self
                        .database
                        .pipeline_report()
                        .map(|r| r.stats.last_lead_ns as f64 / 1e6),
                    "pipeline_precomputed_handovers": self
                        .database
                        .pipeline_report()
                        .map(|r| r.stats.precomputed),
                    "shards": self.database.shard_report().map(|r| r.pairs.len()),
                    "shard_pairs": self
                        .database
                        .shard_report()
                        .map(|r| r.pairs.iter().map(|&p| json!(p)).collect::<Vec<_>>()),
                    "shard_apply_ms": self.database.shard_report().map(|r| {
                        r.apply_ns
                            .iter()
                            .map(|&ns| json!(ns as f64 / 1e6))
                            .collect::<Vec<_>>()
                    }),
                    "shard_apply_wall_ms": self
                        .database
                        .shard_report()
                        .map(|r| r.wall_ns as f64 / 1e6),
                    "scope_active_satellites": self.database.scope_report().map(|r| r.active_satellites),
                    "scope_predicted_satellites": self.database.scope_report().map(|r| r.predicted_satellites),
                    "scope_satellites": self.database.scope_report().map(|r| r.scope_satellites),
                    "scope_sources": self.database.scope_report().map(|r| r.sources),
                    "scope_required": self.database.scope_report().map(|r| r.required),
                    "scope_landmarks": self.database.scope_report().map(|r| r.landmarks),
                    "scope_settled": self.database.scope_report().map(|r| r.settled),
                    "chaos_events": self.database.chaos_report().map(|r| r.events),
                    "chaos_active_faults": self.database.chaos_report().map(|r| r.active_faults),
                    "links_suppressed": self.database.chaos_report().map(|r| r.links_suppressed),
                }))
            }
            InfoRequest::Shell(shell) => {
                let s = self
                    .database
                    .shells()
                    .get(*shell as usize)
                    .ok_or_else(|| Error::not_found(format!("shell {shell} does not exist")))?;
                Ok(json!({
                    "shell": shell,
                    "altitude_km": s.walker.altitude_km,
                    "inclination_deg": s.walker.inclination_deg,
                    "planes": s.walker.planes,
                    "satellites_per_plane": s.walker.satellites_per_plane,
                    "arc_of_ascending_nodes_deg": s.walker.arc_of_ascending_nodes_deg,
                    "isl_bandwidth_bps": s.isl_bandwidth.as_bps(),
                    "min_elevation_deg": s.min_elevation_deg,
                    "vcpus": s.resources.vcpus,
                    "memory_mib": s.resources.memory_mib,
                }))
            }
            InfoRequest::Satellite(shell, sat) => {
                self.node_info(NodeId::satellite(*shell, *sat))
            }
            InfoRequest::GroundStation(name) => {
                let (id, _) = self
                    .database
                    .ground_station_by_name(name)
                    .ok_or_else(|| Error::not_found(format!("ground station '{name}' does not exist")))?;
                self.node_info(NodeId::GroundStation(id))
            }
            InfoRequest::Path(source, target) => {
                let a = self.parse_node(source)?;
                let b = self.parse_node(target)?;
                let latency = self.database.path_latency(a, b)?;
                let path = self.database.path(a, b)?;
                Ok(json!({
                    "source": a.dns_name(),
                    "target": b.dns_name(),
                    "connected": latency.is_some(),
                    "latency_ms": latency.map(|l| l.as_millis_f64()),
                    "path": path.map(|nodes| nodes.iter().map(|n| n.dns_name()).collect::<Vec<_>>()),
                }))
            }
        }
    }

    /// Handles a request given as a raw path string.
    ///
    /// # Errors
    ///
    /// See [`handle`](InfoApi::handle) and [`InfoRequest::parse`].
    pub fn handle_path(&self, requester: NodeId, path: &str) -> Result<Value> {
        self.handle(requester, &InfoRequest::parse(path)?)
    }

    /// Resolves a DNS-style node stem — `<index>.<shell>` for satellites,
    /// `<name|index>.gst` for ground stations — to a [`NodeId`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for a well-formed name that matches no
    /// node and [`Error::InfoApi`] for a name that does not parse at all.
    pub fn parse_node(&self, name: &str) -> Result<NodeId> {
        let parts: Vec<&str> = name.split('.').collect();
        match parts.as_slice() {
            [gst, "gst"] => {
                if let Ok(index) = gst.parse::<u32>() {
                    if (index as usize) < self.database.ground_stations().len() {
                        return Ok(NodeId::ground_station(index));
                    }
                    return Err(Error::not_found(format!("ground station {index} does not exist")));
                }
                let (id, _) = self
                    .database
                    .ground_station_by_name(gst)
                    .ok_or_else(|| Error::not_found(format!("ground station '{gst}' does not exist")))?;
                Ok(NodeId::GroundStation(id))
            }
            [sat, shell] => {
                let sat = parse_num::<u32>(sat)?;
                let shell = parse_num::<u16>(shell)?;
                Ok(NodeId::satellite(shell, sat))
            }
            _ => Err(Error::InfoApi(format!("cannot parse node '{name}'"))),
        }
    }

    fn node_info(&self, node: NodeId) -> Result<Value> {
        let position = self.database.position(node)?;
        let active = match node {
            NodeId::Satellite(sat) => self.database.is_active(sat)?,
            NodeId::GroundStation(_) => true,
        };
        let name = match node {
            NodeId::GroundStation(gst) => self
                .database
                .ground_stations()
                .get(gst.index())
                .map(|g| g.name.clone()),
            NodeId::Satellite(_) => None,
        };
        Ok(json!({
            "identifier": node.dns_name(),
            "kind": if node.is_satellite() { "satellite" } else { "ground_station" },
            "name": name,
            "active": active,
            "position": {
                "latitude_deg": position.latitude_deg(),
                "longitude_deg": position.longitude_deg(),
                "altitude_km": position.altitude_km(),
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celestial_constellation::{Constellation, GroundStation, Shell};
    use celestial_sgp4::WalkerShell;
    use celestial_types::geo::Geodetic;

    fn database() -> InfoDatabase {
        let shell = Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16));
        let gst = GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0));
        let constellation = Constellation::builder()
            .shell(shell.clone())
            .ground_station(gst.clone())
            .build()
            .unwrap();
        let mut db = InfoDatabase::new(vec![shell], vec![gst]);
        db.update(constellation.state_at(0.0).unwrap());
        db
    }

    #[test]
    fn request_parsing() {
        assert_eq!(InfoRequest::parse("/self").unwrap(), InfoRequest::SelfInfo);
        assert_eq!(InfoRequest::parse("/info").unwrap(), InfoRequest::Info);
        assert_eq!(InfoRequest::parse("/shell/2").unwrap(), InfoRequest::Shell(2));
        assert_eq!(
            InfoRequest::parse("/sat/0/878").unwrap(),
            InfoRequest::Satellite(0, 878)
        );
        assert_eq!(
            InfoRequest::parse("/gst/accra").unwrap(),
            InfoRequest::GroundStation("accra".to_owned())
        );
        assert_eq!(
            InfoRequest::parse("/path/0.0/accra.gst").unwrap(),
            InfoRequest::Path("0.0".to_owned(), "accra.gst".to_owned())
        );
        // Unknown routes are NotFound (→ 404); malformed parameters on a
        // known route are InfoApi (→ 400).
        assert!(matches!(InfoRequest::parse("/bogus"), Err(Error::NotFound(_))));
        assert!(matches!(InfoRequest::parse("/sat/x/1"), Err(Error::InfoApi(_))));
    }

    #[test]
    fn missing_entities_are_not_found_errors() {
        let db = database();
        let api = InfoApi::new(&db);
        let requester = NodeId::ground_station(0);
        assert!(matches!(
            api.handle_path(requester, "/shell/9"),
            Err(Error::NotFound(_))
        ));
        assert!(matches!(
            api.handle_path(requester, "/gst/lagos"),
            Err(Error::NotFound(_))
        ));
        assert!(matches!(
            api.handle_path(requester, "/path/lagos.gst/0.gst"),
            Err(Error::NotFound(_))
        ));
        assert!(matches!(
            api.handle_path(requester, "/path/9.gst/0.gst"),
            Err(Error::NotFound(_))
        ));
        // A node stem that cannot even be parsed stays a 400-class error.
        assert!(matches!(
            api.parse_node("not-a-node"),
            Err(Error::InfoApi(_))
        ));
    }

    #[test]
    fn self_info_describes_the_requester() {
        let db = database();
        let api = InfoApi::new(&db);
        let response = api.handle_path(NodeId::ground_station(0), "/self").unwrap();
        assert_eq!(response["identifier"], "0.gst.celestial");
        assert_eq!(response["kind"], "ground_station");
        assert_eq!(response["name"], "accra");
        assert_eq!(response["active"], true);
        assert!((response["position"]["latitude_deg"].as_f64().unwrap() - 5.6037).abs() < 1e-6);
    }

    #[test]
    fn info_and_shell_routes() {
        let db = database();
        let api = InfoApi::new(&db);
        let info = api.handle_path(NodeId::ground_station(0), "/info").unwrap();
        assert_eq!(info["satellites"], 192);
        assert_eq!(info["ground_stations"][0], "accra");
        assert_eq!(info["path_algorithm"], "dijkstra");
        let shell = api.handle_path(NodeId::ground_station(0), "/shell/0").unwrap();
        assert_eq!(shell["planes"], 12);
        assert!(api.handle_path(NodeId::ground_station(0), "/shell/3").is_err());
    }

    #[test]
    fn info_reply_is_tenant_scoped() {
        let mut db = database();
        db.update_tenant_report(0, "alpha", 5, 1);
        db.update_tenant_report(1, "beta", 7, 2);
        let api = InfoApi::for_tenant(&db, TenantId(1));
        assert_eq!(api.tenant(), TenantId(1));
        let info = api.handle_path(NodeId::ground_station(0), "/info").unwrap();
        assert_eq!(info["tenant"], "beta");
        assert_eq!(info["tenants"], 2);
        // The scalar programme fields are the handler's tenant slice...
        assert_eq!(info["programmed_pairs"], 7);
        assert_eq!(info["programme_delta_ops"], 2);
        // ...while the fleet-wide map names every tenant.
        assert_eq!(info["tenant_programmed_pairs"]["alpha"], 5);
        assert_eq!(info["tenant_programmed_pairs"]["beta"], 7);

        // A raw pre-tenancy database still answers as a single tenant, with
        // the global programme stats as fallback.
        let db = database();
        let info = InfoApi::new(&db)
            .handle_path(NodeId::ground_station(0), "/info")
            .unwrap();
        assert_eq!(info["tenants"], 1);
        assert!(info.get("tenant").and_then(Value::as_str).is_none());
    }

    #[test]
    fn info_reports_the_solve_scope() {
        let mut db = database();
        db.set_scope_report(crate::pipeline::ScopeReport {
            active_satellites: 18,
            predicted_satellites: 21,
            scope_satellites: 40,
            sources: 58,
            required: 19,
            landmarks: 8,
            settled: 12_345,
        });
        let info = InfoApi::new(&db)
            .handle_path(NodeId::ground_station(0), "/info")
            .unwrap();
        assert_eq!(info["scope_active_satellites"], 18);
        assert_eq!(info["scope_predicted_satellites"], 21);
        assert_eq!(info["scope_satellites"], 40);
        assert_eq!(info["scope_sources"], 58);
        assert_eq!(info["scope_required"], 19);
        assert_eq!(info["scope_landmarks"], 8);
        assert_eq!(info["scope_settled"], 12_345);
        // A database that never saw a coordinator reports no scope.
        let info = InfoApi::new(&database())
            .handle_path(NodeId::ground_station(0), "/info")
            .unwrap();
        assert!(info.get("scope_sources").map(Value::is_null).unwrap_or(true));
    }

    #[test]
    fn satellite_route_reports_position_and_activity() {
        let db = database();
        let api = InfoApi::new(&db);
        let sat = api.handle_path(NodeId::ground_station(0), "/sat/0/5").unwrap();
        assert_eq!(sat["kind"], "satellite");
        let altitude = sat["position"]["altitude_km"].as_f64().unwrap();
        assert!((altitude - 550.0).abs() < 5.0);
        assert!(api.handle_path(NodeId::ground_station(0), "/sat/0/9999").is_err());
    }

    #[test]
    fn path_route_reports_latency_and_hops() {
        let db = database();
        let api = InfoApi::new(&db);
        let visible = db
            .visible_satellites(celestial_types::ids::GroundStationId(0))
            .unwrap();
        let sat = visible[0];
        let path = api
            .handle_path(
                NodeId::ground_station(0),
                &format!("/path/accra.gst/{}.{}", sat.index, sat.shell.0),
            )
            .unwrap();
        assert_eq!(path["connected"], true);
        assert!(path["latency_ms"].as_f64().unwrap() > 0.0);
        let hops = path["path"].as_array().unwrap();
        assert_eq!(hops.first().unwrap(), "0.gst.celestial");
        // Numeric ground-station references work too.
        let by_index = api
            .handle_path(NodeId::ground_station(0), "/path/0.gst/0.gst")
            .unwrap();
        assert_eq!(by_index["latency_ms"], 0.0);
        assert!(api
            .handle_path(NodeId::ground_station(0), "/path/lagos.gst/0.gst")
            .is_err());
    }
}
