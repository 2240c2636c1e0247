//! Figure 1: overview of the planned phase-I Starlink constellation.
//!
//! Builds all five shells (1584, 1600, 400, 375 and 450 satellites), computes
//! the constellation state at the epoch and renders the equirectangular map
//! with ISLs and the ground-to-satellite links of one ground station, as the
//! paper's animation component does.

use celestial_bench::{Options, FIGURE_SEED};
use celestial_constellation::animation::{render_summary, render_svg, RenderOptions};
use celestial_constellation::{Constellation, GroundStation, Shell};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;

fn main() {
    let options = Options::from_args(Some(FIGURE_SEED));
    let shells: Vec<Shell> = WalkerShell::starlink_phase1()
        .into_iter()
        .take(if options.quick { 1 } else { 5 })
        .map(Shell::from_walker)
        .collect();
    let constellation = Constellation::builder()
        .shells(shells.clone())
        .ground_station(GroundStation::new("berlin", Geodetic::new(52.52, 13.405, 0.0)))
        .build()
        .expect("valid constellation");

    let state = constellation.state_at(0.0).expect("constellation state");
    println!("# Figure 1: Starlink phase I constellation overview");
    println!("{}", render_summary(&state));
    println!("shell,altitude_km,inclination_deg,planes,satellites_per_plane,satellites");
    for (i, shell) in shells.iter().enumerate() {
        println!(
            "{i},{},{},{},{},{}",
            shell.walker.altitude_km,
            shell.walker.inclination_deg,
            shell.walker.planes,
            shell.walker.satellites_per_plane,
            shell.satellite_count()
        );
    }
    let total: u32 = shells.iter().map(Shell::satellite_count).sum();
    println!("total,{total}");

    let svg = render_svg(&state, &RenderOptions::default());
    options.write_artifact("fig01_constellation.svg", &svg);
}
