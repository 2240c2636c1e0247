//! Figures 9 and 10: the DART scenario topology on the Iridium constellation.
//!
//! Builds the Iridium shell (66 satellites, 6 planes, 780 km, polar orbit,
//! 180° arc of ascending nodes) together with the 100 buoys, 200 sinks and
//! the Pacific Tsunami Warning Center, prints the seam property the paper
//! highlights (no ISLs between the first and last plane) and renders the map.

use celestial_apps::{DartConfig, DartDeployment};
use celestial_bench::{Options, FIGURE_SEED};
use celestial_constellation::animation::{render_summary, render_svg, RenderOptions};
use celestial_constellation::{Constellation, LinkKind};
use celestial_bench::dart_app_config;

fn main() {
    let options = Options::from_args(Some(FIGURE_SEED));
    let app_config = dart_app_config(&options, DartDeployment::Central);
    let shell = DartConfig::iridium_shell();
    let constellation = Constellation::builder()
        .shell(shell.clone())
        .ground_stations(app_config.ground_stations())
        .build()
        .expect("valid constellation");
    let state = constellation.state_at(0.0).expect("constellation state");

    println!("# Figure 10: Iridium constellation with DART ground stations");
    println!("{}", render_summary(&state));
    println!("satellites,{}", shell.satellite_count());
    println!("planes,{}", shell.walker.planes);
    println!("arc_of_ascending_nodes_deg,{}", shell.walker.arc_of_ascending_nodes_deg);
    println!("ground_stations,{}", app_config.ground_stations().len());

    // The seam: no ISLs between plane 0 and plane 5.
    let per_plane = shell.walker.satellites_per_plane;
    let seam_links = state
        .links
        .iter()
        .filter(|l| l.kind == LinkKind::Isl)
        .filter(|l| {
            let (Some(a), Some(b)) = (l.a.as_satellite(), l.b.as_satellite()) else {
                return false;
            };
            let pa = a.index / per_plane;
            let pb = b.index / per_plane;
            (pa == 0 && pb == shell.walker.planes - 1) || (pb == 0 && pa == shell.walker.planes - 1)
        })
        .count();
    println!("isls_between_first_and_last_plane,{seam_links}");
    println!("# expectation: 0 ISLs across the seam — satellites of the first and last plane move in opposite directions");

    let svg = render_svg(&state, &RenderOptions::default());
    options.write_artifact("fig10_iridium.svg", &svg);
}
