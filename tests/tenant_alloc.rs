//! Steady-state allocation capacity of the multi-tenant fan-out
//! (`docs/TENANTS.md`): adding tenants to one epoch pipeline must not add
//! allocation churn. The epoch core (propagation buffers, snapshot diff,
//! path solve, programme walk) runs once per epoch and recycles, so a
//! tenant costs no allocations at all and per-epoch counts stay flat as the
//! run ages.
//!
//! The test binary installs a counting global allocator, so everything runs
//! in ONE `#[test]` — parallel test threads would pollute the counter.

use celestial::pipeline::{EpochCompute, EpochPipeline, PipelineMode};
use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, ScopeParams, Shell};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::time::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts allocation events. Reallocation
/// counts as one event; frees are not counted (growth is what churn looks
/// like).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const WARMUP_EPOCHS: u32 = 6;
const WINDOW_EPOCHS: u32 = 10;

fn constellation() -> Constellation {
    Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("valid constellation")
}

/// Steady-state allocation events per epoch of the bare pipeline fan-out
/// (advance + recycle, no coordinator), measured over two consecutive
/// windows after warm-up.
fn pipeline_windows(tenants: usize) -> (u64, u64) {
    let mut compute = EpochCompute::new(constellation());
    compute.set_tenant_count(tenants);
    let mut pipeline = EpochPipeline::new(
        compute,
        PipelineMode::Synchronous,
        SimDuration::from_secs(1),
    );
    let mut epoch = 0u32;
    let mut run = |pipeline: &mut EpochPipeline, epochs: u32| {
        let before = allocations();
        for _ in 0..epochs {
            let bundle = pipeline.advance(f64::from(epoch)).expect("epoch");
            pipeline.recycle(bundle);
            epoch += 1;
        }
        allocations() - before
    };
    let _ = run(&mut pipeline, WARMUP_EPOCHS);
    let first = run(&mut pipeline, WINDOW_EPOCHS);
    let second = run(&mut pipeline, WINDOW_EPOCHS);
    (first, second)
}

/// Steady-state allocation events per epoch of a full coordinator fan-out
/// (lane replay, `/info` slices, diff extraction), two consecutive windows.
fn coordinator_windows(tenants: usize) -> (u64, u64) {
    let names = (0..tenants).map(|i| format!("tenant-{i}")).collect();
    let mut coordinator = Coordinator::with_scoped_fanout(
        constellation(),
        SimDuration::from_secs(1),
        PipelineMode::Synchronous,
        None,
        names,
        ScopeParams::default(),
    );
    let mut epoch = 0u32;
    let mut run = |coordinator: &mut Coordinator, epochs: u32| {
        let before = allocations();
        for _ in 0..epochs {
            coordinator.update(f64::from(epoch)).expect("update");
            epoch += 1;
        }
        allocations() - before
    };
    let _ = run(&mut coordinator, WARMUP_EPOCHS);
    let first = run(&mut coordinator, WINDOW_EPOCHS);
    let second = run(&mut coordinator, WINDOW_EPOCHS);
    (first, second)
}

#[test]
fn tenant_fanout_does_not_add_steady_state_allocation_churn() {
    // --- Bare pipeline: the fan-out path proper. ---
    let (solo_1, solo_2) = pipeline_windows(1);
    let (fleet_1, fleet_2) = pipeline_windows(4);
    println!(
        "pipeline allocs/window: solo {solo_1}/{solo_2}, 4 tenants {fleet_1}/{fleet_2}"
    );

    // Per-epoch counts must be flat as the run ages: recycling means the
    // second window costs no more than the first (small jitter allowed —
    // the programme delta varies epoch to epoch).
    let flat = |label: &str, first: u64, second: u64| {
        assert!(
            second <= first + first / 4 + 32,
            "{label}: allocation churn grows across windows ({first} -> {second})"
        );
    };
    flat("pipeline solo", solo_1, solo_2);
    flat("pipeline fleet", fleet_1, fleet_2);

    // Three additional tenants must cost only a small fraction of a solo
    // epoch: the shared core (propagation, diff, solve) is not re-run and
    // the per-tenant lane buffers recycle.
    let marginal = fleet_2.saturating_sub(solo_2) / 3;
    assert!(
        marginal <= solo_2 / 4 + 32,
        "pipeline: marginal per-tenant allocs {marginal}/epoch-window vs solo {solo_2}"
    );

    // --- Full coordinator: fan-out plus lane replay and /info slices. ---
    let (csolo_1, csolo_2) = coordinator_windows(1);
    let (cfleet_1, cfleet_2) = coordinator_windows(4);
    println!(
        "coordinator allocs/window: solo {csolo_1}/{csolo_2}, 4 tenants {cfleet_1}/{cfleet_2}"
    );
    flat("coordinator solo", csolo_1, csolo_2);
    flat("coordinator fleet", cfleet_1, cfleet_2);
    let marginal = cfleet_2.saturating_sub(csolo_2) / 3;
    assert!(
        marginal <= csolo_2 / 4 + 64,
        "coordinator: marginal per-tenant allocs {marginal}/epoch-window vs solo {csolo_2}"
    );

    // --- Zero marginal allocations per tenant. ---
    // Every tenant reads the one shared programme, so a 256-tenant window
    // costs what a solo window costs, up to the same jitter allowances as
    // above. A per-tenant walk — or a per-tenant thread fan-out inside one —
    // would add hundreds of events per epoch here.
    let (_, wide_2) = pipeline_windows(256);
    let (_, cwide_2) = coordinator_windows(256);
    println!("256 tenants allocs/window: pipeline {wide_2}, coordinator {cwide_2}");
    assert!(
        wide_2 <= solo_2 + 32,
        "pipeline: 256 tenants cost {wide_2} allocs/window vs solo {solo_2}"
    );
    assert!(
        cwide_2 <= csolo_2 + 64,
        "coordinator: 256 tenants cost {cwide_2} allocs/window vs solo {csolo_2}"
    );
}
