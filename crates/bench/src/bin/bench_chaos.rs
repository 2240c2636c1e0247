//! Chaos soak benchmark: emits `BENCH_chaos.json` for the chaos engine's
//! long-horizon guarantees (`docs/CHAOS.md`).
//!
//! Runs a full testbed — sharded hosts, pipelined epoch engine, the chaos
//! engine enabled — for a simulated day at one-second epochs, with a
//! journalling guest application pinging between the two ground stations.
//! Three gates must hold for the soak to pass (the process exits 1
//! otherwise, after writing the report):
//!
//! 1. **Flat growth** — journal bytes and heap allocations per block stay
//!    flat after warm-up (`celestial::invariants::SoakMeter`). A counting
//!    global allocator provides the allocation counts.
//! 2. **No uncapped pairs** — the final network programme contains no
//!    `Bandwidth::INFINITY` entry (`check_no_uncapped`).
//! 3. **Convergence** — the final programme is bit-identical to a fault-free
//!    reference run of the same configuration (`programme_divergence`);
//!    chaos windows end at least two epochs before the horizon, so the
//!    programme must have converged.
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_chaos             # 24 h soak
//! $ cargo run --release -p celestial-bench --bin bench_chaos -- --quick  # CI smoke
//! ```
//!
//! The report also gates that chaos scheduled events, that blocks were
//! recorded and that no recovery failed.
//!
//! Flags: `--quick` (10-simulated-minute smoke), `--seed N` (default 11),
//! `--out FILE` (default `BENCH_chaos.json`, or `BENCH_chaos_smoke.json`
//! under `--quick`).

use celestial::config::{ChaosConfig, TestbedConfig};
use celestial::invariants::{check_no_uncapped, programme_divergence, SoakMeter};
use celestial::pipeline::PipelineMode;
use celestial::testbed::{AppContext, GuestApplication, Testbed};
use celestial_bench::{BenchReport, Op, Options};
use celestial_constellation::{BoundingBox, GroundStation, Shell};
use celestial_netem::Packet;
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::{SimDuration, SimInstant};
use serde_json::{json, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts allocation events, so the soak can
/// gate on flat allocation counts per block. Reallocation counts as one
/// event; frees are not counted (growth is what leaks look like).
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

/// The simulated horizon and the length of one growth-sampling block.
struct Params {
    duration_s: f64,
    block_s: u64,
}

/// A simulated day in one-hour blocks; `--quick` soaks ten minutes.
const FULL: Params = Params { duration_s: 86_400.0, block_s: 3_600 };
const QUICK: Params = Params { duration_s: 600.0, block_s: 60 };

/// Blocks excluded from the flat-growth verdict, and the headroom it
/// allows each later block over the first steady one.
const WARMUP_BLOCKS: usize = 2;
const TOLERANCE: f64 = 2.0;

/// Host shards of the soaked testbed.
const SHARDS: u32 = 4;

/// The default chaos seed.
const SEED: u64 = 11;

fn config(params: &Params, seed: u64, chaos: Option<ChaosConfig>) -> TestbedConfig {
    let mut builder = TestbedConfig::builder()
        .seed(seed)
        .update_interval_s(1.0)
        .duration_s(params.duration_s)
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .pipeline(PipelineMode::Pipelined)
        .shards(SHARDS);
    if let Some(chaos) = chaos {
        builder = builder.chaos(chaos);
    }
    builder.build().expect("valid soak config")
}

/// Journalling ping application: one ping and one journal line per simulated
/// second, plus one `(journal growth, allocation growth)` sample per block.
struct SoakApp {
    accra: Option<NodeId>,
    abuja: Option<NodeId>,
    block_s: u64,
    journal: String,
    sent_at: BTreeMap<u64, SimInstant>,
    next_seq: u64,
    rtts: u64,
    last_rtt_ms: f64,
    samples: Vec<(u64, u64)>,
    last_journal_bytes: u64,
    last_allocations: u64,
}

impl SoakApp {
    fn new(block_s: u64) -> Self {
        SoakApp {
            accra: None,
            abuja: None,
            block_s,
            journal: String::new(),
            sent_at: BTreeMap::new(),
            next_seq: 0,
            rtts: 0,
            last_rtt_ms: f64::NAN,
            samples: Vec::new(),
            last_journal_bytes: 0,
            last_allocations: 0,
        }
    }

    fn send_ping(&mut self, ctx: &mut AppContext<'_>) {
        let (Some(a), Some(b)) = (self.accra, self.abuja) else { return };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_at.insert(seq, ctx.now());
        // Drop in-flight records for pings lost to chaos, so the map stays
        // bounded over the full day.
        self.sent_at.retain(|&s, _| seq.saturating_sub(s) < 64);
        ctx.send(a, b, 1_250, seq.to_le_bytes().to_vec());
    }
}

impl GuestApplication for SoakApp {
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        self.accra = ctx.ground_station("accra");
        self.abuja = ctx.ground_station("abuja");
        self.send_ping(ctx);
        ctx.set_timer(SimDuration::from_secs(1), 0);
        self.last_journal_bytes = self.journal.len() as u64;
        self.last_allocations = allocations();
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut AppContext<'_>) {
        self.send_ping(ctx);
        let now = ctx.now();
        let (accra_up, abuja_up) = (
            self.accra.is_some_and(|n| ctx.is_running(n)),
            self.abuja.is_some_and(|n| ctx.is_running(n)),
        );
        self.journal.push_str(&format!(
            "t={:?} pings={} rtts={} last_rtt_ms={:.3} accra_up={accra_up} abuja_up={abuja_up}\n",
            now, self.next_seq, self.rtts, self.last_rtt_ms,
        ));
        let seconds = now.as_micros() / 1_000_000;
        if seconds > 0 && seconds % self.block_s == 0 {
            let journal_bytes = self.journal.len() as u64;
            let allocs = allocations();
            self.samples.push((
                journal_bytes - self.last_journal_bytes,
                allocs - self.last_allocations,
            ));
            self.last_journal_bytes = journal_bytes;
            self.last_allocations = allocs;
        }
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }

    fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
        if message.payload.len() < 8 {
            return;
        }
        let seq = u64::from_le_bytes(message.payload[..8].try_into().unwrap());
        if let Some(sent) = self.sent_at.remove(&seq) {
            self.rtts += 1;
            self.last_rtt_ms = (ctx.now() - sent).as_secs_f64() * 1_000.0;
        }
    }
}

/// Fault-free reference application: nothing to do, the reference run only
/// exists for its final network programme.
struct Quiet;

impl GuestApplication for Quiet {}

fn main() -> ExitCode {
    let options = Options::from_args(Some(SEED));
    let params = options.pick(FULL, QUICK);
    let seed = options.seed;
    println!(
        "# bench_chaos: {} s simulated at 1 s epochs, {} s blocks, seed {seed}, {SHARDS} shards, pipelined",
        params.duration_s, params.block_s
    );

    // Chaos run.
    let chaos_config = config(&params, seed, Some(ChaosConfig::default()));
    let mut testbed = Testbed::new(&chaos_config).expect("chaos testbed");
    let chaos_events = testbed.chaos_events();
    let mut app = SoakApp::new(params.block_s);
    let started = Instant::now();
    testbed.run(&mut app).expect("chaos soak run");
    let chaos_wall_s = started.elapsed().as_secs_f64();
    let chaos_programme = testbed.coordinator().network_programme().expect("programme");
    println!(
        "# chaos run: {:.1} s wall, {} chaos events, {} pings, {} rtts, journal {} B",
        chaos_wall_s,
        chaos_events,
        app.next_seq,
        app.rtts,
        app.journal.len(),
    );

    // Fault-free reference run for the convergence gate.
    let reference_config = config(&params, seed, None);
    let mut reference = Testbed::new(&reference_config).expect("reference testbed");
    let started = Instant::now();
    reference.run(&mut Quiet).expect("reference run");
    let reference_wall_s = started.elapsed().as_secs_f64();
    let reference_programme = reference.coordinator().network_programme().expect("programme");

    // Gates.
    let mut meter = SoakMeter::new();
    for &(journal, allocs) in &app.samples {
        meter.record_block(journal, allocs);
    }
    let flat = meter.verdict(WARMUP_BLOCKS, TOLERANCE);
    let uncapped = check_no_uncapped(&chaos_programme);
    let divergence = programme_divergence(&reference_programme, &chaos_programme);
    let failed_recoveries = testbed.failed_recoveries();

    let mut failures: Vec<String> = Vec::new();
    if let Err(violations) = &flat {
        failures.extend(violations.iter().cloned());
    }
    failures.extend(uncapped.iter().cloned());
    failures.extend(divergence.iter().cloned());
    if failed_recoveries > 0 {
        failures.push(format!("{failed_recoveries} recoveries failed"));
    }

    let blocks: Vec<Value> = app
        .samples
        .iter()
        .enumerate()
        .map(|(i, &(journal, allocs))| {
            json!({"block": i, "journal_bytes": journal, "allocations": allocs})
        })
        .collect();
    if failures.is_empty() {
        println!(
            "# PASS: flat over {} blocks, 0 uncapped pairs, converged to the fault-free programme",
            app.samples.len()
        );
    } else {
        for failure in &failures {
            eprintln!("# FAIL: {failure}");
        }
    }

    let mut report = BenchReport::new("chaos", &options);
    // A soak in which chaos scheduled nothing proves nothing.
    report.gate("chaos_events", chaos_events as f64, Op::Gt, 0.0);
    report.gate("blocks", blocks.len() as f64, Op::Ge, 1.0);
    report.check("flat", flat.is_ok());
    report.gate("uncapped_pairs", uncapped.len() as f64, Op::Eq, 0.0);
    report.check("converged", divergence.is_empty());
    report.gate("failed_recoveries", failed_recoveries as f64, Op::Eq, 0.0);
    report.finish(json!({
        "duration_s": params.duration_s,
        "interval_s": 1.0,
        "block_s": params.block_s,
        "warmup_blocks": WARMUP_BLOCKS,
        "tolerance": TOLERANCE,
        "seed": seed,
        "shards": SHARDS,
        "pipelined": true,
        "chaos_events": chaos_events,
        "ignored_faults": testbed.ignored_faults(),
        "failed_recoveries": failed_recoveries,
        "pings": app.next_seq,
        "rtts": app.rtts,
        "journal_bytes": app.journal.len(),
        "programme_pairs": chaos_programme.len(),
        "blocks": blocks,
        "flat": flat.is_ok(),
        "uncapped_pairs": uncapped.len(),
        "converged": divergence.is_empty(),
        "failures": failures,
        "chaos_wall_s": chaos_wall_s,
        "reference_wall_s": reference_wall_s,
    }))
}
