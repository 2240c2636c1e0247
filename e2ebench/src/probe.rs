//! Guest-application wrappers that observe a run from inside the public
//! `GuestApplication` interface: the tenant-0 probe (start time, update
//! intervals, programme counters, latency accuracy) and the per-callback
//! timer of the traced run.

use crate::stats::{process_cpu_seconds, Digest};
use celestial::testbed::{AppContext, GuestApplication};
use celestial_netem::packet::Packet;
use celestial_types::ids::NodeId;
use std::time::Instant;

/// The 0.1 ms quantum programmed delays are rounded to (`docs/NETPROG.md`).
const QUANTUM_MS: f64 = 0.1;
/// The default physical latency between two hosts that programmed delays are
/// compensated for; a target below it clamps (`docs/NETPROG.md`).
const HOST_LATENCY_MS: f64 = 0.2;

/// The fig05-style accuracy tally: at every epoch, the latency programmed
/// into the emulation against the latency the constellation calculation
/// expects, for every ground-station pair.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy {
    pub pairs_checked: u64,
    /// Pairs whose emulated latency lies within the quantum of the expected
    /// one, or that are unreachable on both sides.
    pub within_quantum: u64,
    /// Pairs slower than expected because the target was below the host
    /// latency and compensation clamped at zero.
    pub clamped: u64,
    /// Every other pair: a fidelity error.
    pub mismatched: u64,
    pub worst_error_ms: f64,
}

impl Accuracy {
    fn check(&mut self, ctx: &AppContext<'_>) {
        let stations = ctx.database().ground_stations().len() as u32;
        for i in 0..stations {
            for j in i + 1..stations {
                let (a, b) = (NodeId::ground_station(i), NodeId::ground_station(j));
                self.pairs_checked += 1;
                match (ctx.expected_latency(a, b), ctx.emulated_latency(a, b)) {
                    (None, None) => self.within_quantum += 1,
                    (Some(expected), Some(emulated)) => {
                        let expected = expected.as_millis_f64();
                        let error = emulated.as_millis_f64() - expected;
                        if error.abs() <= QUANTUM_MS + 1e-9 {
                            self.within_quantum += 1;
                        } else if error > 0.0 && expected < HOST_LATENCY_MS {
                            self.clamped += 1;
                        } else {
                            self.mismatched += 1;
                            self.worst_error_ms = self.worst_error_ms.max(error.abs());
                        }
                    }
                    _ => self.mismatched += 1,
                }
            }
        }
    }
}

/// Wraps tenant 0's application and records what a user waits for.
pub struct Probe<'a> {
    inner: &'a mut dyn GuestApplication,
    /// When the first `on_start` arrived, with the process CPU time then.
    pub started: Option<(Instant, f64)>,
    last_update: Option<Instant>,
    /// Wall milliseconds between consecutive `on_constellation_update`s.
    pub intervals_ms: Vec<f64>,
    /// Programme pairs and delta operations summed over tenants and epochs,
    /// as the info database reports them.
    pub programme: Digest,
    pub programme_pairs: u64,
    pub delta_ops: u64,
    /// Present when the run checks latency accuracy at every epoch.
    pub accuracy: Option<Accuracy>,
}

impl<'a> Probe<'a> {
    pub fn new(inner: &'a mut dyn GuestApplication, check_accuracy: bool) -> Self {
        Probe {
            inner,
            started: None,
            last_update: None,
            intervals_ms: Vec::new(),
            programme: Digest::default(),
            programme_pairs: 0,
            delta_ops: 0,
            accuracy: check_accuracy.then(Accuracy::default),
        }
    }

    fn observe_epoch(&mut self, ctx: &AppContext<'_>) {
        for report in ctx.database().tenant_reports() {
            self.programme.u64(report.pairs as u64);
            self.programme.u64(report.delta_ops as u64);
            self.programme_pairs += report.pairs as u64;
            self.delta_ops += report.delta_ops as u64;
        }
        if let Some(accuracy) = &mut self.accuracy {
            accuracy.check(ctx);
        }
    }
}

impl GuestApplication for Probe<'_> {
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        self.started = Some((Instant::now(), process_cpu_seconds()));
        self.observe_epoch(ctx);
        self.inner.on_start(ctx);
    }

    fn on_constellation_update(&mut self, ctx: &mut AppContext<'_>) {
        let now = Instant::now();
        if let Some(last) = self.last_update.replace(now) {
            self.intervals_ms.push((now - last).as_secs_f64() * 1e3);
        }
        self.observe_epoch(ctx);
        self.inner.on_constellation_update(ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut AppContext<'_>) {
        self.inner.on_timer(tag, ctx);
    }

    fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
        self.inner.on_message(message, ctx);
    }
}

/// One application callback of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct CallbackSpan {
    /// The epoch the callback ran in: simulated time over the update
    /// interval, the identifier shared with the layer spans.
    pub epoch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times every callback of one tenant's application.
pub struct CallbackTimer<'a> {
    inner: &'a mut dyn GuestApplication,
    interval_s: f64,
    origin: Instant,
    pub spans: Vec<CallbackSpan>,
}

impl<'a> CallbackTimer<'a> {
    pub fn new(inner: &'a mut dyn GuestApplication, interval_s: f64, origin: Instant) -> Self {
        CallbackTimer {
            inner,
            interval_s,
            origin,
            spans: Vec::new(),
        }
    }

    fn timed(
        &mut self,
        ctx: &mut AppContext<'_>,
        call: impl FnOnce(&mut dyn GuestApplication, &mut AppContext<'_>),
    ) {
        let epoch = (ctx.now().as_secs_f64() / self.interval_s).floor() as u64;
        let start = self.origin.elapsed();
        call(&mut *self.inner, ctx);
        let end = self.origin.elapsed();
        self.spans.push(CallbackSpan {
            epoch,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
    }
}

impl GuestApplication for CallbackTimer<'_> {
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        self.timed(ctx, |app, ctx| app.on_start(ctx));
    }

    fn on_constellation_update(&mut self, ctx: &mut AppContext<'_>) {
        self.timed(ctx, |app, ctx| app.on_constellation_update(ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut AppContext<'_>) {
        self.timed(ctx, |app, ctx| app.on_timer(tag, ctx));
    }

    fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
        self.timed(ctx, |app, ctx| app.on_message(message, ctx));
    }
}
