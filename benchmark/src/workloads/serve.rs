//! `serve_cold` and `serve_warm`: `sweep_cold`'s grid submitted to an
//! in-process daemon over loopback — the write side and the read side of
//! the result cache, with protocol, scheduler and socket on top.

use super::sweep::{g40, run_traced, THREADS};
use super::{digest, out_dir, Plain, Scale, Traced, Values, Workload};
use crate::stats::median;
use crate::trace::Trace;
use noc_selfconf::serve::{
    scenario_cache_key, CacheStats, Event, Request, ResultCache, Scheduler, SchedulerConfig,
};
use noc_selfconf::{Daemon, ScenarioResult, ServeClient, ServeConfig, SweepGrid, SweepReport};
use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

/// Client connections of the warm workload, each a closed loop. One: a
/// second only adds threads for the box's two cores to share.
const CLIENTS: usize = 1;

struct Serve {
    grid: SweepGrid,
    dir: PathBuf,
    /// The primed daemon and its client connections (warm only; the cold
    /// workload starts a fresh daemon per repeat).
    warm: Option<(Daemon, Vec<ServeClient>)>,
    /// Submits per client per repeat (1 when cold).
    submits: u64,
    reference: String,
    /// Request and event lines of the last traced submit.
    exchange: Vec<String>,
    /// Median seconds per submit over the last traced repeat.
    submit_s: f64,
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        threads: THREADS,
        ..SchedulerConfig::default()
    }
}

fn start_daemon(cache_dir: &Path) -> Result<Daemon, String> {
    Daemon::start(ServeConfig {
        scheduler: scheduler_config(),
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(io_err)
}

fn stop_daemon(daemon: Daemon) {
    daemon.shutdown();
    daemon.wait();
}

/// Remove and re-create `dir`, so a cache opened there starts empty.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(io_err)
}

fn report_digest(report: &SweepReport) -> Result<String, String> {
    let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    Ok(digest(json.as_bytes()))
}

/// What the harness saw of one submit, made the way `noc-cli submit` makes
/// it: one request line, then event lines until the terminal one.
struct Submit {
    wall_s: f64,
    /// Host milliseconds from the request being sent to each scenario's
    /// `result` line being received.
    result_ms: Vec<f64>,
    bytes_in: usize,
    bytes_out: usize,
    lines: Vec<String>,
    /// `None` when the daemon refused, canceled or failed the job.
    report: Option<Box<SweepReport>>,
}

fn submit(client: &mut ServeClient, name: &str, grid: &SweepGrid) -> Result<Submit, String> {
    let request = Request::Submit {
        client: name.to_string(),
        grid: Box::new(grid.clone()),
    }
    .render();
    let t0 = Instant::now();
    client.send_raw(&request).map_err(io_err)?;
    let mut out = Submit {
        wall_s: 0.0,
        result_ms: Vec::with_capacity(grid.len()),
        bytes_in: request.len() + 1,
        bytes_out: 0,
        lines: vec![request],
        report: None,
    };
    loop {
        let line = client.recv_line().map_err(io_err)?;
        out.bytes_out += line.len() + 1;
        let event = Event::parse(&line)?;
        out.lines.push(line);
        match event {
            Event::Accepted { .. } => {}
            Event::Result { .. } => out.result_ms.push(t0.elapsed().as_secs_f64() * 1e3),
            Event::Done { report, .. } => {
                out.report = Some(report);
                break;
            }
            _ => break,
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

fn setup(name: &str, seed: u64, scale: Scale, warm: bool) -> Result<Box<dyn Workload>, String> {
    let mut w = Serve {
        grid: g40(seed, scale),
        dir: out_dir(name)?,
        warm: None,
        submits: if warm { scale.of(5, 2) } else { 1 },
        reference: String::new(),
        exchange: Vec::new(),
        submit_s: 0.0,
    };
    if warm {
        // The priming submit is the one that simulates; its report is the
        // reference every cache hit must reproduce.
        fresh_dir(&w.dir)?;
        let daemon = start_daemon(&w.dir)?;
        let addr = daemon.addr().to_string();
        let mut clients = (0..CLIENTS)
            .map(|_| ServeClient::connect(&addr).map_err(io_err))
            .collect::<Result<Vec<_>, _>>()?;
        let report = clients[0].run_grid("prime", &w.grid).map_err(io_err)?;
        w.reference = report_digest(&report)?;
        w.warm = Some((daemon, clients));
        // Two hits per connection warm the read path; a whole repeat of
        // them would only lengthen set-up.
        let (hits, _) = w.warm_round(2)?;
        if w.outcome(&hits)?.digest != w.reference {
            return Err("a cache hit differs from the priming submit's report".to_string());
        }
    } else {
        // The same grid through `sweep-grid`'s path: the served report must
        // be these bytes.
        let report = w.grid.run(THREADS).map_err(|e| e.to_string())?;
        w.reference = report_digest(&report)?;
    }
    Ok(Box::new(w))
}

pub fn setup_cold(seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    setup("serve_cold", seed, scale, false)
}

pub fn setup_warm(seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    setup("serve_warm", seed, scale, true)
}

fn stats_delta(values: &mut Values, before: CacheStats, after: CacheStats) {
    for (name, before, after) in [
        (
            "noc_selfconf.serve.cache.memory_hits",
            before.memory_hits,
            after.memory_hits,
        ),
        (
            "noc_selfconf.serve.cache.disk_hits",
            before.disk_hits,
            after.disk_hits,
        ),
        (
            "noc_selfconf.serve.cache.computed",
            before.computed,
            after.computed,
        ),
        (
            "noc_selfconf.serve.cache.coalesced",
            before.coalesced,
            after.coalesced,
        ),
        (
            "noc_selfconf.serve.cache.write_errors",
            before.write_errors,
            after.write_errors,
        ),
    ] {
        values.insert(name, (after - before) as f64);
    }
}

impl Serve {
    /// Fold the submits of one repeat into its outcome: every submit is a
    /// timed unit. `reports` are digested here, after the timed part.
    fn outcome(&self, submits: &[Submit]) -> Result<Plain, String> {
        let per_submit = if self.warm.is_some() {
            1
        } else {
            self.grid.len() as u64
        };
        let mut failed = 0;
        let mut digests = Vec::new();
        for s in submits {
            match &s.report {
                Some(report) => digests.push(report_digest(report)?),
                None => failed += per_submit,
            }
        }
        digests.dedup();
        Ok(Plain {
            unit_s: submits.iter().map(|s| s.wall_s).collect(),
            digest: match digests.as_slice() {
                [one] => one.clone(),
                _ => format!("{} distinct reports", digests.len()),
            },
            failed,
        })
    }

    /// One cold repeat: fresh daemon on an empty cache directory, one
    /// submit. Only the submit is timed.
    fn cold(&mut self, trace: Option<&mut Trace>) -> Result<(Submit, Values), String> {
        let mut scratch = Trace::new();
        let trace = trace.unwrap_or(&mut scratch);
        fresh_dir(&self.dir)?;
        let daemon = trace.span("noc_selfconf.serve.daemon.start", || {
            start_daemon(&self.dir)
        })?;
        let mut client = ServeClient::connect(&daemon.addr().to_string()).map_err(io_err)?;
        let before = daemon.scheduler().cache().stats();
        let done = trace.span("noc_selfconf.serve.client.submit", || {
            submit(&mut client, "bench", &self.grid)
        });
        let mut values = Values::new();
        stats_delta(&mut values, before, daemon.scheduler().cache().stats());
        drop(client);
        trace.span("noc_selfconf.serve.daemon.stop", || stop_daemon(daemon));
        Ok((done?, values))
    }

    /// One warm round: every client submits the grid `submits` times, each
    /// waiting for its reply before sending the next.
    fn warm_round(&mut self, submits: u64) -> Result<(Vec<Submit>, Values), String> {
        let (daemon, clients) = self.warm.as_mut().expect("warm workload");
        let grid = &self.grid;
        let before = daemon.scheduler().cache().stats();
        let per_client: Vec<Result<Vec<Submit>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    scope.spawn(move || {
                        let name = format!("bench{i}");
                        (0..submits).map(|_| submit(client, &name, grid)).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut values = Values::new();
        stats_delta(&mut values, before, daemon.scheduler().cache().stats());
        let mut all = Vec::new();
        for submits in per_client {
            all.extend(submits?);
        }
        Ok((all, values))
    }

    /// The grid through `Scheduler::submit` and a channel — the daemon
    /// without its socket. Cold runs it on a fresh scheduler and cache
    /// directory, warm on the primed daemon's own scheduler.
    fn direct_s(&self, trace: &mut Trace) -> Result<f64, String> {
        let own = match &self.warm {
            Some(_) => None,
            None => {
                let dir = self.dir.join("direct");
                fresh_dir(&dir)?;
                let cache = Arc::new(ResultCache::open(&dir).map_err(io_err)?);
                Some(Scheduler::start(scheduler_config(), cache))
            }
        };
        let scheduler = own
            .as_ref()
            .or(self.warm.as_ref().map(|(daemon, _)| daemon.scheduler()))
            .expect("a cold workload starts its own scheduler above");
        let (tx, rx) = channel();
        let span = trace.begin("noc_selfconf.serve.scheduler.direct");
        scheduler
            .submit("direct", 1, self.grid.clone(), &tx)
            .map_err(|(code, message)| format!("{}: {message}", code.name()))?;
        // The scheduler keeps a sender while the job lives, so wait for the
        // terminal event, not for the channel to close.
        let terminal = rx.iter().find(|event| {
            matches!(
                event,
                Event::Done { .. } | Event::Failed { .. } | Event::Canceled { .. }
            )
        });
        trace.end(span);
        if let Some(own) = own {
            own.begin_shutdown();
            own.join();
        }
        if !matches!(terminal, Some(Event::Done { .. })) {
            return Err("direct submit ended without a `done` event".to_string());
        }
        Ok(trace.spans()[span].busy_ns as f64 / 1e9)
    }
}

impl Workload for Serve {
    fn ops(&self) -> u64 {
        match self.warm {
            Some(_) => CLIENTS as u64 * self.submits,
            None => self.grid.len() as u64,
        }
    }

    fn reference(&self) -> &str {
        &self.reference
    }

    fn repeat(&mut self) -> Result<Plain, String> {
        if self.warm.is_some() {
            let (submits, _) = self.warm_round(self.submits)?;
            self.outcome(&submits)
        } else {
            let (submit, _) = self.cold(None)?;
            self.outcome(&[submit])
        }
    }

    fn repeat_traced(&mut self, trace: &mut Trace) -> Result<Traced, String> {
        let (mut submits, mut values) = if self.warm.is_some() {
            let span = trace.begin("noc_selfconf.serve.client.round");
            let round = self.warm_round(self.submits);
            trace.end(span);
            round?
        } else {
            let (submit, values) = self.cold(Some(trace))?;
            (vec![submit], values)
        };
        let plain = self.outcome(&submits)?;
        let sum = |f: fn(&Submit) -> usize| submits.iter().map(f).sum::<usize>() as f64;
        values.insert("noc_selfconf.serve.daemon.bytes_in", sum(|s| s.bytes_in));
        values.insert("noc_selfconf.serve.daemon.bytes_out", sum(|s| s.bytes_out));
        let first: Vec<f64> = submits
            .iter()
            .filter_map(|s| s.result_ms.first().copied())
            .collect();
        values.insert(
            "noc_selfconf.serve.daemon.first_result_ms",
            median(&first).unwrap_or(0.0),
        );
        let walls: Vec<f64> = submits.iter().map(|s| s.wall_s).collect();
        self.submit_s = median(&walls).unwrap_or(0.0);
        // Warm: one operation is one submit. Cold: one scenario, timed
        // from the request to its `result` line.
        let op_ms = if self.warm.is_some() {
            walls.iter().map(|s| s * 1e3).collect()
        } else {
            std::mem::take(&mut submits[0].result_ms)
        };
        self.exchange = submits.pop().map(|s| s.lines).unwrap_or_default();
        Ok(Traced {
            plain,
            op_ms,
            values,
        })
    }

    /// Protocol, cache and scheduler costs on their own, on this grid's
    /// actual lines, keys and results.
    fn standalone(&mut self, trace: &mut Trace) -> Result<Values, String> {
        let mut values = Values::new();

        // Re-parse and re-render every line of one submit's exchange.
        let (request, events) = self
            .exchange
            .split_first()
            .ok_or("no traced submit to take lines from")?;
        let (parsed_request, parsed_events) =
            trace.span("noc_selfconf.serve.protocol.parse", || {
                let request = Request::parse(request);
                let events: Result<Vec<Event>, String> =
                    events.iter().map(|l| Event::parse(l)).collect();
                (request, events)
            });
        let (parsed_request, parsed_events) = (parsed_request?, parsed_events?);
        trace.span("noc_selfconf.serve.protocol.render", || {
            std::hint::black_box(parsed_request.render());
            for event in &parsed_events {
                std::hint::black_box(event.render());
            }
        });
        values.insert(
            "noc_selfconf.serve.protocol.parse_s",
            trace.busy("noc_selfconf.serve.protocol.parse").0,
        );
        values.insert(
            "noc_selfconf.serve.protocol.render_s",
            trace.busy("noc_selfconf.serve.protocol.render").0,
        );

        // Cache: key derivation, a memory hit, and a miss with its store
        // (tmp + rename), for each of the grid's scenarios. The results
        // come from the exchange, so no miss simulates anything.
        let results: Vec<ScenarioResult> = parsed_events
            .into_iter()
            .filter_map(|e| match e {
                Event::Result { result, .. } => Some(*result),
                _ => None,
            })
            .collect();
        let scenarios = self.grid.scenarios();
        let (warmup, measure, drain) = (self.grid.warmup, self.grid.measure, self.grid.drain);
        let keys: Vec<_> = trace.span("noc_selfconf.serve.cache.key", || {
            scenarios
                .iter()
                .map(|s| scenario_cache_key(s, warmup, measure, drain))
                .collect()
        });
        let dir = self.dir.join("standalone");
        fresh_dir(&dir)?;
        let cache = ResultCache::open(&dir).map_err(io_err)?;
        let lookup = |cache: &ResultCache| -> Result<(), String> {
            for (key, result) in keys.iter().zip(&results) {
                cache
                    .get_or_compute(key, || Ok(result.clone()))
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        trace.span("noc_selfconf.serve.cache.miss_store", || lookup(&cache))?;
        trace.span("noc_selfconf.serve.cache.hit", || lookup(&cache))?;
        let stats = cache.stats();
        if stats.computed != results.len() as u64 || stats.memory_hits != results.len() as u64 {
            return Err(format!("stand-alone cache pass went wrong: {stats:?}"));
        }
        for (metric, span) in [
            (
                "noc_selfconf.serve.cache.key_s",
                "noc_selfconf.serve.cache.key",
            ),
            (
                "noc_selfconf.serve.cache.miss_store_s",
                "noc_selfconf.serve.cache.miss_store",
            ),
            (
                "noc_selfconf.serve.cache.hit_s",
                "noc_selfconf.serve.cache.hit",
            ),
        ] {
            values.insert(metric, trace.busy(span).0);
        }

        let direct_s = self.direct_s(trace)?;
        values.insert("noc_selfconf.serve.scheduler.direct_s", direct_s);
        values.insert(
            "noc_selfconf.serve.daemon.socket_residual_s",
            self.submit_s - direct_s,
        );

        if self.warm.is_none() {
            // The simulated cycles behind one cold submit, counted on the
            // rebuilt sweep (the daemon's own simulators are out of reach).
            let (_, _, sweep) = run_traced(&self.grid, THREADS, &mut Trace::new())?;
            for name in ["noc-sim.network.cycles", "noc-sim.network.router_cycles"] {
                values.insert(name, sweep[name]);
            }
        }
        Ok(values)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some((daemon, clients)) = self.warm.take() {
            drop(clients);
            stop_daemon(daemon);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
