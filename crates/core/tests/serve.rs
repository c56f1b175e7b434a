//! Integration tests of the sweep-as-a-service stack: cache-key
//! completeness, single-flight deduplication, the warm-cache speedup
//! headline, the daemon's protocol / admission / failure behavior, and the
//! wire path (latency, byte identity across peers, mutated lines).

use noc_selfconf::serve::{
    scenario_cache_key, CacheOutcome, CacheStats, Daemon, ErrorCode, Event, Request, ResultCache,
    Scheduler, SchedulerConfig, SchedulerStats, ServeClient, ServeConfig,
};
use noc_selfconf::{ScenarioResult, SweepGrid};
use noc_sim::{RoutingAlgorithm, SimError, SwitchArb, TrafficPattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

mod common;
use common::mutate;

/// A small, fast grid (4 scenarios at 4x4, 110 cycles each).
fn tiny_grid() -> SweepGrid {
    SweepGrid {
        sizes: vec![(4, 4)],
        patterns: vec![TrafficPattern::Uniform, TrafficPattern::Transpose],
        rates: vec![0.03, 0.06],
        routings: vec![RoutingAlgorithm::Xy],
        warmup: 10,
        measure: 50,
        drain: 50,
        ..SweepGrid::default()
    }
}

/// A single-scenario grid that takes long enough to keep one worker busy
/// while a few quick scheduler calls happen on another thread.
fn slow_grid() -> SweepGrid {
    SweepGrid {
        sizes: vec![(8, 8)],
        patterns: vec![TrafficPattern::Uniform],
        rates: vec![0.05],
        routings: vec![RoutingAlgorithm::Xy],
        warmup: 100,
        measure: 4000,
        drain: 400,
        ..SweepGrid::default()
    }
}

/// Fresh per-test temp dir (removed up front so reruns start cold).
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("noc_serve_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Cache keys (satellite: completeness audit)
// ---------------------------------------------------------------------------

/// The cache key of scenario 0 of a grid, as a hex string.
fn key_of(grid: &SweepGrid) -> String {
    let s = &grid.scenarios()[0];
    scenario_cache_key(s, grid.warmup, grid.measure, grid.drain)
        .as_str()
        .to_string()
}

#[test]
fn cache_key_covers_every_behavior_affecting_field() {
    let base = tiny_grid();
    let reference = key_of(&base);

    // Identical derivation is stable, and keys are 32 hex chars (usable as
    // file stems without escaping).
    assert_eq!(reference, key_of(&tiny_grid()));
    assert_eq!(reference.len(), 32);
    assert!(reference.chars().all(|c| c.is_ascii_hexdigit()));

    // switch_arb must be in the key: configs differing only in arbitration
    // policy simulate differently (for multi-flit packets).
    let mut g = tiny_grid();
    g.base = g.base.clone().with_switch_arb(SwitchArb::PerPacket);
    assert_ne!(reference, key_of(&g), "switch_arb must affect the key");

    // Base-config fields that never appear in the label still land in the
    // key via the serialized config.
    let mut g = tiny_grid();
    g.base.packet_len = 7;
    assert_ne!(reference, key_of(&g), "packet length must affect the key");
    let mut g = tiny_grid();
    g.base.vc_depth += 2;
    assert_ne!(reference, key_of(&g), "vc_depth must affect the key");

    // Seed, axes, and window budgets all separate.
    let g = SweepGrid {
        base_seed: 999,
        ..tiny_grid()
    };
    assert_ne!(reference, key_of(&g), "seed must affect the key");
    let g = SweepGrid {
        rates: vec![0.04, 0.06],
        ..tiny_grid()
    };
    assert_ne!(reference, key_of(&g), "injection rate must affect the key");
    let g = SweepGrid {
        measure: 60,
        ..tiny_grid()
    };
    assert_ne!(reference, key_of(&g), "window budget must affect the key");
    let g = SweepGrid {
        faults: vec![2],
        ..tiny_grid()
    };
    assert_ne!(reference, key_of(&g), "fault plan must affect the key");
    let g = SweepGrid {
        levels: vec![Some(0)],
        ..tiny_grid()
    };
    assert_ne!(
        reference,
        key_of(&g),
        "pinned DVFS level must affect the key"
    );
}

// ---------------------------------------------------------------------------
// Single-flight + cache tiers
// ---------------------------------------------------------------------------

#[test]
fn concurrent_identical_lookups_compute_exactly_once() {
    let grid = tiny_grid();
    let scenarios = grid.scenarios();
    let scenario = &scenarios[0];
    let key = scenario_cache_key(scenario, grid.warmup, grid.measure, grid.drain);
    let cache = ResultCache::in_memory();
    let runs = AtomicUsize::new(0);
    let n = 8;
    let barrier = Barrier::new(n);
    let results: Vec<(ScenarioResult, CacheOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let (cache, runs, barrier, key, grid) = (&cache, &runs, &barrier, &key, &grid);
                scope.spawn(move || {
                    barrier.wait();
                    cache
                        .get_or_compute(key, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            grid.run_scenario(scenario)
                        })
                        .expect("scenario runs")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        runs.load(Ordering::SeqCst),
        1,
        "N concurrent identical lookups must trigger exactly one run"
    );
    let bytes: Vec<String> = results
        .iter()
        .map(|(r, _)| serde_json::to_string(r).unwrap())
        .collect();
    assert!(
        bytes.iter().all(|b| b == &bytes[0]),
        "every caller must see identical result bytes"
    );
    let computed = results
        .iter()
        .filter(|(_, o)| *o == CacheOutcome::Computed)
        .count();
    assert_eq!(computed, 1, "exactly one caller computed");
    let stats = cache.stats();
    assert_eq!(stats.computed, 1);
    let lookups = stats.memory_hits + stats.disk_hits + stats.coalesced + stats.computed;
    assert_eq!(lookups, n as u64);
}

#[test]
fn failed_computation_releases_the_flight_and_allows_retry() {
    let cache = ResultCache::in_memory();
    let grid = tiny_grid();
    let scenarios = grid.scenarios();
    let scenario = &scenarios[0];
    let key = scenario_cache_key(scenario, grid.warmup, grid.measure, grid.drain);
    // First computation fails; the error propagates and the slot is freed.
    let err = cache.get_or_compute(&key, || Err(SimError::InvalidConfig("boom".into())));
    assert!(err.is_err());
    // The next caller is not stuck behind a dead flight — it computes.
    let (result, outcome) = cache
        .get_or_compute(&key, || grid.run_scenario(scenario))
        .expect("retry succeeds");
    assert_eq!(outcome, CacheOutcome::Computed);
    assert_eq!(result.label, scenario.label);
}

#[test]
fn unwritable_cache_dir_is_rejected_at_open() {
    // A regular file where the directory should be: creation fails.
    let dir = temp_dir("unwritable");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    assert!(
        ResultCache::open(&blocker.join("cache")).is_err(),
        "opening a cache under a regular file must fail"
    );
    // And the daemon refuses to start on it (graceful-errors satellite).
    let config = ServeConfig {
        cache_dir: Some(blocker.join("cache")),
        ..ServeConfig::default()
    };
    assert!(Daemon::start(config).is_err());
}

#[test]
fn corrupt_disk_entries_are_soft_misses() {
    let dir = temp_dir("corrupt");
    let grid = tiny_grid();
    let scenarios = grid.scenarios();
    let scenario = &scenarios[0];
    let key = scenario_cache_key(scenario, grid.warmup, grid.measure, grid.drain);
    std::fs::write(dir.join(format!("{key}.json")), b"{torn write").unwrap();
    let cache = ResultCache::open(&dir).unwrap();
    let (_, outcome) = cache
        .get_or_compute(&key, || grid.run_scenario(scenario))
        .expect("corrupt entry must not fail the job");
    assert_eq!(outcome, CacheOutcome::Computed);
    assert_eq!(cache.stats().read_errors, 1);
    // The entry was rewritten; a fresh cache now disk-hits.
    let cache2 = ResultCache::open(&dir).unwrap();
    let (_, outcome) = cache2
        .get_or_compute(&key, || grid.run_scenario(scenario))
        .expect("rewritten entry loads");
    assert_eq!(outcome, CacheOutcome::DiskHit);
}

// ---------------------------------------------------------------------------
// The headline: warm rerun of a >= 100-scenario grid, >= 10x, byte-identical
// ---------------------------------------------------------------------------

#[test]
fn warm_cache_rerun_is_10x_faster_and_byte_identical() {
    // 4 patterns x 25 rates = 100 scenarios at 4x4. The budget (1210
    // cycles per scenario) keeps the cold run comfortably past 10x the
    // warm disk-read cost even in release mode, where simulation is cheap.
    let grid = SweepGrid {
        sizes: vec![(4, 4)],
        patterns: vec![
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::Tornado,
            TrafficPattern::BitComplement,
        ],
        rates: (1..=25).map(|i| f64::from(i) * 0.003).collect(),
        routings: vec![RoutingAlgorithm::Xy],
        warmup: 10,
        measure: 1000,
        drain: 200,
        ..SweepGrid::default()
    };
    assert!(grid.len() >= 100, "headline needs >= 100 scenarios");
    let dir = temp_dir("warm10x");
    let threads = 4;

    let cold_cache = ResultCache::open(&dir).unwrap();
    let cold_start = Instant::now();
    let cold = grid.run_cached(threads, &cold_cache).expect("cold run");
    let cold_time = cold_start.elapsed();
    assert_eq!(cold_cache.stats().computed, grid.len() as u64);

    // A fresh process would open a fresh cache: only the disk tier is warm.
    let warm_cache = ResultCache::open(&dir).unwrap();
    let warm_start = Instant::now();
    let warm = grid.run_cached(threads, &warm_cache).expect("warm run");
    let warm_time = warm_start.elapsed();
    assert_eq!(warm_cache.stats().disk_hits, grid.len() as u64);
    assert_eq!(
        warm_cache.stats().computed,
        0,
        "warm rerun simulates nothing"
    );

    let cold_bytes = serde_json::to_string_pretty(&cold).unwrap();
    let warm_bytes = serde_json::to_string_pretty(&warm).unwrap();
    assert_eq!(cold_bytes, warm_bytes, "warm report must be byte-identical");

    // And byte-identical to the cache-free engine at another thread count.
    let direct = serde_json::to_string_pretty(&grid.run(2).expect("direct run")).unwrap();
    assert_eq!(cold_bytes, direct, "cached and uncached worlds must agree");

    assert!(
        warm_time.as_secs_f64() * 10.0 <= cold_time.as_secs_f64(),
        "warm rerun must be >= 10x faster (cold {cold_time:?}, warm {warm_time:?})"
    );
}

// ---------------------------------------------------------------------------
// Scheduler admission + cancel accounting (no TCP)
// ---------------------------------------------------------------------------

#[test]
fn admission_bounds_reject_and_free_cleanly() {
    let scheduler = Scheduler::start(
        SchedulerConfig {
            threads: 2,
            max_outstanding: 10,
            max_client_outstanding: 4,
        },
        Arc::new(ResultCache::in_memory()),
    );
    let (tx, rx) = std::sync::mpsc::channel();
    // 4 scenarios fit the client quota exactly.
    scheduler
        .submit("alice", 1, tiny_grid(), &tx)
        .expect("within bounds");
    // A second 4-scenario job busts alice's quota (4+4 > 4)...
    let err = scheduler.submit("alice", 2, tiny_grid(), &tx).unwrap_err();
    assert_eq!(err.0, ErrorCode::ClientQuota);
    // ...bob still fits (global 4+4 <= 10, fresh quota)...
    scheduler
        .submit("bob", 2, tiny_grid(), &tx)
        .expect("bob fits");
    // ...and a third job busts the global bound (8+4 > 10).
    let err = scheduler.submit("carl", 3, tiny_grid(), &tx).unwrap_err();
    assert_eq!(err.0, ErrorCode::QueueFull);
    // Empty grids are rejected before admission.
    let empty = SweepGrid {
        rates: vec![],
        ..tiny_grid()
    };
    let err = scheduler.submit("carl", 3, empty, &tx).unwrap_err();
    assert_eq!(err.0, ErrorCode::InvalidGrid);

    // Drain both jobs; the reservations free and carl fits again.
    let mut done = 0;
    while done < 2 {
        match rx
            .recv_timeout(Duration::from_secs(60))
            .expect("job events")
        {
            Event::Done { job, report } => {
                assert!(job == 1 || job == 2);
                assert_eq!(report.aggregate.num_scenarios, 4);
                done += 1;
            }
            Event::Accepted { .. } | Event::Result { .. } => {}
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert_eq!(
        scheduler.stats().outstanding_scenarios,
        0,
        "no leaked slots"
    );
    scheduler
        .submit("carl", 3, tiny_grid(), &tx)
        .expect("freed reservations re-admit");
    scheduler.begin_shutdown();
    scheduler.join();
}

#[test]
fn cancel_frees_reservations_and_is_idempotent() {
    // One worker, kept busy by a slow job, so the victim job is still fully
    // queued when the cancel lands.
    let scheduler = Scheduler::start(
        SchedulerConfig {
            threads: 1,
            ..SchedulerConfig::default()
        },
        Arc::new(ResultCache::in_memory()),
    );
    let (tx, rx) = std::sync::mpsc::channel();
    let blocker = scheduler
        .submit("ada", 1, slow_grid(), &tx)
        .expect("blocker admitted");
    // Wait until the worker has actually picked the blocker up, so both
    // cancel paths below are deterministic.
    let deadline = Instant::now() + Duration::from_secs(30);
    while scheduler.status(blocker).map(|(phase, _, _)| phase) != Some("running".to_string()) {
        assert!(Instant::now() < deadline, "blocker must start running");
        std::thread::yield_now();
    }
    let victim = scheduler
        .submit("carol", 2, tiny_grid(), &tx)
        .expect("victim admitted");
    assert!(scheduler.status(victim).is_some());
    // The victim has nothing dispatched (the lone worker is busy with the
    // blocker), so the first cancel finalizes it on the spot; after that it
    // is unknown — terminal jobs don't linger.
    assert!(scheduler.cancel(victim), "active job cancels");
    assert!(!scheduler.cancel(victim), "finalized job is gone");
    // The blocker HAS a dispatched scenario, so its cancel stays pending
    // until that scenario lands — and a repeated cancel is idempotent.
    assert!(scheduler.cancel(blocker), "in-flight job cancels");
    assert!(
        scheduler.cancel(blocker),
        "cancel is idempotent while pending"
    );
    let mut canceled = 0;
    while canceled < 2 {
        match rx
            .recv_timeout(Duration::from_secs(60))
            .expect("job events")
        {
            Event::Canceled { completed, .. } => {
                assert!(completed <= 4);
                canceled += 1;
            }
            Event::Accepted { .. } | Event::Result { .. } => {}
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert_eq!(
        scheduler.stats().outstanding_scenarios,
        0,
        "no leaked slots"
    );
    assert!(!scheduler.cancel(victim), "finished jobs are unknown");
    assert!(scheduler.status(victim).is_none());
    scheduler.begin_shutdown();
    scheduler.join();
}

// ---------------------------------------------------------------------------
// Daemon protocol end-to-end (TCP on 127.0.0.1)
// ---------------------------------------------------------------------------

fn local_daemon(config: ServeConfig) -> Daemon {
    Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("daemon starts")
}

fn shut_down(daemon: Daemon) {
    daemon.shutdown();
    daemon.wait();
}

/// Append one job's event lines (up to and including `done`) to `stream`.
fn read_job_stream(stream: &mut String, mut next_line: impl FnMut() -> String) {
    loop {
        let line = next_line();
        let done = line.starts_with("{\"event\":\"done\"");
        stream.push_str(&line);
        stream.push('\n');
        if done {
            return;
        }
    }
}

/// Poll `stats` until a vanished client's jobs and reservations are gone.
fn await_freed_reservations(conn: &mut ServeClient) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match conn.request(&Request::Stats).unwrap() {
            Event::Stats { scheduler, .. } => {
                if scheduler.outstanding_scenarios == 0 && scheduler.active_jobs == 0 {
                    return;
                }
            }
            other => panic!("expected stats, got {other:?}"),
        }
        assert!(
            Instant::now() < deadline,
            "a closed connection must free its reservations"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn daemon_serves_ping_stats_and_structured_errors() {
    let daemon = local_daemon(ServeConfig::default());
    let addr = daemon.addr().to_string();
    let mut conn = ServeClient::connect(&addr).unwrap();
    assert_eq!(conn.request(&Request::Ping).unwrap(), Event::Pong);

    // Malformed requests produce structured errors, and the connection
    // stays usable afterwards (graceful-errors satellite).
    for bad in [
        "this is not json",
        "{}",
        "{\"cmd\":\"submit\"}",
        "{\"cmd\":\"submit\",\"grid\":{\"rates\":\"all\"}}",
        "[1,2]",
    ] {
        conn.send_raw(bad).unwrap();
        match conn.recv().unwrap() {
            Event::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest, "line: {bad}"),
            other => panic!("expected bad_request for `{bad}`, got {other:?}"),
        }
        assert_eq!(
            conn.request(&Request::Ping).unwrap(),
            Event::Pong,
            "connection must stay usable after `{bad}`"
        );
    }

    // Status/cancel of unknown jobs: structured unknown_job, no panic.
    match conn.request(&Request::Status { job: 42 }).unwrap() {
        Event::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("expected unknown_job, got {other:?}"),
    }
    match conn.request(&Request::Cancel { job: 7 }).unwrap() {
        Event::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("expected unknown_job, got {other:?}"),
    }

    // Stats replies parse and start at zero sim runs.
    match conn.request(&Request::Stats).unwrap() {
        Event::Stats { cache, scheduler } => {
            assert_eq!(cache.computed, 0);
            assert_eq!(scheduler.sim_runs, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    drop(conn);
    shut_down(daemon);
}

#[test]
fn submitted_report_matches_local_run_bytes() {
    let daemon = local_daemon(ServeConfig::default());
    let addr = daemon.addr().to_string();
    let grid = tiny_grid();
    let mut conn = ServeClient::connect(&addr).unwrap();
    let remote = conn.run_grid("test", &grid).expect("daemon runs the grid");
    let local = grid.run(1).expect("local run");
    assert_eq!(
        serde_json::to_string_pretty(&remote).unwrap(),
        serde_json::to_string_pretty(&local).unwrap(),
        "daemon-side execution must be byte-identical to a local run"
    );
    drop(conn);
    shut_down(daemon);
}

#[test]
fn concurrent_duplicate_submissions_share_one_simulation() {
    let daemon = local_daemon(ServeConfig::default());
    let addr = daemon.addr().to_string();
    let grid = tiny_grid();
    let n_clients = 3;
    let barrier = Barrier::new(n_clients);
    let streams: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|i| {
                let (addr, grid, barrier) = (&addr, &grid, &barrier);
                scope.spawn(move || {
                    let mut conn = ServeClient::connect(addr).unwrap();
                    barrier.wait();
                    conn.send(&Request::Submit {
                        client: format!("client-{i}"),
                        grid: Box::new(grid.clone()),
                    })
                    .unwrap();
                    let mut stream = String::new();
                    read_job_stream(&mut stream, || conn.recv_line().unwrap());
                    stream
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Byte-identical response streams: connection-scoped job ids and
    // in-order emission make each stream a pure function of the grid.
    assert_eq!(
        streams[0].lines().count(),
        grid.len() + 2,
        "accepted + results + done"
    );
    for stream in &streams[1..] {
        assert_eq!(
            stream, &streams[0],
            "every client must receive byte-identical lines"
        );
    }
    // Single-flight across clients: one simulation per unique scenario.
    let mut conn = ServeClient::connect(&addr).unwrap();
    match conn.request(&Request::Stats).unwrap() {
        Event::Stats { scheduler, .. } => {
            assert_eq!(
                scheduler.sim_runs,
                grid.len() as u64,
                "duplicate submissions must not re-simulate"
            );
        }
        other => panic!("expected stats, got {other:?}"),
    }
    drop(conn);
    shut_down(daemon);
}

#[test]
fn disconnect_mid_stream_frees_reservations() {
    let daemon = local_daemon(ServeConfig {
        scheduler: SchedulerConfig {
            threads: 1,
            ..SchedulerConfig::default()
        },
        ..ServeConfig::default()
    });
    let addr = daemon.addr().to_string();
    {
        let mut conn = ServeClient::connect(&addr).unwrap();
        conn.send(&Request::Submit {
            client: "ghost".to_string(),
            grid: Box::new(slow_grid()),
        })
        .unwrap();
        // Read the acceptance, then vanish mid-job.
        match conn.recv().unwrap() {
            Event::Accepted { scenarios, .. } => assert_eq!(scenarios, 1),
            other => panic!("expected accepted, got {other:?}"),
        }
    } // dropped: TCP close; the daemon cancels and frees the reservations
    let mut conn = ServeClient::connect(&addr).unwrap();
    await_freed_reservations(&mut conn);
    // The daemon is still fully functional for the next client.
    let report = conn.run_grid("next", &tiny_grid()).expect("daemon alive");
    assert_eq!(report.aggregate.num_scenarios, 4);
    drop(conn);
    shut_down(daemon);
}

#[test]
fn oversized_request_line_is_refused_and_the_connection_closed() {
    let daemon = local_daemon(ServeConfig {
        scheduler: SchedulerConfig {
            threads: 1,
            ..SchedulerConfig::default()
        },
        ..ServeConfig::default()
    });
    let addr = daemon.addr().to_string();
    let mut conn = ServeClient::connect(&addr).unwrap();
    // Hold a reservation, so the close is seen to free it.
    conn.send(&Request::Submit {
        client: "flood".to_string(),
        grid: Box::new(slow_grid()),
    })
    .unwrap();
    assert!(matches!(conn.recv().unwrap(), Event::Accepted { .. }));
    // 2 MiB without a newline: the daemon stops reading at its 1 MiB cap
    // and closes, so the tail of the write may fail — that is the point.
    let _ = conn.send_raw(&"x".repeat(2 << 20));
    let mut refused = false;
    loop {
        match conn.recv() {
            Ok(Event::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::BadRequest);
                refused = true;
            }
            Ok(_) => {}      // the held job's own events
            Err(_) => break, // EOF (or a reset): the daemon closed
        }
    }
    assert!(refused, "the over-long line must get a bad_request event");

    // A fresh connection is served, and the flood's reservation is gone.
    let mut conn = ServeClient::connect(&addr).unwrap();
    assert_eq!(conn.request(&Request::Ping).unwrap(), Event::Pong);
    await_freed_reservations(&mut conn);
    drop(conn);
    shut_down(daemon);
}

#[test]
fn deeply_nested_request_line_is_one_bad_request() {
    let daemon = local_daemon(ServeConfig::default());
    let mut conn = ServeClient::connect(&daemon.addr().to_string()).unwrap();
    // 64 KiB of `[`: far under the line cap, far over the parser's nesting
    // cap. Unbounded recursion would overflow the connection thread's stack
    // and abort the whole daemon.
    conn.send_raw(&"[".repeat(64 << 10)).unwrap();
    match conn.recv().unwrap() {
        Event::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    assert_eq!(conn.request(&Request::Ping).unwrap(), Event::Pong);
    drop(conn);
    shut_down(daemon);
}

#[test]
fn shutdown_command_stops_the_daemon_cleanly() {
    let daemon = local_daemon(ServeConfig::default());
    let addr = daemon.addr().to_string();
    let mut conn = ServeClient::connect(&addr).unwrap();
    assert_eq!(
        conn.request(&Request::Shutdown).unwrap(),
        Event::ShuttingDown
    );
    // New submits are refused during the drain (or the daemon has already
    // closed the connection — both are clean outcomes).
    match conn.request(&Request::Submit {
        client: "late".to_string(),
        grid: Box::new(tiny_grid()),
    }) {
        Ok(Event::Error { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        Ok(other) => panic!("expected shutting_down, got {other:?}"),
        Err(_) => {} // connection already drained and closed
    }
    drop(conn);
    // wait() must return (accept loop, connections, and workers joined).
    let handle = std::thread::spawn(move || daemon.wait());
    let start = Instant::now();
    while !handle.is_finished() {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "daemon.wait() must complete after shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.join().unwrap();
}

#[test]
fn daemon_with_disk_cache_serves_warm_submissions() {
    let dir = temp_dir("daemon_disk");
    let grid = tiny_grid();
    // First daemon: cold, computes and persists.
    let daemon = local_daemon(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let addr = daemon.addr().to_string();
    let mut conn = ServeClient::connect(&addr).unwrap();
    let first = conn.run_grid("cold", &grid).unwrap();
    drop(conn);
    shut_down(daemon);
    // Second daemon (a fresh process's worth of state): disk-warm.
    let daemon = local_daemon(ServeConfig {
        cache_dir: Some(dir),
        ..ServeConfig::default()
    });
    let addr = daemon.addr().to_string();
    let mut conn = ServeClient::connect(&addr).unwrap();
    let second = conn.run_grid("warm", &grid).unwrap();
    match conn.request(&Request::Stats).unwrap() {
        Event::Stats { cache, scheduler } => {
            assert_eq!(scheduler.sim_runs, 0, "warm daemon must not simulate");
            assert_eq!(cache.disk_hits, grid.len() as u64);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    assert_eq!(
        serde_json::to_string_pretty(&first).unwrap(),
        serde_json::to_string_pretty(&second).unwrap(),
        "cache restarts must preserve byte-identity"
    );
    drop(conn);
    shut_down(daemon);
}

// ---------------------------------------------------------------------------
// The wire path: no kernel timers, same bytes for every peer, hostile lines
// ---------------------------------------------------------------------------

#[test]
fn warm_submits_over_the_socket_never_wait_on_a_kernel_timer() {
    let daemon = local_daemon(ServeConfig::default());
    let mut conn = ServeClient::connect(&daemon.addr().to_string()).unwrap();
    let grid = tiny_grid();
    conn.run_grid("prime", &grid).expect("priming submit");
    let mut ms: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            conn.run_grid("warm", &grid).expect("warm submit");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    // A line split across two writes (or NODELAY lost on either end) waits
    // on the peer's delayed ACK: a 40 ms quantum per submit. The real cost
    // is 1-3 ms, so the bound has >10x headroom on a noisy box and still
    // trips on the first stall that comes back.
    assert!(
        ms[4] < 30.0,
        "median warm submit took {:.1} ms (all nine: {ms:.1?})",
        ms[4]
    );
    drop(conn);
    shut_down(daemon);
}

/// How a peer puts a request line on the wire.
enum Peer {
    /// [`ServeClient`]: `TCP_NODELAY`, one write per line.
    Client,
    /// The pre-NODELAY client: Nagle on, the body and its newline as two
    /// writes.
    TwoWrites,
    /// Nagle on, a few bytes per write, pausing past the daemon's 200 ms
    /// read poll mid-line so the reader times out holding a partial line.
    Dribble,
}

/// Everything a fresh daemon sends `peer` for a cold and then a warm submit
/// of `tiny_grid()` on one connection.
fn cold_then_warm_stream(peer: Peer) -> String {
    let daemon = local_daemon(ServeConfig::default());
    let addr = daemon.addr().to_string();
    let request = Request::Submit {
        client: "peer".to_string(),
        grid: Box::new(tiny_grid()),
    }
    .render();
    let mut stream = String::new();
    if let Peer::Client = peer {
        let mut conn = ServeClient::connect(&addr).unwrap();
        for _ in 0..2 {
            conn.send_raw(&request).unwrap();
            read_job_stream(&mut stream, || conn.recv_line().unwrap());
        }
    } else {
        let mut socket = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(socket.try_clone().unwrap());
        for _ in 0..2 {
            if let Peer::TwoWrites = peer {
                socket.write_all(request.as_bytes()).unwrap();
                socket.write_all(b"\n").unwrap();
            } else {
                let framed = format!("{request}\n");
                let chunks: Vec<&[u8]> = framed.as_bytes().chunks(5).collect();
                for (i, chunk) in chunks.iter().enumerate() {
                    socket.write_all(chunk).unwrap();
                    if i == 0 || i == chunks.len() / 2 {
                        std::thread::sleep(Duration::from_millis(250));
                    }
                }
            }
            read_job_stream(&mut stream, || {
                let mut line = String::new();
                assert_ne!(reader.read_line(&mut line).unwrap(), 0, "daemon closed");
                line.pop(); // the newline `read_job_stream` puts back
                line
            });
        }
    }
    shut_down(daemon);
    stream
}

/// Every request and event variant, as the exact line it puts on the wire;
/// each line also reads back to the value it was written from. The `result`
/// and `done` payloads are a real run's, written by `serde_json`.
#[test]
fn every_wire_line_is_pinned_byte_for_byte() {
    let grid = tiny_grid();
    let report = grid.run(1).unwrap();
    let scenario = report.scenarios[3].clone();
    let grid_json = serde_json::to_string(&grid).unwrap();
    let scenario_json = serde_json::to_string(&scenario).unwrap();
    let report_json = serde_json::to_string(&report).unwrap();

    let requests = [
        (
            Request::Submit {
                client: "ci \"q\" \\ é\n".to_string(),
                grid: Box::new(grid),
            },
            format!(r#"{{"cmd":"submit","client":"ci \"q\" \\ é\n","grid":{grid_json}}}"#),
        ),
        (
            Request::Status { job: 7 },
            r#"{"cmd":"status","job":7}"#.into(),
        ),
        (
            Request::Cancel { job: 12 },
            r#"{"cmd":"cancel","job":12}"#.into(),
        ),
        (Request::Stats, r#"{"cmd":"stats"}"#.into()),
        (Request::Ping, r#"{"cmd":"ping"}"#.into()),
        (Request::Shutdown, r#"{"cmd":"shutdown"}"#.into()),
    ];
    for (request, line) in requests {
        assert_eq!(request.render(), line);
        assert_eq!(Request::parse(&line).unwrap().render(), line);
    }

    let events = [
        (
            Event::Accepted {
                job: 1,
                scenarios: 4,
            },
            r#"{"event":"accepted","job":1,"scenarios":4}"#.to_string(),
        ),
        (
            Event::Result {
                job: 1,
                index: 3,
                result: Box::new(scenario),
            },
            format!(r#"{{"event":"result","job":1,"index":3,"result":{scenario_json}}}"#),
        ),
        (
            Event::Done {
                job: 1,
                report: Box::new(report),
            },
            format!(r#"{{"event":"done","job":1,"report":{report_json}}}"#),
        ),
        (
            Event::Canceled {
                job: 2,
                completed: 3,
            },
            r#"{"event":"canceled","job":2,"completed":3}"#.into(),
        ),
        (
            Event::Failed {
                job: 3,
                message: "sim \"x\"\tfailed \\ at\ncycle 9 \u{1}".into(),
            },
            r#"{"event":"failed","job":3,"message":"sim \"x\"\tfailed \\ at\ncycle 9 \u0001"}"#
                .into(),
        ),
        (
            Event::Status {
                job: 1,
                state: "running".into(),
                completed: 2,
                total: 4,
            },
            r#"{"event":"status","job":1,"state":"running","completed":2,"total":4}"#.into(),
        ),
        (
            Event::Stats {
                cache: CacheStats {
                    memory_hits: 5,
                    disk_hits: 1,
                    coalesced: 2,
                    computed: 3,
                    write_errors: 0,
                    read_errors: 7,
                },
                scheduler: SchedulerStats {
                    outstanding_scenarios: 4,
                    active_jobs: 1,
                    finished_jobs: 9,
                    sim_runs: 3,
                },
            },
            concat!(
                r#"{"event":"stats","cache":{"memory_hits":5,"disk_hits":1,"coalesced":2,"#,
                r#""computed":3,"write_errors":0,"read_errors":7},"scheduler":"#,
                r#"{"outstanding_scenarios":4,"active_jobs":1,"finished_jobs":9,"sim_runs":3}}"#
            )
            .into(),
        ),
        (Event::Pong, r#"{"event":"pong"}"#.into()),
        (Event::ShuttingDown, r#"{"event":"shutting_down"}"#.into()),
        (
            Event::Error {
                code: ErrorCode::UnknownJob,
                message: "job 9 is \"unknown\"".into(),
            },
            r#"{"event":"error","code":"unknown_job","message":"job 9 is \"unknown\""}"#.into(),
        ),
    ];
    for (event, line) in events {
        assert_eq!(event.render(), line);
        assert_eq!(Event::parse(&line).unwrap().render(), line);
    }
}

#[test]
fn legacy_peers_receive_the_same_bytes_as_the_client() {
    // Cold results trickle (a frame each), warm ones leave coalesced, and
    // the three peers pace the daemon differently: frame coalescing may
    // move write boundaries, never a byte or the order of two lines.
    let reference = cold_then_warm_stream(Peer::Client);
    assert_eq!(
        reference.lines().count(),
        2 * (tiny_grid().len() + 2),
        "accepted + results + done, cold then warm"
    );
    assert_eq!(
        cold_then_warm_stream(Peer::TwoWrites),
        reference,
        "a Nagle peer that splits body and newline sees the same stream"
    );
    assert_eq!(
        cold_then_warm_stream(Peer::Dribble),
        reference,
        "a peer that dribbles its request sees the same stream"
    );
}

#[test]
fn mutated_protocol_lines_never_panic_a_parser_or_wedge_a_connection() {
    let daemon = local_daemon(ServeConfig::default());
    let mut conn = ServeClient::connect(&daemon.addr().to_string()).unwrap();

    // One real exchange: every request shape but `shutdown`, and every
    // event line the daemon answered with.
    let mut requests = Vec::new();
    let mut events = Vec::new();
    for request in [
        Request::Ping,
        Request::Submit {
            client: "fuzz".to_string(),
            grid: Box::new(tiny_grid()),
        },
        Request::Status { job: 1 },
        Request::Stats,
        Request::Cancel { job: 1 },
    ] {
        conn.send(&request).unwrap();
        loop {
            let line = conn.recv_line().unwrap();
            let streaming = line.starts_with("{\"event\":\"accepted\"")
                || line.starts_with("{\"event\":\"result\"");
            events.push(line);
            if !streaming {
                break;
            }
        }
        requests.push(request.render());
    }
    assert_eq!(events.len(), 4 + tiny_grid().len() + 2);
    let corpus: Vec<String> = requests.iter().chain(&events).cloned().collect();

    let mut rng = StdRng::seed_from_u64(0x5e7e);
    let mut over_the_wire = 0;
    for case in 0..4000 {
        let pick = rng.gen_range(0..corpus.len());
        let mut bytes = corpus[pick].clone().into_bytes();
        for _ in 0..rng.gen_range(1..=3) {
            mutate(&mut rng, &mut bytes, &corpus);
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let parsed = std::panic::catch_unwind(|| {
            let _ = Event::parse(&line);
            Request::parse(line.trim()).is_ok()
        });
        let Ok(is_request) = parsed else {
            panic!("case {case}: a parser panicked on {line:?}");
        };
        // Mutated *requests* also go through the live connection. A line
        // that still parses would run (a rate digit flipped is a valid
        // grid), a blank one is skipped by the daemon, and an embedded
        // newline makes it two lines — the rest must each draw exactly one
        // structured error and leave the connection serving.
        if pick >= requests.len() || is_request || line.trim().is_empty() || line.contains('\n') {
            continue;
        }
        conn.send_raw(&line).unwrap();
        match conn.recv().unwrap() {
            Event::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest, "{line:?}"),
            other => panic!("case {case}: expected bad_request for {line:?}, got {other:?}"),
        }
        assert_eq!(
            conn.request(&Request::Ping).unwrap(),
            Event::Pong,
            "case {case}: connection must stay usable after {line:?}"
        );
        over_the_wire += 1;
    }
    assert!(
        over_the_wire > 500,
        "only {over_the_wire} mutants reached the daemon"
    );
    drop(conn);
    shut_down(daemon);
}

// ---------------------------------------------------------------------------
// Property: cache determinism across thread counts and reruns
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary small grids, the cached engine is byte-identical to
    /// the cache-free one at every thread count, and a warm rerun (memory
    /// tier, arbitrary other thread count) reproduces the same bytes
    /// without a single extra simulation.
    #[test]
    fn cached_reports_are_byte_identical_across_thread_counts(
        pattern_idx in 0usize..4,
        rate in 0.01f64..0.12,
        seed in 0u64..1_000,
        measure in 30u64..80,
        cold_threads in 1usize..5,
        warm_threads in 1usize..5,
    ) {
        let pattern = [
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::Tornado,
            TrafficPattern::BitComplement,
        ][pattern_idx].clone();
        let grid = SweepGrid {
            sizes: vec![(4, 4)],
            patterns: vec![pattern],
            rates: vec![rate, rate + 0.01],
            routings: vec![RoutingAlgorithm::Xy],
            warmup: 10,
            measure,
            drain: 40,
            base_seed: seed,
            ..SweepGrid::default()
        };
        let reference = serde_json::to_string_pretty(
            &grid.run(1).expect("serial run"),
        ).unwrap();
        let cache = ResultCache::in_memory();
        let cold = grid.run_cached(cold_threads, &cache).expect("cold cached run");
        prop_assert_eq!(
            &serde_json::to_string_pretty(&cold).unwrap(),
            &reference,
            "cold cached run must match the serial engine"
        );
        prop_assert_eq!(cache.stats().computed, grid.len() as u64);
        let warm = grid.run_cached(warm_threads, &cache).expect("warm cached run");
        prop_assert_eq!(
            &serde_json::to_string_pretty(&warm).unwrap(),
            &reference,
            "warm rerun must match at any thread count"
        );
        prop_assert_eq!(cache.stats().computed, grid.len() as u64, "no recompute");
        prop_assert_eq!(cache.stats().memory_hits, grid.len() as u64);
    }
}
