//! Helpers shared by the integration tests that mutate wire lines and
//! artifacts: the seeded mutants, and one real exchange with a daemon to
//! mutate.

use noc_selfconf::serve::{Request, ServeClient};
use noc_selfconf::SweepGrid;
use noc_sim::{RoutingAlgorithm, TrafficPattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small, fast grid (4 scenarios at 4x4, 110 cycles each).
pub fn tiny_grid() -> SweepGrid {
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

/// One real exchange on `conn`, a fresh daemon's first connection: every
/// request shape but `shutdown` (a submit of `tiny_grid()` among them), as
/// rendered lines, and every event line the daemon answered with.
pub fn serve_exchange(conn: &mut ServeClient) -> (Vec<String>, Vec<String>) {
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
    (requests, events)
}

/// `cases` seeded mutants of `corpus` lines: each picks a line, applies
/// one to three [`mutate`]s and reads the bytes back as (lossy) UTF-8.
/// Yields the picked line's index with the mutant.
pub fn mutants(
    seed: u64,
    cases: usize,
    corpus: &[String],
) -> impl Iterator<Item = (usize, String)> + '_ {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cases).map(move |_| {
        let pick = rng.gen_range(0..corpus.len());
        let mut bytes = corpus[pick].clone().into_bytes();
        for _ in 0..rng.gen_range(1..=3) {
            mutate(&mut rng, &mut bytes, corpus);
        }
        (pick, String::from_utf8_lossy(&bytes).into_owned())
    })
}

/// One seeded byte-level mutation of `line`: flip a bit, delete or
/// duplicate a byte, truncate, or splice in the tail of a `corpus` line.
fn mutate(rng: &mut StdRng, line: &mut Vec<u8>, corpus: &[String]) {
    if line.is_empty() {
        return;
    }
    let at = rng.gen_range(0..line.len());
    match rng.gen_range(0..5) {
        0 => line[at] ^= 1u8 << rng.gen_range(0..8u32),
        1 => {
            line.remove(at);
        }
        2 => line.insert(at, line[at]),
        3 => line.truncate(at),
        _ => {
            let other = corpus[rng.gen_range(0..corpus.len())].as_bytes();
            line.truncate(at);
            line.extend_from_slice(&other[rng.gen_range(0..other.len())..]);
        }
    }
}
