//! Helpers shared by the integration tests that mutate wire lines and
//! artifacts.

use rand::rngs::StdRng;
use rand::Rng;

/// One seeded byte-level mutation of `line`: flip a bit, delete or
/// duplicate a byte, truncate, or splice in the tail of a `corpus` line.
pub fn mutate(rng: &mut StdRng, line: &mut Vec<u8>, corpus: &[String]) {
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
