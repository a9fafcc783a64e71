//! Seeded mutations of a real `.bench` text never panic the front end.
//!
//! The s838 stand-in, written out by `write_bench`, is mutated with byte
//! flips, deletions, token and line insertions and truncations. Every
//! mutant goes through `parse_bench`, then `normalize`, then
//! `canonicalize`: each must answer `Ok` or `Err`. A panic fails the
//! test and names the mutant, whose index is its seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nanoleak_netlist::bench_format::{parse_bench, write_bench};
use nanoleak_netlist::canonicalize;
use nanoleak_netlist::generate::iscas_like;
use nanoleak_netlist::normalize::normalize;
use nanoleak_netlist::SigId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutants per run: about 3% of them parse, and the test stays within
/// a few seconds in a debug build.
const MUTANTS: u64 = 1000;

/// What a token insertion draws from: the grammar's punctuation and
/// keywords, and characters it never expects (multi-byte, NUL, BOM).
const TOKENS: [&str; 20] = [
    "(", ")", ",", "=", "#", " ", "\n", "INPUT", "OUTPUT", "DFF", "NAND", "NOR", "AND", "OR",
    "NOT", "BUFF", "XOR", "é", "\u{0}", "\u{feff}",
];

const OPS: [&str; 9] = ["NAND", "NOR", "AND", "OR", "NOT", "BUFF", "XOR", "DFF", "XNOR"];

/// The text the mutants start from and its lines and signal names.
struct Seed {
    text: String,
    lines: Vec<String>,
    names: Vec<String>,
}

impl Seed {
    fn s838() -> Self {
        let raw = iscas_like("s838").unwrap();
        let text = write_bench(&raw);
        let lines = text.lines().map(str::to_string).collect();
        let names =
            (0..raw.signal_count()).map(|i| raw.signal_name(SigId(i)).to_string()).collect();
        Self { text, lines, names }
    }

    fn name(&self, rng: &mut StdRng) -> &str {
        &self.names[rng.gen_range(0..self.names.len())]
    }

    /// A line to insert: one of the text's own, or a gate over its
    /// signal names (which may redefine a signal or close a loop).
    fn line(&self, rng: &mut StdRng) -> String {
        if rng.gen::<bool>() {
            return self.lines[rng.gen_range(0..self.lines.len())].clone();
        }
        let out = if rng.gen::<bool>() { self.name(rng).to_string() } else { "M".to_string() };
        let args: Vec<&str> = (0..rng.gen_range(0usize..4)).map(|_| self.name(rng)).collect();
        format!("{out} = {}({})", OPS[rng.gen_range(0..OPS.len())], args.join(", "))
    }

    /// Mutant `seed`: one to three edits of the text.
    fn mutant(&self, seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = self.text.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1usize..=3) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0u32..5) {
                0 => {
                    if let Some(b) = bytes.get_mut(at) {
                        *b ^= 1u8 << rng.gen_range(0u32..8);
                    }
                }
                1 => {
                    let end = (at + rng.gen_range(1usize..16)).min(bytes.len());
                    bytes.drain(at..end);
                }
                2 => {
                    let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                    bytes.splice(at..at, token.bytes());
                }
                3 => {
                    let start = bytes[..at].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    let line = self.line(&mut rng) + "\n";
                    bytes.splice(start..start, line.into_bytes());
                }
                _ => bytes.truncate(at),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[test]
fn mutated_bench_text_is_accepted_or_rejected_never_a_panic() {
    let seed = Seed::s838();
    // Mutants that the parser (which validates) rejected, that
    // normalize rejected, and that got through canonicalize.
    let mut reached = [0usize; 3];
    let mut panics = Vec::new();
    for i in 0..MUTANTS {
        let text = seed.mutant(i);
        let run = catch_unwind(AssertUnwindSafe(|| {
            let Ok(raw) = parse_bench("mutant", &text) else { return 0 };
            let Ok(circuit) = normalize(&raw) else { return 1 };
            canonicalize(&circuit);
            2
        }));
        match run {
            Ok(stage) => reached[stage] += 1,
            Err(_) => panics.push(i),
        }
    }
    assert!(panics.is_empty(), "mutants {panics:?} of {MUTANTS} panicked");
    // Some mutants get past the parser, so normalize and canonicalize
    // see altered circuits too.
    assert!(reached[2] > 0, "stages reached: {reached:?}");
}
