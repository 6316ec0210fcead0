//! Seeded differential fuzz smoke: random mutants of corpus programs,
//! executed on both engines. A mutant may stop parsing (skipped — there
//! is nothing to run), it may be rejected by the checker (irrelevant
//! here: *both* engines run unchecked programs), and it may fault in new
//! ways — but whatever it does, the interpreter and the VM must do it
//! identically. Any outcome divergence fails the suite.
//!
//! Deterministically seeded: failures reproduce by seed.

use rand::{Rng, SeedableRng};
use vault_eval::ExternTable;
use vault_vm::harness::{diff_source, Skip};

const MUTANTS: usize = 240;
const FUEL: u64 = 5_000;

/// Apply one random, token-shaped mutation to the source.
fn mutate(src: &str, rng: &mut rand::rngs::StdRng) -> String {
    let bytes = src.as_bytes();
    match rng.gen_range(0..4usize) {
        // Twiddle a digit.
        0 => {
            let digits: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if digits.is_empty() {
                return src.to_string();
            }
            let at = digits[rng.gen_range(0..digits.len())];
            let mut out = src.to_string();
            let new = char::from(b'0' + rng.gen_range(0..10u8));
            out.replace_range(at..at + 1, &new.to_string());
            out
        }
        // Swap an operator.
        1 => {
            let swaps = [
                ("+", "-"),
                ("<", ">"),
                ("==", "!="),
                ("&&", "||"),
                ("++", "--"),
            ];
            let (from, to) = swaps[rng.gen_range(0..swaps.len())];
            let sites: Vec<usize> = src.match_indices(from).map(|(i, _)| i).collect();
            if sites.is_empty() {
                return src.to_string();
            }
            let at = sites[rng.gen_range(0..sites.len())];
            let mut out = src.to_string();
            out.replace_range(at..at + from.len(), to);
            out
        }
        // Replace one identifier occurrence with another identifier
        // drawn from the same program (renames, misbindings, unknown
        // variables, arity mismatches — the deferred-trap paths).
        2 => {
            let words: Vec<(usize, &str)> = ident_occurrences(src);
            if words.len() < 2 {
                return src.to_string();
            }
            let (at, word) = words[rng.gen_range(0..words.len())];
            let (_, donor) = words[rng.gen_range(0..words.len())];
            let mut out = src.to_string();
            out.replace_range(at..at + word.len(), donor);
            out
        }
        // Raw byte flip (usually a parse rejection — the skip path).
        _ => {
            if bytes.is_empty() {
                return src.to_string();
            }
            let at = rng.gen_range(0..bytes.len());
            let mut out = bytes.to_vec();
            out[at] = out[at].wrapping_add(rng.gen_range(1..255u8));
            String::from_utf8_lossy(&out).into_owned()
        }
    }
}

fn ident_occurrences(src: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((start, &src[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

#[test]
fn random_mutants_never_diverge_across_engines() {
    let programs = vault_corpus::all_programs();
    let mut compared = 0usize;
    let mut parsed = 0usize;
    let mut skipped_parse = 0usize;
    for seed in 0..MUTANTS as u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let base = &programs[rng.gen_range(0..programs.len())];
        let mut src = base.source.clone();
        // One to three stacked mutations.
        for _ in 0..rng.gen_range(1..4usize) {
            src = mutate(&src, &mut rng);
        }
        match diff_source(&src, FUEL, &ExternTable::with_regions) {
            Err(Skip::Parse) => skipped_parse += 1,
            Err(Skip::RegisterOverflow(fns)) => {
                panic!(
                    "mutant of {} (seed {seed}) overflowed registers: {fns:?}",
                    base.id
                )
            }
            Ok((n, divergences)) => {
                parsed += 1;
                compared += n;
                assert!(
                    divergences.is_empty(),
                    "mutant of {} (seed {seed}) diverged:\n{divergences:#?}\nsource:\n{src}",
                    base.id
                );
            }
        }
    }
    // The mutator must actually be exercising both paths: plenty of
    // runnable mutants, and some parse rejections from the byte flips.
    assert!(parsed >= 100, "only {parsed}/{MUTANTS} mutants parsed");
    assert!(skipped_parse >= 10, "byte flips never broke the parse?");
    assert!(compared >= 200, "only {compared} entry comparisons ran");
}
