//! Full-pipeline robustness: `check_source` is total (never panics) over
//! mutated near-miss programs and over declaration soup.
//!
//! Every property runs over a fixed set of seeds of the workspace `rand`
//! generator, so a failure names the seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vault_core::check_source;

#[test]
fn check_source_total_over_mutations() {
    const BASES: &[&str] = &[
        "type FILE;\ntracked(F) FILE fopen(string p) [new F];\nvoid fclose(tracked(F) FILE f) [-F];\nvoid f() { tracked(F) FILE x = fopen(\"a\"); fclose(x); }",
        "variant v<key K> [ 'A | 'B {K} ];\nstruct s { int x; }\nvoid g(tracked(X) s p) [-X] { free(p); }",
        "stateset S = [ a < b ];\nkey G @ S;\nvoid h() [G@a] { }",
        "interface R { type region; tracked(K) region create() [new K]; void delete(tracked(K) region) [-K]; }\nvoid m() { tracked(K) region r = R.create(); R.delete(r); }",
    ];
    const INSERT: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789{}();@<>[] '";
    for seed in 0..192 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let base = BASES[rng.gen_range(0..BASES.len())];
        let mut cut = rng.gen_range(0..400usize).min(base.len());
        while !base.is_char_boundary(cut) {
            cut -= 1;
        }
        let insert: String = (0..rng.gen_range(0..=16usize))
            .map(|_| INSERT[rng.gen_range(0..INSERT.len())] as char)
            .collect();
        let mutated = format!("{}{insert}{}", &base[..cut], &base[cut..]);
        // Must not panic; the verdict is whatever it is.
        let _ = check_source("fuzz", &mutated);
    }
}

#[test]
fn check_source_total_over_declaration_soup() {
    const DECLS: &[&str] = &[
        "type t;",
        "type t2 = int;",
        "struct s { int x; }",
        "variant v [ 'A | 'B(int) ];",
        "variant w<key K> [ 'C {K} ];",
        "stateset SS = [ p < q ];",
        "key GG @ SS;",
        "void f(int x) { x = x + 1; }",
        "int g() { return 1; }",
        "void h(tracked(A) t y) [-A] { free(y); }",
        "void broken( { }",
        "int clash;",
    ];
    for seed in 0..192 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let decls: Vec<&str> = (0..rng.gen_range(0..12usize))
            .map(|_| DECLS[rng.gen_range(0..DECLS.len())])
            .collect();
        let _ = check_source("soup", &decls.join("\n"));
    }
}
