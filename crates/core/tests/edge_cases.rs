//! Edge-case and robustness tests for the checker: corner syntax, error
//! recovery, misuse of declarations, and less-travelled semantic paths.

use vault_core::{check_source, Verdict};
use vault_syntax::Code;

fn accepts(src: &str) {
    let r = check_source("<edge>", src);
    assert_eq!(
        r.verdict(),
        Verdict::Accepted,
        "expected acceptance:\n{}",
        r.render_diagnostics()
    );
}

fn rejects_with(src: &str, code: Code) {
    let r = check_source("<edge>", src);
    assert_eq!(
        r.verdict(),
        Verdict::Rejected,
        "expected rejection with {code}"
    );
    assert!(
        r.has_code(code),
        "expected {code}, got {:?}:\n{}",
        r.error_codes(),
        r.render_diagnostics()
    );
}

// ---------------------------------------------------------------------
// Scoping, shadowing, initialization
// ---------------------------------------------------------------------

#[test]
fn inner_scopes_shadow_outer() {
    accepts(
        "int f(int x) {
           { int y = x + 1; x = y; }
           { bool y = true; if (y) { x = 0; } }
           return x;
         }",
    );
}

#[test]
fn redeclaration_in_same_scope_rejected() {
    rejects_with("void f() { int x = 1; int x = 2; }", Code::DuplicateDecl);
}

#[test]
fn type_parameter_declared_twice_rejected_at_the_second_name() {
    let src = "variant v<key K, key K> [ 'A | 'B ];
         struct s<key K, type K> { int x; }
         type a<type X, type X> = int;
         type h<state S, key S>;
         void f<type T, type T>(T x) {}";
    let r = check_source("<edge>", src);
    assert_eq!(r.verdict(), Verdict::Rejected);
    let mut dups = Vec::new();
    for d in r
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::DuplicateDecl)
    {
        let (start, end) = (d.span.start as usize, d.span.end as usize);
        let name = &src[start..end];
        // The report points at the second declaration of the name.
        let line = src[..start].rfind('\n').map_or(0, |i| i + 1);
        let first = line + src[line..].find(&format!(" {name}")).unwrap() + 1;
        assert!(
            first < start,
            "{} reported at its first declaration",
            d.message
        );
        dups.push((name, d.message.as_str()));
    }
    assert_eq!(
        dups,
        [
            ("K", "type parameter `K` is declared twice"),
            ("K", "type parameter `K` is declared twice"),
            ("S", "type parameter `S` is declared twice"),
            ("X", "type parameter `X` is declared twice"),
            ("T", "type parameter `T` is declared twice"),
        ],
        "{}",
        r.render_diagnostics()
    );
}

#[test]
fn branch_local_variables_drop_at_join() {
    accepts(
        "int f(bool b) {
           int r = 0;
           if (b) { int t = 1; r = t; } else { int t = 2; r = t; }
           return r;
         }",
    );
}

#[test]
fn conditionally_initialized_var_rejected_at_use() {
    rejects_with(
        "int f(bool b) {
           int x;
           if (b) { x = 1; }
           return x;
         }",
        Code::Uninitialized,
    );
}

#[test]
fn initialized_on_both_branches_is_fine() {
    accepts(
        "int f(bool b) {
           int x;
           if (b) { x = 1; } else { x = 2; }
           return x;
         }",
    );
}

// ---------------------------------------------------------------------
// Variants: nesting, inference, plain data
// ---------------------------------------------------------------------

#[test]
fn unkeyed_variant_switch_may_be_partial() {
    accepts(
        "variant color [ 'Red | 'Green | 'Blue ];
         int f(color c) {
           int r = 0;
           switch (c) {
             case 'Red:
               r = 1;
           }
           return r;
         }",
    );
}

#[test]
fn nested_switches_over_plain_variants() {
    accepts(
        "variant opt [ 'None | 'Some(int) ];
         int f(opt a, opt b) {
           switch (a) {
             case 'None:
               return 0;
             case 'Some(x):
               switch (b) {
                 case 'None:
                   return x;
                 case 'Some(y):
                   return x + y;
               }
           }
           return -1;
         }",
    );
}

#[test]
fn ctor_key_inference_needs_context() {
    // A capturing constructor with no expected type and no explicit key
    // cannot determine which key to capture.
    rejects_with(
        "variant opt_key<key K> [ 'NoKey | 'SomeKey {K} ];
         void f() {
           'SomeKey;
         }",
        Code::BadTypeArgs,
    );
}

#[test]
fn wrong_ctor_for_variant_rejected() {
    rejects_with(
        "variant a [ 'X | 'Y ];
         variant b [ 'Z ];
         int f(a v) {
           switch (v) {
             case 'Z:
               return 0;
           }
           return 1;
         }",
        Code::UnknownName,
    );
}

#[test]
fn ctor_arity_mismatch_rejected() {
    rejects_with(
        "variant opt [ 'None | 'Some(int) ];
         opt f() { return 'Some(1, 2); }",
        Code::TypeMismatch,
    );
}

#[test]
fn binder_count_mismatch_rejected() {
    rejects_with(
        "variant opt [ 'None | 'Some(int) ];
         int f(opt o) {
           switch (o) {
             case 'Some(a, b):
               return a;
             case 'None:
               return 0;
           }
           return 0;
         }",
        Code::TypeMismatch,
    );
}

#[test]
fn keyed_component_cannot_be_wildcarded() {
    rejects_with(
        "type region;
         tracked(R) region create() [new R];
         void delete(tracked(R) region r) [-R];
         variant rlist [ 'Nil | 'Cons(tracked region, tracked rlist) ];
         void f(tracked rlist l) {
           switch (l) {
             case 'Nil:
               return;
             case 'Cons(_, rest):
               free(rest);
           }
         }",
        Code::KeyLeak,
    );
}

// ---------------------------------------------------------------------
// Effects and declarations: malformed and misused
// ---------------------------------------------------------------------

#[test]
fn effect_key_unbound_by_params_rejected() {
    rejects_with("void f(int x) [K];", Code::BadEffect);
}

#[test]
fn return_type_key_unbound_rejected() {
    rejects_with(
        "type FILE;
         tracked(G) FILE f();",
        Code::BadEffect,
    );
}

#[test]
fn duplicate_effect_key_rejected() {
    rejects_with(
        "type FILE;
         void f(tracked(F) FILE x) [F, F];",
        Code::BadEffect,
    );
}

#[test]
fn unknown_stateset_in_global_key_rejected() {
    rejects_with("key THING @ NOSUCHSET;", Code::UnknownName);
}

#[test]
fn stateset_cycle_rejected() {
    rejects_with("stateset BAD = [ a < b, b < a ];", Code::BadStateset);
}

#[test]
fn state_reused_across_statesets_rejected() {
    rejects_with(
        "stateset A = [ x < y ];
         stateset B = [ x < z ];",
        Code::BadStateset,
    );
}

#[test]
fn bad_type_arity_rejected() {
    rejects_with(
        "variant opt_key<key K> [ 'NoKey | 'SomeKey {K} ];
         void f(opt_key x);",
        Code::BadTypeArgs,
    );
}

#[test]
fn global_key_cannot_be_freed() {
    rejects_with(
        "stateset L = [ lo < hi ];
         key G @ L;
         struct wrapper { int v; }
         void f() [G@lo] {
           free(g_handle());
         }
         tracked(G) wrapper g_handle() [G@lo];",
        Code::GlobalKeyMisuse,
    );
}

// ---------------------------------------------------------------------
// Expressions and operators
// ---------------------------------------------------------------------

#[test]
fn arithmetic_type_errors() {
    rejects_with("int f(bool b) { return b + 1; }", Code::TypeMismatch);
    rejects_with("bool f(int x) { return x && true; }", Code::TypeMismatch);
    rejects_with(
        "bool f(string s, int x) { return s == x; }",
        Code::TypeMismatch,
    );
}

#[test]
fn string_and_byte_operations() {
    accepts(
        "byte f(string s, byte[] buf, int i) {
           byte a = s[0];
           byte b = buf[i];
           if (a == b) { return a; }
           return b;
         }",
    );
}

#[test]
fn condition_must_be_bool() {
    rejects_with("void f(int x) { if (x) { x = 1; } }", Code::TypeMismatch);
    rejects_with("void f(int x) { while (x) { x = 0; } }", Code::TypeMismatch);
}

#[test]
fn increment_requires_integer() {
    rejects_with("void f(bool b) { b++; }", Code::TypeMismatch);
}

#[test]
fn indexing_non_array_rejected() {
    rejects_with("int f(int x) { return x[0]; }", Code::TypeMismatch);
}

#[test]
fn field_on_non_struct_rejected() {
    rejects_with("int f(int x) { return x.y; }", Code::TypeMismatch);
    rejects_with(
        "struct p { int x; }
         int f(p v) { return v.nope; }",
        Code::UnknownName,
    );
}

#[test]
fn call_arity_checked() {
    rejects_with(
        "void g(int a, int b);
         void f() { g(1); }",
        Code::TypeMismatch,
    );
}

#[test]
fn methods_do_not_exist() {
    rejects_with(
        "struct p { int x; }
         void f(p v) { v.frob(); }",
        Code::TypeMismatch,
    );
}

// ---------------------------------------------------------------------
// Structs and allocation
// ---------------------------------------------------------------------

#[test]
fn new_requires_all_fields_once() {
    rejects_with(
        "struct p { int x; int y; }
         void f() {
           tracked(K) p v = new tracked p {x=1;};
           free(v);
         }",
        Code::TypeMismatch,
    );
    rejects_with(
        "struct p { int x; }
         void f() {
           tracked(K) p v = new tracked p {x=1; x=2;};
           free(v);
         }",
        Code::DuplicateDecl,
    );
    rejects_with(
        "struct p { int x; }
         void f() {
           tracked(K) p v = new tracked p {x=1; z=2;};
           free(v);
         }",
        Code::UnknownName,
    );
}

#[test]
fn new_field_type_checked() {
    rejects_with(
        "struct p { int x; }
         void f() {
           tracked(K) p v = new tracked p {x=true;};
           free(v);
         }",
        Code::TypeMismatch,
    );
}

#[test]
fn new_from_non_region_rejected() {
    rejects_with(
        "struct p { int x; }
         void f(int notrgn) {
           p v = new(notrgn) p {x=1;};
         }",
        Code::TypeMismatch,
    );
}

#[test]
fn allocating_abstract_type_rejected() {
    rejects_with(
        "type opaque;
         void f() {
           tracked(K) opaque v = new tracked opaque {};
           free(v);
         }",
        Code::TypeMismatch,
    );
}

#[test]
fn generic_struct_fields_instantiate() {
    accepts(
        "struct boxed<type T> { T value; }
         int f(boxed<int> b) { return b.value + 1; }",
    );
    rejects_with(
        "struct boxed<type T> { T value; }
         int f(boxed<bool> b) { return b.value + 1; }",
        Code::TypeMismatch,
    );
}

// ---------------------------------------------------------------------
// Tracked locals and assignment
// ---------------------------------------------------------------------

#[test]
fn named_tracked_local_requires_init() {
    rejects_with(
        "type FILE;
         void f() {
           tracked(F) FILE x;
         }",
        Code::Uninitialized,
    );
}

#[test]
fn assignment_type_checked_against_declaration() {
    rejects_with(
        "void f() {
           int x = 1;
           x = true;
         }",
        Code::TypeMismatch,
    );
}

#[test]
fn guarded_write_requires_guard() {
    rejects_with(
        "struct p { int x; }
         void f() {
           tracked(K) p v = new tracked p {x=1;};
           K:int cache = 0;
           free(v);
           cache = 5;
         }",
        Code::KeyNotHeld,
    );
}

#[test]
fn multiple_guards_all_required() {
    // A value guarded by two keys requires both.
    rejects_with(
        "struct p { int x; }
         void f() {
           tracked(A) p a = new tracked p {x=1;};
           tracked(B) p b = new tracked p {x=2;};
           (A, B):int both = 3;
           free(a);
           int y = both + 1;
           free(b);
         }",
        Code::KeyNotHeld,
    );
    accepts(
        "struct p { int x; }
         void f() {
           tracked(A) p a = new tracked p {x=1;};
           tracked(B) p b = new tracked p {x=2;};
           (A, B):int both = 3;
           int y = both + 1;
           free(a);
           free(b);
         }",
    );
}

// ---------------------------------------------------------------------
// Loops
// ---------------------------------------------------------------------

#[test]
fn loop_that_allocates_and_frees_each_iteration() {
    accepts(
        "struct p { int x; }
         void f(int n) {
           while (n > 0) {
             tracked(K) p v = new tracked p {x=1;};
             v.x++;
             free(v);
             n = n - 1;
           }
         }",
    );
}

#[test]
fn loop_allocating_without_freeing_rejected() {
    rejects_with(
        "struct p { int x; }
         void f(int n) {
           while (n > 0) {
             tracked(K) p v = new tracked p {x=1;};
             n = n - 1;
           }
         }",
        Code::LoopInvariant,
    );
}

#[test]
fn nested_loops_converge() {
    accepts(
        "void f(int n, int m) {
           while (n > 0) {
             int j = m;
             while (j > 0) {
               j = j - 1;
             }
             n = n - 1;
           }
         }",
    );
}

#[test]
fn state_toggle_in_loop_converges() {
    // Acquire/release inside the loop body: the invariant holds at the
    // loop head even though the state changes within an iteration.
    accepts(
        "struct s { int v; }
         type LOCK<key K>;
         LOCK<K> mklock(tracked(K) s d) [-K];
         void acq(LOCK<K> l) [+K];
         void rel(LOCK<K> l) [-K];
         void f(LOCK<K> l, K:s d, int n) {
           while (n > 0) {
             acq(l);
             d.v++;
             rel(l);
             n = n - 1;
           }
         }",
    );
}

// ---------------------------------------------------------------------
// Recovery: multiple errors reported
// ---------------------------------------------------------------------

#[test]
fn multiple_functions_each_report() {
    let r = check_source(
        "<edge>",
        "type region;
         tracked(R) region create() [new R];
         void delete(tracked(R) region r) [-R];
         void one() { tracked(R) region a = create(); }
         void two() { tracked(R) region a = create(); delete(a); delete(a); }
         void three() { tracked(R) region a = create(); delete(a); }",
    );
    assert_eq!(r.verdict(), Verdict::Rejected);
    assert!(r.has_code(Code::KeyLeak));
    assert!(r.has_code(Code::KeyNotHeld));
    // `three` is fine; only two errors total.
    assert_eq!(r.error_codes().len(), 2, "{}", r.render_diagnostics());
}

#[test]
fn parse_error_does_not_abort_checking_of_valid_decls() {
    let r = check_source(
        "<edge>",
        "int bad(;
         void fine(int x) { x = x + 1; }",
    );
    assert!(r.has_code(Code::ParseUnexpected));
}

#[test]
fn error_type_suppresses_cascades() {
    // One unknown type should not produce dozens of follow-on errors.
    let r = check_source(
        "<edge>",
        "void f(mystery x) {
           mystery y = x;
           g(y);
         }
         void g(mystery m);",
    );
    assert_eq!(r.verdict(), Verdict::Rejected);
    assert!(r.error_codes().contains(&Code::UnknownName));
    assert!(
        r.diagnostics.len() <= 6,
        "cascade: {}",
        r.render_diagnostics()
    );
}
