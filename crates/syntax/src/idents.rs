//! Exhaustive identifier walk over a parsed [`Program`].
//!
//! The checker interns identifiers into per-unit symbols whose ordering
//! must match string ordering (see [`crate::intern`]). The parser lexes
//! into a growable interner (first-seen order) and then freezes it into
//! string-sorted order; this walk is how it rewrites every
//! `Ident::sym` in the finished AST through the freeze's remap table.
//! The incremental engine reuses it to re-intern a spliced `FunDecl`
//! against a cached unit's interner.
//!
//! Exhaustiveness matters for correctness, not just performance: an
//! identifier missed here would keep a symbol from the wrong numbering.
//! Every `match` below is non-wildcard over the node kinds that contain
//! identifiers, so adding an AST variant is a compile error until this
//! walker handles it.

use crate::ast::*;

/// Apply `f` to every [`Ident`] appearing anywhere in `program`.
pub fn remap_idents(program: &mut Program, f: &mut impl FnMut(&mut Ident)) {
    for d in &mut program.decls {
        decl_mut(d, f);
    }
}

/// Apply `f` to every [`Ident`] appearing anywhere in `e`.
pub fn remap_idents_expr(e: &mut Expr, f: &mut impl FnMut(&mut Ident)) {
    expr_mut(e, f);
}

/// Apply `f` to every [`Ident`] appearing anywhere in the function
/// declaration `fun` (signature, effect clause, and body).
pub fn remap_idents_fun(fun: &mut FunDecl, f: &mut impl FnMut(&mut Ident)) {
    fun_decl_mut(fun, f);
}

fn decl_mut(d: &mut Decl, f: &mut impl FnMut(&mut Ident)) {
    match d {
        Decl::Interface(i) => {
            f(&mut i.name);
            for d in &mut i.decls {
                decl_mut(d, f);
            }
        }
        Decl::Struct(s) => {
            f(&mut s.name);
            tparams_mut(&mut s.params, f);
            for field in &mut s.fields {
                f(&mut field.name);
                ty_mut(&mut field.ty, f);
            }
        }
        Decl::Variant(v) => {
            f(&mut v.name);
            tparams_mut(&mut v.params, f);
            for c in &mut v.ctors {
                f(&mut c.name);
                for t in &mut c.args {
                    ty_mut(t, f);
                }
                for k in &mut c.captures {
                    key_state_ref_mut(k, f);
                }
            }
        }
        Decl::TypeAlias(a) => {
            f(&mut a.name);
            tparams_mut(&mut a.params, f);
            if let Some(t) = &mut a.body {
                ty_mut(t, f);
            }
        }
        Decl::Stateset(s) => {
            f(&mut s.name);
            for chain in &mut s.chains {
                for state in chain {
                    f(state);
                }
            }
        }
        Decl::GlobalKey(g) => {
            f(&mut g.name);
            if let Some(s) = &mut g.stateset {
                f(s);
            }
        }
        Decl::Fun(fun) => fun_decl_mut(fun, f),
        // The import path is a string literal, not an identifier.
        Decl::Import(_) => {}
    }
}

fn fun_decl_mut(fun: &mut FunDecl, f: &mut impl FnMut(&mut Ident)) {
    f(&mut fun.name);
    ty_mut(&mut fun.ret, f);
    tparams_mut(&mut fun.tparams, f);
    for p in &mut fun.params {
        ty_mut(&mut p.ty, f);
        if let Some(n) = &mut p.name {
            f(n);
        }
    }
    if let Some(e) = &mut fun.effect {
        effect_mut(e, f);
    }
    if let Some(b) = &mut fun.body {
        block_mut(b, f);
    }
}

fn tparams_mut(ps: &mut [TParam], f: &mut impl FnMut(&mut Ident)) {
    for p in ps {
        match p {
            TParam::Type(n) | TParam::Key(n) => f(n),
            TParam::State { name, bound } => {
                f(name);
                if let Some(b) = bound {
                    f(b);
                }
            }
        }
    }
}

fn key_state_ref_mut(k: &mut KeyStateRef, f: &mut impl FnMut(&mut Ident)) {
    f(&mut k.key);
    if let Some(s) = &mut k.state {
        state_ref_mut(s, f);
    }
}

fn state_ref_mut(s: &mut StateRef, f: &mut impl FnMut(&mut Ident)) {
    match s {
        StateRef::Name(n) => f(n),
        StateRef::Bounded { var, bound } => {
            f(var);
            f(bound);
        }
    }
}

fn ty_mut(t: &mut Type, f: &mut impl FnMut(&mut Ident)) {
    match &mut t.kind {
        TypeKind::Void | TypeKind::Int | TypeKind::Bool | TypeKind::Byte | TypeKind::Str => {}
        TypeKind::Named { name, args } => {
            f(name);
            for a in args {
                match a {
                    TypeArg::Type(t) => ty_mut(t, f),
                }
            }
        }
        TypeKind::Array(inner) => ty_mut(inner, f),
        TypeKind::Tuple(items) => {
            for t in items {
                ty_mut(t, f);
            }
        }
        TypeKind::Tracked { key, inner } => {
            if let Some(k) = key {
                f(k);
            }
            ty_mut(inner, f);
        }
        TypeKind::Guarded { guards, inner } => {
            for g in guards {
                key_state_ref_mut(g, f);
            }
            ty_mut(inner, f);
        }
        TypeKind::Fn(sig) => {
            ty_mut(&mut sig.ret, f);
            for p in &mut sig.params {
                ty_mut(p, f);
            }
            if let Some(e) = &mut sig.effect {
                effect_mut(e, f);
            }
        }
    }
}

fn effect_mut(e: &mut Effect, f: &mut impl FnMut(&mut Ident)) {
    for item in &mut e.items {
        match item {
            EffectItem::Keep { key, from, to } => {
                f(key);
                if let Some(s) = from {
                    state_ref_mut(s, f);
                }
                if let Some(t) = to {
                    f(t);
                }
            }
            EffectItem::Consume { key, state } => {
                f(key);
                if let Some(s) = state {
                    state_ref_mut(s, f);
                }
            }
            EffectItem::Produce { key, state } | EffectItem::Fresh { key, state } => {
                f(key);
                if let Some(s) = state {
                    f(s);
                }
            }
            EffectItem::Uses { cap } => f(cap),
        }
    }
}

fn block_mut(b: &mut Block, f: &mut impl FnMut(&mut Ident)) {
    for s in &mut b.stmts {
        stmt_mut(s, f);
    }
}

fn stmt_mut(s: &mut Stmt, f: &mut impl FnMut(&mut Ident)) {
    match &mut s.kind {
        StmtKind::Local { ty: t, name, init } => {
            ty_mut(t, f);
            f(name);
            if let Some(e) = init {
                expr_mut(e, f);
            }
        }
        StmtKind::NestedFun(fun) => fun_decl_mut(fun, f),
        StmtKind::Expr(e) | StmtKind::Incr(e) | StmtKind::Decr(e) | StmtKind::Free(e) => {
            expr_mut(e, f)
        }
        StmtKind::Assign { lhs, rhs } => {
            expr_mut(lhs, f);
            expr_mut(rhs, f);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            expr_mut(cond, f);
            stmt_mut(then_branch, f);
            if let Some(e) = else_branch {
                stmt_mut(e, f);
            }
        }
        StmtKind::While { cond, body } => {
            expr_mut(cond, f);
            stmt_mut(body, f);
        }
        StmtKind::Switch { scrutinee, arms } => {
            expr_mut(scrutinee, f);
            for arm in arms {
                f(&mut arm.ctor);
                for b in &mut arm.binders {
                    match b {
                        PatBinder::Name(n) => f(n),
                        PatBinder::Wild(_) => {}
                    }
                }
                for s in &mut arm.body {
                    stmt_mut(s, f);
                }
            }
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                expr_mut(e, f);
            }
        }
        StmtKind::Block(b) => block_mut(b, f),
    }
}

fn expr_mut(e: &mut Expr, f: &mut impl FnMut(&mut Ident)) {
    match &mut e.kind {
        ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::StrLit(_) => {}
        ExprKind::Var(n) => f(n),
        ExprKind::Field(base, name) => {
            expr_mut(base, f);
            f(name);
        }
        ExprKind::Index(base, index) => {
            expr_mut(base, f);
            expr_mut(index, f);
        }
        ExprKind::Call {
            callee,
            targs,
            args,
        } => {
            expr_mut(callee, f);
            for a in targs {
                match a {
                    TypeArg::Type(t) => ty_mut(t, f),
                }
            }
            for a in args {
                expr_mut(a, f);
            }
        }
        ExprKind::Ctor { name, args, keys } => {
            f(name);
            for a in args {
                expr_mut(a, f);
            }
            for k in keys {
                key_state_ref_mut(k, f);
            }
        }
        ExprKind::New {
            region,
            ty: name,
            targs,
            inits,
        } => {
            if let Some(r) = region {
                expr_mut(r, f);
            }
            f(name);
            for a in targs {
                match a {
                    TypeArg::Type(t) => ty_mut(t, f),
                }
            }
            for init in inits {
                f(&mut init.name);
                expr_mut(&mut init.value, f);
            }
        }
        ExprKind::Unary(_, inner) => expr_mut(inner, f),
        ExprKind::Binary(_, lhs, rhs) => {
            expr_mut(lhs, f);
            expr_mut(rhs, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_names_from_every_layer() {
        let mut diags = crate::diag::DiagSink::new();
        let mut p = crate::parse_program(
            r#"
            interface REGION {
              type region;
              tracked(R) region create() [new R];
              void delete(tracked(R) region) [-R];
            }
            stateset FS = [ open < closed ];
            key IRQL @ FS;
            struct point { int x; int y; }
            variant opt<key K> [ 'None | 'Some {K@open} ];
            type pair = (int, bool);
            void main(bool flag) {
              tracked(R) region rgn = Region.create();
              R:point pt = new(rgn) point {x=1; y=2;};
              if (flag) { pt.x++; }
              switch ('None) { case 'None: return; case 'Some(v): return; }
              Region.delete(rgn);
            }
            "#,
            &mut diags,
        );
        let mut names = std::collections::BTreeSet::new();
        remap_idents(&mut p, &mut |id| {
            names.insert(id.name.to_string());
        });
        for want in [
            "REGION", "region", "create", "delete", "R", "FS", "open", "closed", "IRQL", "point",
            "x", "y", "opt", "K", "None", "Some", "pair", "main", "flag", "rgn", "pt", "Region",
            "v",
        ] {
            assert!(names.contains(want), "missing `{want}`");
        }
    }

    #[test]
    fn parser_symbols_resolve_to_their_names() {
        // After parsing, every ident's symbol must resolve (through the
        // program's frozen interner) back to exactly its textual name.
        let mut diags = crate::diag::DiagSink::new();
        let mut p = crate::parse_program(
            r#"
            struct point { int x; int y; }
            void main() { point pt = new point {x=1; y=2;}; pt.x++; }
            "#,
            &mut diags,
        );
        assert!(!diags.has_errors());
        let syms = std::sync::Arc::clone(&p.syms);
        remap_idents(&mut p, &mut |id| {
            assert_ne!(id.sym, crate::intern::Symbol::UNKNOWN, "{}", id.name);
            assert_eq!(syms.resolve(id.sym), &*id.name, "symbol/name mismatch");
            assert_eq!(syms.sym(&id.name), id.sym, "intern round-trip");
        });
    }
}
