//! Abstract syntax tree for the Vault surface language.
//!
//! The surface language is the C-like notation used throughout the paper:
//! declarations (`struct`, `variant`, `type`, `stateset`, `key`, `interface`,
//! functions with effect clauses) and C statements/expressions extended with
//! `tracked`/guarded types, `new tracked`/`new(rgn)` allocation, `free`, and
//! `switch` over variant constructors.

use crate::intern::{IStr, Interner, Symbol};
use crate::span::Span;
use std::fmt;
use std::sync::Arc;

/// An identifier with its source location.
///
/// Parser-built identifiers carry both the shared text (`name`, an
/// [`IStr`] refcount into the unit's interner — no per-occurrence heap
/// copy) and the interned [`Symbol`], which the lexer numbered in
/// first-seen order; nothing assigns `sym` afterwards. Synthesized
/// identifiers (built outside a parse, e.g. in tests or lowering) carry
/// [`Symbol::UNKNOWN`]; anything resolving them must go through the
/// name, which is why equality ignores the symbol.
#[derive(Clone, Debug, Eq)]
pub struct Ident {
    /// The name as written.
    pub name: IStr,
    /// The interned symbol (`Symbol::UNKNOWN` for synthesized idents).
    pub sym: Symbol,
    /// Where it was written.
    pub span: Span,
}

impl PartialEq for Ident {
    /// Text + location identity; the symbol is a cache of `name` and
    /// deliberately excluded so synthesized and parsed identifiers with
    /// the same spelling compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.span == other.span
    }
}

impl Ident {
    /// Construct an identifier with no interned symbol.
    pub fn new(name: impl Into<IStr>, span: Span) -> Self {
        Ident {
            name: name.into(),
            sym: Symbol::UNKNOWN,
            span,
        }
    }

    /// Construct an identifier carrying its interned symbol.
    pub fn with_sym(name: IStr, sym: Symbol, span: Span) -> Self {
        Ident { name, sym, span }
    }

    /// A synthesized identifier with a dummy span.
    pub fn synthetic(name: impl Into<IStr>) -> Self {
        Ident::new(name, Span::DUMMY)
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// A whole compilation unit.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Top-level declarations in source order.
    pub decls: Vec<Decl>,
    /// The unit's interner, in the lexer's first-seen order.
    /// Shared with elaboration and the checker; a program that was not
    /// parsed has an empty one and cannot be elaborated.
    pub syms: Arc<Interner>,
}

impl PartialEq for Program {
    /// Structural equality over the declarations; the interner is a
    /// derived index and ignored.
    fn eq(&self, other: &Self) -> bool {
        self.decls == other.decls
    }
}

impl Eq for Program {}

/// A top-level (or interface-nested) declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decl {
    /// `interface NAME { ... }` — a named group of declarations. Vault
    /// modules implement interfaces; for checking purposes the contents are
    /// flattened into the global scope, with the interface name usable as a
    /// qualifier (`Region.create`).
    Interface(InterfaceDecl),
    /// `struct name<params> { ty field; ... }`
    Struct(StructDecl),
    /// `variant name<params> [ 'A | 'B(int) {K@s} ];`
    Variant(VariantDecl),
    /// `type name<params>;` (abstract) or `type name<params> = ty;` (alias)
    TypeAlias(TypeAliasDecl),
    /// `stateset NAME = [ a < b < c ];`
    Stateset(StatesetDecl),
    /// `key NAME @ STATESET;` — a statically declared global key (§4.4).
    GlobalKey(GlobalKeyDecl),
    /// A function signature (no body) or definition (with body).
    Fun(FunDecl),
    /// `import "unit";` — pull another project unit's exported
    /// declarations into scope. Resolved by the project build graph;
    /// a standalone check treats the declaration as inert.
    Import(ImportDecl),
}

impl Decl {
    /// The span of the declaration.
    pub fn span(&self) -> Span {
        match self {
            Decl::Interface(d) => d.span,
            Decl::Struct(d) => d.span,
            Decl::Variant(d) => d.span,
            Decl::TypeAlias(d) => d.span,
            Decl::Stateset(d) => d.span,
            Decl::GlobalKey(d) => d.span,
            Decl::Fun(d) => d.span,
            Decl::Import(d) => d.span,
        }
    }

    /// The declared name, if the declaration introduces one.
    pub fn name(&self) -> Option<&Ident> {
        match self {
            Decl::Interface(d) => Some(&d.name),
            Decl::Struct(d) => Some(&d.name),
            Decl::Variant(d) => Some(&d.name),
            Decl::TypeAlias(d) => Some(&d.name),
            Decl::Stateset(d) => Some(&d.name),
            Decl::GlobalKey(d) => Some(&d.name),
            Decl::Fun(d) => Some(&d.name),
            Decl::Import(_) => None,
        }
    }
}

/// `import "unit";` — a reference to another unit of the same project,
/// whose exported declarations (signatures, types, statesets, global
/// keys — never bodies) form part of this unit's checking environment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImportDecl {
    /// The imported unit's manifest name, exactly as written.
    pub path: String,
    /// Span of the path string literal.
    pub path_span: Span,
    /// Whole-declaration span.
    pub span: Span,
}

/// `interface NAME { decls }`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceDecl {
    /// Interface name, usable as a call qualifier.
    pub name: Ident,
    /// Member declarations.
    pub decls: Vec<Decl>,
    /// Whole-declaration span.
    pub span: Span,
}

/// A formal parameter of a parameterized type or function:
/// `type T`, `key K`, or `state S` (optionally bounded, `state S <= TOK`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TParam {
    /// `type T`
    Type(Ident),
    /// `key K`
    Key(Ident),
    /// `state S` with optional upper bound
    State {
        /// The state variable name.
        name: Ident,
        /// Optional `<= TOKEN` bound.
        bound: Option<Ident>,
    },
}

impl TParam {
    /// The parameter's name.
    pub fn name(&self) -> &Ident {
        match self {
            TParam::Type(n) | TParam::Key(n) => n,
            TParam::State { name, .. } => name,
        }
    }
}

/// `struct name<params> { fields }`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructDecl {
    /// The struct name.
    pub name: Ident,
    /// Type/key/state parameters.
    pub params: Vec<TParam>,
    /// Declared fields, in order.
    pub fields: Vec<Field>,
    /// Whole-declaration span.
    pub span: Span,
}

/// One struct field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Field type (may be guarded).
    pub ty: Type,
    /// Field name.
    pub name: Ident,
}

/// `variant name<params> [ ctors ];`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariantDecl {
    /// The variant type name.
    pub name: Ident,
    /// Type/key/state parameters.
    pub params: Vec<TParam>,
    /// The constructors.
    pub ctors: Vec<CtorDecl>,
    /// Whole-declaration span.
    pub span: Span,
}

/// One variant constructor: `'Name(arg tys) {key captures}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CtorDecl {
    /// Constructor name (without the tick).
    pub name: Ident,
    /// Value argument types.
    pub args: Vec<Type>,
    /// Captured keys with required states, e.g. `{K@named}`.
    pub captures: Vec<KeyStateRef>,
    /// Span of this constructor.
    pub span: Span,
}

/// A reference to a key together with an optional state requirement, as in
/// guards (`K@open : FILE`) and constructor captures (`{K@named}`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyStateRef {
    /// The key name.
    pub key: Ident,
    /// Optional state requirement.
    pub state: Option<StateRef>,
}

/// A state expression: a plain token/variable or a bounded variable
/// `(var <= TOKEN)` (paper §4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateRef {
    /// A state token or state variable, resolved during elaboration.
    Name(Ident),
    /// `(var <= BOUND)` — binds `var`, constrained from above by `BOUND`.
    Bounded {
        /// The bound variable.
        var: Ident,
        /// The inclusive upper bound token.
        bound: Ident,
    },
}

impl StateRef {
    /// Span of the state expression.
    pub fn span(&self) -> Span {
        match self {
            StateRef::Name(n) => n.span,
            StateRef::Bounded { var, bound } => var.span.to(bound.span),
        }
    }
}

/// `type name<params>;` or `type name<params> = body;`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeAliasDecl {
    /// The alias name.
    pub name: Ident,
    /// Type/key/state parameters.
    pub params: Vec<TParam>,
    /// `None` for abstract types; `Some` for aliases.
    pub body: Option<Type>,
    /// Whole-declaration span.
    pub span: Span,
}

/// `stateset NAME = [ a < b < c, x < y ];`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatesetDecl {
    /// Stateset name.
    pub name: Ident,
    /// Each comma-separated chain `a < b < c` (a single name is a chain of
    /// length one).
    pub chains: Vec<Vec<Ident>>,
    /// Whole-declaration span.
    pub span: Span,
}

/// `key NAME @ STATESET;` — a global key such as `IRQL`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalKeyDecl {
    /// The key name.
    pub name: Ident,
    /// Stateset governing its local states, if any.
    pub stateset: Option<Ident>,
    /// Whole-declaration span.
    pub span: Span,
}

/// A surface type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Type {
    /// The type constructor.
    pub kind: TypeKind,
    /// Source span.
    pub span: Span,
}

/// Surface type constructors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeKind {
    /// `void`
    Void,
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `byte`
    Byte,
    /// `string`
    Str,
    /// `name<args>` — structs, variants, aliases, abstract types.
    Named {
        /// The type name.
        name: Ident,
        /// Instantiation arguments (kinds resolved during elaboration).
        args: Vec<TypeArg>,
    },
    /// `T[]`
    Array(Box<Type>),
    /// `(T1, T2, ...)` — used by the Fig. 4 `regptpair` fix.
    Tuple(Vec<Type>),
    /// `tracked(K) T` or anonymous `tracked T`.
    Tracked {
        /// Key name; `None` for anonymous tracked types.
        key: Option<Ident>,
        /// The underlying type.
        inner: Box<Type>,
    },
    /// `G1,G2 : T` — guarded type. Guards may carry states.
    Guarded {
        /// The conjunction of guard atoms.
        guards: Vec<KeyStateRef>,
        /// The guarded type.
        inner: Box<Type>,
    },
    /// A function type, as used in alias bodies for completion routines:
    /// `ret Name(param tys) [effect]`.
    Fn(Box<FnType>),
}

/// A surface function type (used in `type ... = <fn type>;` aliases).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnType {
    /// Return type.
    pub ret: Type,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Effect clause.
    pub effect: Option<Effect>,
}

/// An argument in a type instantiation `name<...>`. Bare identifiers parse
/// as `Type(Named)` and are re-interpreted by kind during elaboration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeArg {
    /// Any type expression (bare names may really be keys or states).
    Type(Type),
}

impl TypeArg {
    /// Span of the argument.
    pub fn span(&self) -> Span {
        match self {
            TypeArg::Type(t) => t.span,
        }
    }
}

/// An effect clause `[ items ]` on a function.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Effect {
    /// The comma-separated effect items.
    pub items: Vec<EffectItem>,
    /// Span of the whole clause.
    pub span: Span,
}

/// One item of an effect clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EffectItem {
    /// `K`, `K@a`, `K@a->b`, `K@(v<=S)`, `K@(v<=S)->b` — key held before
    /// and after, possibly changing state.
    Keep {
        /// The key.
        key: Ident,
        /// Required entry state (None = any state, polymorphic).
        from: Option<StateRef>,
        /// Exit state (None = same as entry).
        to: Option<Ident>,
    },
    /// `-K`, `-K@a` — key held before, consumed.
    Consume {
        /// The key.
        key: Ident,
        /// Required entry state.
        state: Option<StateRef>,
    },
    /// `+K`, `+K@b` — key not held before, held after. The key must be
    /// named by some parameter's type (e.g. `KEVENT<K>`).
    Produce {
        /// The key.
        key: Ident,
        /// State it is produced in.
        state: Option<Ident>,
    },
    /// `new K@b` — a fresh key (unknown to the caller) held on return.
    Fresh {
        /// The key name, as visible in the return type.
        key: Ident,
        /// State it is created in.
        state: Option<Ident>,
    },
    /// `uses c` — the function declares capability `c` (capability-effect
    /// discipline, e.g. `uses net`). Not a key item: it names an ambient
    /// authority the body may exercise, checked by the `V7xx` pass.
    Uses {
        /// The capability name.
        cap: Ident,
    },
}

impl EffectItem {
    /// The identifier this item concerns (the key, or the capability
    /// name for a `uses` item).
    pub fn key(&self) -> &Ident {
        match self {
            EffectItem::Keep { key, .. }
            | EffectItem::Consume { key, .. }
            | EffectItem::Produce { key, .. }
            | EffectItem::Fresh { key, .. } => key,
            EffectItem::Uses { cap } => cap,
        }
    }
}

/// A function signature or definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunDecl {
    /// Return type.
    pub ret: Type,
    /// Function name.
    pub name: Ident,
    /// Explicit `<type T, ...>` parameters.
    pub tparams: Vec<TParam>,
    /// Value parameters.
    pub params: Vec<FunParam>,
    /// Effect clause; `None` means "no change to the held-key set".
    pub effect: Option<Effect>,
    /// Body; `None` for signatures/externs.
    pub body: Option<Block>,
    /// Whole-declaration span.
    pub span: Span,
}

/// One value parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunParam {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name; signatures may omit it.
    pub name: Option<Ident>,
}

/// A `{ ... }` block.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Span including the braces.
    pub span: Span,
}

/// A statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stmt {
    /// The statement form.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
}

/// Statement forms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StmtKind {
    /// `ty name = init;` or `ty name;`
    Local {
        /// Declared type (possibly tracked/guarded).
        ty: Type,
        /// Variable name.
        name: Ident,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// A nested function definition (the Fig. 7 completion-routine idiom).
    NestedFun(Box<FunDecl>),
    /// An expression evaluated for effect (usually a call).
    Expr(Expr),
    /// `lhs = rhs;`
    Assign {
        /// The assignment target (variable, field, or index).
        lhs: Expr,
        /// The value.
        rhs: Expr,
    },
    /// `lhs++;`
    Incr(Expr),
    /// `lhs--;`
    Decr(Expr),
    /// `if (cond) then else?`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Box<Stmt>,
        /// Optional else branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `switch (e) { case 'C(x,_): ... }`
    Switch {
        /// The matched expression.
        scrutinee: Expr,
        /// The constructor arms.
        arms: Vec<SwitchArm>,
    },
    /// `return;` or `return e;`
    Return(Option<Expr>),
    /// `free(e);` — the primitive key-revoking operation.
    Free(Expr),
    /// A nested block.
    Block(Block),
}

/// One arm of a `switch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchArm {
    /// Constructor name (without tick).
    pub ctor: Ident,
    /// Binders for the constructor's value arguments.
    pub binders: Vec<PatBinder>,
    /// Arm body.
    pub body: Vec<Stmt>,
    /// Span of the arm.
    pub span: Span,
}

/// A pattern binder: a fresh name or `_`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatBinder {
    /// Bind the component to a name.
    Name(Ident),
    /// Ignore the component.
    Wild(Span),
}

/// An expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expr {
    /// The expression form.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

/// Expression forms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// `true`/`false`.
    BoolLit(bool),
    /// String literal.
    StrLit(String),
    /// A name: variable, parameter, or function.
    Var(Ident),
    /// `e.f` — field access, or module qualifier in call position.
    Field(Box<Expr>, Ident),
    /// `e[i]`
    Index(Box<Expr>, Box<Expr>),
    /// `callee<targs>(args)`
    Call {
        /// The callee (a `Var` or `Field` path).
        callee: Box<Expr>,
        /// Explicit type arguments (usually empty; inferred).
        targs: Vec<TypeArg>,
        /// Value arguments.
        args: Vec<Expr>,
    },
    /// `'Ctor(args){keys}`
    Ctor {
        /// Constructor name (without tick).
        name: Ident,
        /// Value arguments.
        args: Vec<Expr>,
        /// Attached keys (consumed into the value).
        keys: Vec<KeyStateRef>,
    },
    /// `new tracked T {f=e; ...}` (heap, fresh key) or
    /// `new(rgn) T {f=e; ...}` (region allocation, guarded by rgn's key).
    New {
        /// The region expression; `None` for `new tracked`.
        region: Option<Box<Expr>>,
        /// The allocated type name.
        ty: Ident,
        /// Type arguments for the allocated type.
        targs: Vec<TypeArg>,
        /// Field initializers.
        inits: Vec<FieldInit>,
    },
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// A field initializer inside `new ... { f = e; }`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldInit {
    /// Field name.
    pub name: Ident,
    /// Initial value.
    pub value: Expr,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// `!e`
    Not,
    /// `-e`
    Neg,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether the operator takes and yields integers.
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    /// Whether the operator compares two operands yielding bool.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether the operator is boolean (`&&`/`||`).
    pub fn is_logic(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Operator token as written.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

impl Program {
    /// Iterate over all function declarations, flattening interfaces.
    pub fn functions(&self) -> Vec<&FunDecl> {
        fn walk<'a>(decls: &'a [Decl], out: &mut Vec<&'a FunDecl>) {
            for d in decls {
                match d {
                    Decl::Fun(f) => out.push(f),
                    Decl::Interface(i) => walk(&i.decls, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.decls, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Add.is_arith());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Le.is_comparison());
        assert!(BinOp::And.is_logic());
        assert_eq!(BinOp::Ne.symbol(), "!=");
    }

    #[test]
    fn program_functions_flattens_interfaces() {
        let f = FunDecl {
            ret: Type {
                kind: TypeKind::Void,
                span: Span::DUMMY,
            },
            name: Ident::synthetic("create"),
            tparams: vec![],
            params: vec![],
            effect: None,
            body: None,
            span: Span::DUMMY,
        };
        let prog = Program {
            decls: vec![
                Decl::Interface(InterfaceDecl {
                    name: Ident::synthetic("REGION"),
                    decls: vec![Decl::Fun(f.clone())],
                    span: Span::DUMMY,
                }),
                Decl::Fun(FunDecl {
                    name: Ident::synthetic("main"),
                    ..f.clone()
                }),
            ],
            syms: Arc::default(),
        };
        let names: Vec<_> = prog
            .functions()
            .iter()
            .map(|f| f.name.name.clone())
            .collect();
        assert_eq!(names, vec!["create", "main"]);
    }

    /// Ceilings on the node sizes a parse allocates: growing one fails
    /// here. A more compact layout lowers the pins.
    #[test]
    fn ast_node_sizes_stay_under_their_ceilings() {
        use std::mem::size_of;
        assert!(
            size_of::<Stmt>() <= 208,
            "Stmt is {} bytes",
            size_of::<Stmt>()
        );
        assert!(
            size_of::<Expr>() <= 96,
            "Expr is {} bytes",
            size_of::<Expr>()
        );
        assert!(
            size_of::<Decl>() <= 216,
            "Decl is {} bytes",
            size_of::<Decl>()
        );
    }
}
