//! Explicit control-flow graphs for Vault function bodies.
//!
//! The flow checker itself interprets the (reducible) AST structurally —
//! which computes exactly the per-node held-key sets the paper describes —
//! so nothing in checking builds a CFG. The CLI does: `vaultc dump-cfg`
//! prints each function's graph as dot, and `vaultc stats` reports the
//! program's shape as block and edge counts.

use vault_syntax::ast::{Block, Expr, FunDecl, Stmt, StmtKind};
use vault_syntax::pretty;

/// Identifies a basic block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

/// One basic block: straight-line statements plus a terminator.
#[derive(Clone, Debug, Default)]
pub struct BasicBlock {
    /// Pretty-printed statements, in order.
    pub stmts: Vec<String>,
    /// Successor blocks with edge labels.
    pub succs: Vec<(BlockId, EdgeKind)>,
}

/// Why control flows along an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Unconditional fall-through.
    Goto,
    /// Condition is true.
    True,
    /// Condition is false.
    False,
    /// A `switch` arm matched.
    Case,
    /// Loop back edge.
    Back,
}

/// A function's control-flow graph.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// The function name.
    pub name: String,
    /// All blocks; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// The distinguished exit block id.
    pub exit: BlockId,
}

impl Cfg {
    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }

    /// Number of join points (blocks with more than one predecessor).
    pub fn join_count(&self) -> usize {
        let mut preds = vec![0usize; self.blocks.len()];
        for b in &self.blocks {
            for (s, _) in &b.succs {
                preds[s.0] += 1;
            }
        }
        preds.iter().filter(|&&p| p > 1).count()
    }

    /// Render as Graphviz dot.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  node [shape=box, fontname=monospace];");
        for (i, b) in self.blocks.iter().enumerate() {
            let label = if b.stmts.is_empty() {
                if BlockId(i) == self.exit {
                    "<exit>".to_string()
                } else {
                    format!("bb{i}")
                }
            } else {
                b.stmts.join("\\l")
            };
            let _ = writeln!(out, "  bb{i} [label=\"{}\"];", label.replace('"', "'"));
            for (s, kind) in &b.succs {
                let style = match kind {
                    EdgeKind::Goto => String::new(),
                    EdgeKind::True => " [label=T]".to_string(),
                    EdgeKind::False => " [label=F]".to_string(),
                    EdgeKind::Case => " [label=case]".to_string(),
                    EdgeKind::Back => " [style=dashed]".to_string(),
                };
                let _ = writeln!(out, "  bb{i} -> bb{}{};", s.0, style);
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Build the CFG of a function body. Functions without bodies yield a
/// trivial entry→exit graph.
pub fn build_cfg(f: &FunDecl) -> Cfg {
    let mut b = Builder {
        blocks: vec![BasicBlock::default()],
    };
    let exit = b.new_block();
    let end = match &f.body {
        Some(body) => b.block_stmts(BlockId(0), body, exit),
        None => BlockId(0),
    };
    if end != exit {
        b.edge(end, exit, EdgeKind::Goto);
    }
    Cfg {
        name: f.name.name.to_string(),
        blocks: b.blocks,
        exit,
    }
}

struct Builder {
    blocks: Vec<BasicBlock>,
}

impl Builder {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::default());
        BlockId(self.blocks.len() - 1)
    }

    fn edge(&mut self, from: BlockId, to: BlockId, kind: EdgeKind) {
        self.blocks[from.0].succs.push((to, kind));
    }

    fn push_stmt(&mut self, cur: BlockId, s: &Stmt) {
        let text = pretty::stmt_to_string(s);
        let line = text.lines().next().unwrap_or("").trim().to_string();
        self.blocks[cur.0].stmts.push(line);
    }

    fn block_stmts(&mut self, mut cur: BlockId, body: &Block, exit: BlockId) -> BlockId {
        for s in &body.stmts {
            cur = self.stmt(cur, s, exit);
        }
        cur
    }

    fn stmt(&mut self, cur: BlockId, s: &Stmt, exit: BlockId) -> BlockId {
        match &s.kind {
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.note_cond(cur, cond);
                let then_entry = self.new_block();
                let join = self.new_block();
                self.edge(cur, then_entry, EdgeKind::True);
                let then_end = self.stmt(then_entry, then_branch, exit);
                self.edge(then_end, join, EdgeKind::Goto);
                match else_branch {
                    Some(e) => {
                        let else_entry = self.new_block();
                        self.edge(cur, else_entry, EdgeKind::False);
                        let else_end = self.stmt(else_entry, e, exit);
                        self.edge(else_end, join, EdgeKind::Goto);
                    }
                    None => self.edge(cur, join, EdgeKind::False),
                }
                join
            }
            StmtKind::While { cond, body } => {
                let head = self.new_block();
                self.edge(cur, head, EdgeKind::Goto);
                self.note_cond(head, cond);
                let body_entry = self.new_block();
                let after = self.new_block();
                self.edge(head, body_entry, EdgeKind::True);
                self.edge(head, after, EdgeKind::False);
                let body_end = self.stmt(body_entry, body, exit);
                self.edge(body_end, head, EdgeKind::Back);
                after
            }
            StmtKind::Switch { scrutinee, arms } => {
                self.blocks[cur.0]
                    .stmts
                    .push(format!("switch ({})", pretty::expr_to_string(scrutinee)));
                let join = self.new_block();
                for arm in arms {
                    let entry = self.new_block();
                    self.edge(cur, entry, EdgeKind::Case);
                    self.blocks[entry.0]
                        .stmts
                        .push(format!("case '{}", arm.ctor));
                    let mut end = entry;
                    for s in &arm.body {
                        end = self.stmt(end, s, exit);
                    }
                    self.edge(end, join, EdgeKind::Goto);
                }
                if arms.is_empty() {
                    self.edge(cur, join, EdgeKind::Goto);
                }
                join
            }
            StmtKind::Return(_) => {
                self.push_stmt(cur, s);
                self.edge(cur, exit, EdgeKind::Goto);
                // Dead continuation block for anything that follows.
                self.new_block()
            }
            StmtKind::Block(b) => self.block_stmts(cur, b, exit),
            _ => {
                self.push_stmt(cur, s);
                cur
            }
        }
    }

    fn note_cond(&mut self, cur: BlockId, cond: &Expr) {
        self.blocks[cur.0]
            .stmts
            .push(format!("if ({})", pretty::expr_to_string(cond)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vault_syntax::{parse_program, DiagSink};

    fn cfg_of(src: &str) -> Cfg {
        let mut d = DiagSink::new();
        let p = parse_program(src, &mut d);
        assert!(!d.has_errors(), "{:?}", d.diagnostics());
        build_cfg(p.functions()[0])
    }

    #[test]
    fn straight_line_has_two_blocks() {
        let c = cfg_of("void f(int a) { a = a + 1; a = a * 2; }");
        assert_eq!(c.block_count(), 2);
        assert_eq!(c.join_count(), 0);
    }

    #[test]
    fn if_produces_join() {
        let c = cfg_of("void f(bool b, int a) { if (b) { a = 1; } else { a = 2; } a = 3; }");
        assert!(c.join_count() >= 1, "dot: {}", c.to_dot());
    }

    #[test]
    fn while_produces_back_edge() {
        let c = cfg_of("void f(bool b) { while (b) { b = false; } }");
        let back_edges = c
            .blocks
            .iter()
            .flat_map(|b| &b.succs)
            .filter(|(_, k)| *k == EdgeKind::Back)
            .count();
        assert_eq!(back_edges, 1);
    }

    #[test]
    fn return_connects_to_exit() {
        let c = cfg_of("int f(bool b) { if (b) { return 1; } return 0; }");
        let exit_preds = c
            .blocks
            .iter()
            .flat_map(|b| &b.succs)
            .filter(|(s, _)| *s == c.exit)
            .count();
        assert!(exit_preds >= 2, "dot: {}", c.to_dot());
    }

    #[test]
    fn dot_renders() {
        let c = cfg_of("void f(bool b) { if (b) { return; } }");
        let dot = c.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
    }
}
