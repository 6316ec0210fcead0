//! The concurrent socket-server case study (paper Fig. 3 grown into a
//! workload): a three-unit project — the capability-annotated socket
//! interface, a library of per-connection handlers that each consume the
//! connection key, and the accept-loop server — plus a family of seeded
//! mutants covering both the protocol codes (V301/V302/V304) and the
//! capability-effect codes (V701–V704).

use crate::{CorpusProgram, Expectation};
use vault_syntax::Code;

/// The socket interface unit: Fig. 3's protocol with `uses` capability
/// annotations on every operation. `bind` keeps the §2.3 failure-aware
/// keyed variant, so servers must handle `'BindError` before listening.
pub const SOCKET_IFACE: &str = r#"
// ----- Socket interface (Fig. 3, capability-annotated) ------------------
stateset SOCK_STATE = [ raw < named < listening < ready ];

type sock;
struct sockaddr { int addr; int port; }
variant domain [ 'UNIX | 'INET ];
variant comm_style [ 'STREAM | 'DGRAM ];

tracked(S) sock socket(domain d, comm_style c, int proto) [new S@raw, uses net];
void listen(tracked(S) sock s, int backlog) [S@named->listening, uses net];
tracked(N) sock accept(tracked(S) sock s, sockaddr peer) [S@listening, new N@ready, uses net];
void send(tracked(S) sock s, byte[] buf) [S@ready, uses net, uses io];
void receive(tracked(S) sock s, byte[] buf) [S@ready, uses net, uses io];
void close(tracked(S) sock s) [-S, uses net];

// §2.3: bind can fail; the keyed status variant forces callers to check.
variant bind_status<key K> [ 'Bound {K@named} | 'BindError(int){K@raw} ];
tracked bind_status<S> bind(tracked(S) sock s, sockaddr a) [-S@raw, uses net];

// Diagnostics channel (io only, no socket key involved).
void log_event(int code) [uses io];
"#;

/// Per-connection handlers: each takes the connection key `C` and
/// consumes it (`-C`), so a handler that forgets to close — or closes
/// twice — is a protocol error at its own signature.
pub const HANDLERS: &str = r#"
// ======================================================================
// Per-connection handlers: the connection key is transferred in (-C)
// ======================================================================

struct conn_stats { int reads; int writes; }

// Echo one message back, then shut the connection down.
void handle_echo(tracked(C) sock conn, byte[] buf) [-C@ready, uses net, uses io] {
  receive(conn, buf);
  send(conn, buf);
  log_event(1);
  close(conn);
}

// Drain `n` messages without replying.
void handle_drain(tracked(C) sock conn, byte[] buf, int n) [-C@ready, uses net, uses io] {
  while (n > 0) {
    receive(conn, buf);
    n = n - 1;
  }
  close(conn);
}

// Refuse the connection outright.
void handle_reject(tracked(C) sock conn) [-C@ready, uses net] {
  close(conn);
}
"#;

/// The accept-loop server unit: sets the listener up through the
/// failure-aware `bind`, then serves a bounded number of connections,
/// dispatching each to a handler that takes the connection key.
pub const SERVER: &str = r#"
// ======================================================================
// Accept-loop server
// ======================================================================

// Accept one connection and hand its key to a handler.
void serve_one(tracked(S) sock listener, sockaddr peer, byte[] buf, int kind)
    [S@listening, uses net, uses io] {
  tracked(C) sock conn = accept(listener, peer);
  if (kind == 0) {
    handle_echo(conn, buf);
  } else {
    handle_drain(conn, buf, 4);
  }
}

// The accept loop: the listener key stays at `listening` throughout.
void accept_loop(tracked(S) sock listener, sockaddr peer, byte[] buf, int budget)
    [S@listening, uses net, uses io] {
  while (budget > 0) {
    serve_one(listener, peer, buf, budget % 2);
    budget = budget - 1;
  }
}

// Bring a listener up (retrying on the fallback address) and serve.
void server_main(sockaddr addr, sockaddr fallback, sockaddr peer, byte[] buf, int budget)
    [uses net, uses io] {
  tracked(S) sock s = socket('UNIX, 'STREAM, 0);
  switch (bind(s, addr)) {
    case 'Bound:
      listen(s, 16);
      accept_loop(s, peer, buf, budget);
      close(s);
    case 'BindError(code):
      log_event(code);
      switch (bind(s, fallback)) {
        case 'Bound:
          listen(s, 16);
          accept_loop(s, peer, buf, budget);
          close(s);
        case 'BindError(code2):
          log_event(code2);
          close(s);
      }
  }
}
"#;

/// The full, correct server source (interface + handlers + server).
pub fn server_source() -> String {
    format!("{SOCKET_IFACE}\n{HANDLERS}\n{SERVER}")
}

/// The case study split into project-mode units. Unit order matches the
/// [`server_source`] concatenation, so a flattened check and a project
/// check see the same declarations in the same order.
pub fn project_units() -> Vec<(&'static str, String)> {
    vec![
        ("net", SOCKET_IFACE.to_string()),
        ("handlers", format!("import \"net\";\n{HANDLERS}")),
        (
            "server",
            format!("import \"net\";\nimport \"handlers\";\n{SERVER}"),
        ),
    ]
}

/// A seeded-bug mutant: one protocol or capability violation applied to
/// a single unit of the project.
struct Mutant {
    id: &'static str,
    description: &'static str,
    /// Which unit const the marker lives in: 0 = iface, 1 = handlers,
    /// 2 = server.
    unit: usize,
    /// Exact text in the unit source to replace (must be present).
    from: &'static str,
    /// Replacement introducing the bug.
    to: &'static str,
    /// Expected diagnostic.
    code: Code,
}

const UNIT_SOURCES: [&str; 3] = [SOCKET_IFACE, HANDLERS, SERVER];
const UNIT_NAMES: [&str; 3] = ["net", "handlers", "server"];

const MUTANTS: &[Mutant] = &[
    // ----- Protocol bugs (V3xx) -----------------------------------------
    Mutant {
        id: "sock_mut_double_close",
        description: "handle_reject closes the connection twice",
        unit: 1,
        from: "void handle_reject(tracked(C) sock conn) [-C@ready, uses net] {\n  close(conn);\n}",
        to: "void handle_reject(tracked(C) sock conn) [-C@ready, uses net] {\n  close(conn);\n  close(conn);\n}",
        code: Code::KeyNotHeld,
    },
    Mutant {
        id: "sock_mut_use_after_close",
        description: "handle_echo sends on the connection after closing it",
        unit: 1,
        from: "  send(conn, buf);\n  log_event(1);\n  close(conn);",
        to: "  log_event(1);\n  close(conn);\n  send(conn, buf);",
        code: Code::KeyNotHeld,
    },
    Mutant {
        id: "sock_mut_leaked_connection",
        description: "serve_one accepts a connection but never hands its key to a handler",
        unit: 2,
        from: "  if (kind == 0) {\n    handle_echo(conn, buf);\n  } else {\n    handle_drain(conn, buf, 4);\n  }",
        to: "  // BUG: dispatch elided; the connection key leaks\n  log_event(kind);",
        code: Code::KeyLeak,
    },
    Mutant {
        id: "sock_mut_accept_before_listen",
        description: "server_main enters the accept loop with the socket still `named`",
        unit: 2,
        from: "    case 'Bound:\n      listen(s, 16);\n      accept_loop(s, peer, buf, budget);\n      close(s);\n    case 'BindError(code):",
        to: "    case 'Bound:\n      accept_loop(s, peer, buf, budget);\n      close(s);\n    case 'BindError(code):",
        code: Code::WrongKeyState,
    },
    // ----- Capability bugs (V7xx) ----------------------------------------
    Mutant {
        id: "sock_mut_cap_missing",
        description: "handle_drain drops `uses net` but still drives the socket",
        unit: 1,
        from: "void handle_drain(tracked(C) sock conn, byte[] buf, int n) [-C@ready, uses net, uses io] {",
        to: "void handle_drain(tracked(C) sock conn, byte[] buf, int n) [-C@ready, uses io] {",
        code: Code::CapMissing,
    },
    Mutant {
        id: "sock_mut_cap_unknown",
        description: "the interface declares `socket` with a capability outside the universe",
        unit: 0,
        from: "tracked(S) sock socket(domain d, comm_style c, int proto) [new S@raw, uses net];",
        to: "tracked(S) sock socket(domain d, comm_style c, int proto) [new S@raw, uses radio];",
        code: Code::CapUnknown,
    },
    Mutant {
        id: "sock_mut_cap_duplicate",
        description: "server_main declares `uses net` twice",
        unit: 2,
        from: "    [uses net, uses io] {",
        to: "    [uses net, uses net, uses io] {",
        code: Code::CapDuplicate,
    },
];

/// The warning-only mutant: `handle_reject` declares `uses time` but
/// never exercises it. The verdict stays `Accepted` (V704 is a warning),
/// so this cannot be an [`Expectation::Reject`] corpus row — tests assert
/// the warning's presence directly.
pub fn unused_cap_source() -> String {
    let marker = "void handle_reject(tracked(C) sock conn) [-C@ready, uses net] {";
    let mutated = HANDLERS.replacen(
        marker,
        "void handle_reject(tracked(C) sock conn) [-C@ready, uses net, uses time] {",
        1,
    );
    assert_ne!(mutated, HANDLERS, "unused-cap marker drifted");
    format!("{SOCKET_IFACE}\n{mutated}\n{SERVER}")
}

/// Multi-unit mutants: each seeded bug applied to its unit of the
/// project split. Returns `(id, units, expected code)` rows; the other
/// two units are always pristine, so the expected diagnostic must
/// surface in the mutated unit's report (or, for the interface mutant,
/// in the interface unit itself).
pub fn project_mutants() -> Vec<crate::ProjectMutant> {
    MUTANTS
        .iter()
        .map(|m| {
            let base = UNIT_SOURCES[m.unit];
            assert!(
                base.contains(m.from),
                "mutant {} marker drifted out of unit `{}`",
                m.id,
                UNIT_NAMES[m.unit]
            );
            let mutated = base.replacen(m.from, m.to, 1);
            let mut units = project_units();
            units[m.unit] = (
                UNIT_NAMES[m.unit],
                match m.unit {
                    0 => mutated,
                    1 => format!("import \"net\";\n{mutated}"),
                    _ => format!("import \"net\";\nimport \"handlers\";\n{mutated}"),
                },
            );
            (m.id, units, m.code)
        })
        .collect()
}

/// The unit index (into [`project_units`]) each mutant targets, keyed by
/// mutant id — the detection tests use this to assert the diagnostic
/// surfaces in the right unit.
pub fn mutant_unit(id: &str) -> Option<usize> {
    MUTANTS.iter().find(|m| m.id == id).map(|m| m.unit)
}

/// Server + mutants as corpus programs (experiments E14/E15).
pub fn programs() -> Vec<CorpusProgram> {
    let mut v = vec![CorpusProgram {
        id: "socket_server",
        experiment: "E14",
        description: "the accept-loop socket server, protocol- and capability-clean",
        source: server_source(),
        expect: Expectation::Accept,
    }];
    for m in MUTANTS {
        let base = UNIT_SOURCES[m.unit];
        assert!(
            base.contains(m.from),
            "mutant {} marker drifted out of unit `{}`",
            m.id,
            UNIT_NAMES[m.unit]
        );
        let mutated = base.replacen(m.from, m.to, 1);
        let source = match m.unit {
            0 => format!("{mutated}\n{HANDLERS}\n{SERVER}"),
            1 => format!("{SOCKET_IFACE}\n{mutated}\n{SERVER}"),
            _ => format!("{SOCKET_IFACE}\n{HANDLERS}\n{mutated}"),
        };
        v.push(CorpusProgram {
            id: m.id,
            experiment: "E15",
            description: m.description,
            source,
            expect: Expectation::reject(m.code),
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_source_is_substantial() {
        assert!(crate::count_loc(&server_source()) > 60);
    }

    #[test]
    fn all_mutant_markers_present() {
        // `programs` panics on drift; this makes it a named test.
        assert_eq!(programs().len(), 1 + MUTANTS.len());
    }

    #[test]
    fn mutants_cover_protocol_and_capability_codes() {
        let codes: Vec<Code> = MUTANTS.iter().map(|m| m.code).collect();
        for want in [
            Code::KeyNotHeld,
            Code::WrongKeyState,
            Code::KeyLeak,
            Code::CapMissing,
            Code::CapUnknown,
            Code::CapDuplicate,
        ] {
            assert!(codes.contains(&want), "no mutant for {want}");
        }
    }

    #[test]
    fn project_split_covers_the_whole_server() {
        let units = project_units();
        assert_eq!(units.len(), 3);
        assert!(units[0].1.contains("SOCK_STATE"));
        assert!(units[1].1.starts_with("import \"net\";"));
        assert!(units[2].1.contains("server_main"));
        assert_eq!(project_mutants().len(), MUTANTS.len());
        for (id, mutated, _) in project_mutants() {
            assert_eq!(mutated.len(), 3, "{id}");
            let unit = mutant_unit(id).unwrap();
            assert_ne!(
                mutated[unit].1,
                project_units()[unit].1,
                "{id} did not mutate"
            );
        }
    }

    #[test]
    fn mutants_differ_from_server() {
        for p in programs().iter().skip(1) {
            assert_ne!(p.source, server_source(), "{} identical", p.id);
        }
    }

    #[test]
    fn unused_cap_source_differs() {
        assert_ne!(unused_cap_source(), server_source());
        assert!(unused_cap_source().contains("uses time"));
    }
}
