//! Model-based property tests: the socket simulator against a reference
//! state machine, and the region heap against a map model, under random
//! operation sequences.
//!
//! Every property runs over a fixed set of seeds of the workspace `rand`
//! generator, so a failure names the seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use vault_runtime::{CommStyle, Domain, Network, RegionHeap, SockId, SockState, SocketError};

#[derive(Clone, Copy, Debug)]
enum SockOp {
    Socket,
    Bind { sock: usize, port: u16 },
    Listen { sock: usize },
    Close { sock: usize },
}

fn sock_ops(rng: &mut StdRng) -> Vec<SockOp> {
    (0..rng.gen_range(1..50usize))
        .map(|_| match rng.gen_range(0u8..4) {
            0 => SockOp::Socket,
            1 => SockOp::Bind {
                sock: rng.gen_range(0..8usize),
                port: rng.gen_range(1u16..5),
            },
            2 => SockOp::Listen {
                sock: rng.gen_range(0..8usize),
            },
            _ => SockOp::Close {
                sock: rng.gen_range(0..8usize),
            },
        })
        .collect()
}

/// The simulator's state transitions match the Fig. 3 state machine,
/// tracked independently by a reference model.
#[test]
fn socket_simulator_matches_state_machine() {
    for seed in 0..96 {
        let ops = sock_ops(&mut StdRng::seed_from_u64(seed));
        let mut net = Network::new();
        let mut created: Vec<SockId> = Vec::new();
        let mut model: BTreeMap<usize, SockState> = BTreeMap::new();
        let mut ports_in_use: BTreeMap<u16, usize> = BTreeMap::new();
        for op in ops {
            match op {
                SockOp::Socket => {
                    let id = net.socket(Domain::Unix, CommStyle::Stream);
                    model.insert(created.len(), SockState::Raw);
                    created.push(id);
                }
                SockOp::Bind { sock, port } => {
                    let Some(&id) = created.get(sock) else {
                        continue;
                    };
                    let expect_state = model[&sock];
                    let r = net.bind(id, port);
                    match (expect_state, ports_in_use.contains_key(&port)) {
                        (SockState::Raw, false) => {
                            assert!(r.is_ok(), "seed {seed}");
                            ports_in_use.insert(port, sock);
                            model.insert(sock, SockState::Named);
                        }
                        (SockState::Raw, true) => {
                            assert_eq!(r, Err(SocketError::AddrInUse(port)), "seed {seed}");
                            // §2.3: the socket stays raw.
                            assert_eq!(net.state(id), Some(SockState::Raw), "seed {seed}");
                        }
                        (actual, _) => {
                            assert_eq!(
                                r,
                                Err(SocketError::WrongState {
                                    expected: SockState::Raw,
                                    actual,
                                }),
                                "seed {seed}"
                            );
                        }
                    }
                }
                SockOp::Listen { sock } => {
                    let Some(&id) = created.get(sock) else {
                        continue;
                    };
                    let expect_state = model[&sock];
                    let r = net.listen(id, 4);
                    if expect_state == SockState::Named {
                        assert!(r.is_ok(), "seed {seed}");
                        model.insert(sock, SockState::Listening);
                    } else {
                        assert!(r.is_err(), "seed {seed}");
                    }
                }
                SockOp::Close { sock } => {
                    let Some(&id) = created.get(sock) else {
                        continue;
                    };
                    let expect_state = model[&sock];
                    let r = net.close(id);
                    if expect_state == SockState::Closed {
                        assert!(r.is_err(), "seed {seed}");
                    } else {
                        assert!(r.is_ok(), "seed {seed}");
                        model.insert(sock, SockState::Closed);
                        ports_in_use.retain(|_, &mut s| s != sock);
                    }
                }
            }
            // The simulator's view agrees with the model at every step.
            for (i, &id) in created.iter().enumerate() {
                assert_eq!(net.state(id), Some(model[&i]), "seed {seed}");
            }
        }
        // Leak accounting agrees.
        let model_leaked = model.values().filter(|&&s| s != SockState::Closed).count();
        assert_eq!(net.leaked(), model_leaked, "seed {seed}");
    }
}

/// Region heap against a map model: values survive exactly while the
/// region lives, and leak counts match.
#[test]
fn region_heap_matches_map_model() {
    for seed in 0..96 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ops: Vec<(usize, bool, i32)> = (0..rng.gen_range(1..60usize))
            .map(|_| {
                (
                    rng.gen_range(0..6usize),
                    rng.gen_bool(0.5),
                    rng.gen_range(i32::MIN..=i32::MAX),
                )
            })
            .collect();
        let mut heap: RegionHeap<i32> = RegionHeap::new();
        let mut regions = Vec::new();
        let mut model: Vec<(bool, Vec<i32>)> = Vec::new(); // (live, values)
        let mut ptrs = Vec::new();
        for (slot, make_new, value) in ops {
            if make_new || regions.is_empty() {
                regions.push(heap.create());
                model.push((true, Vec::new()));
            } else {
                let idx = slot % regions.len();
                let rgn = regions[idx];
                if model[idx].0 {
                    if value % 3 == 0 {
                        heap.delete(rgn).unwrap();
                        model[idx].0 = false;
                    } else {
                        let p = heap.alloc(rgn, value).unwrap();
                        model[idx].1.push(value);
                        ptrs.push((idx, model[idx].1.len() - 1, p));
                    }
                } else {
                    // Dead region: everything errors.
                    assert!(heap.alloc(rgn, value).is_err(), "seed {seed}");
                    assert!(heap.delete(rgn).is_err(), "seed {seed}");
                }
            }
            // Every recorded pointer reads back correctly iff its region
            // is live.
            for &(idx, vi, p) in &ptrs {
                if model[idx].0 {
                    assert_eq!(heap.get(p), Ok(&model[idx].1[vi]), "seed {seed}");
                } else {
                    assert!(heap.get(p).is_err(), "seed {seed}");
                }
            }
        }
        let model_leaked = model.iter().filter(|(live, _)| *live).count();
        assert_eq!(heap.leaked(), model_leaked, "seed {seed}");
    }
}
