//! Execution-engine benchmark (ISSUE 6): the tree-walking interpreter
//! vs the `vault-vm` register-bytecode backend on the X6 execution
//! kernels.
//!
//! For each kernel the harness measures best-of-`iters` wall time per
//! engine, asserts both engines return the identical value and burn the
//! identical fuel (the differential suite proves this corpus-wide; the
//! bench re-checks it on the spot so the numbers are guaranteed to
//! describe the same computation), and reports fuel-normalized
//! throughput in ticks/second. Bytecode compile time is measured
//! separately so the speedup column is pure steady-state execution.
//!
//! Results go to `BENCH_exec.json` (first argument overrides the path).
//! `--iters N` shrinks the measurement loops for CI smoke runs.
//!
//! Honesty notes, recorded in the output: wall times are best-of-N on
//! whatever host runs the bench — the reference numbers were taken on a
//! single-core container, so no parallelism is claimed anywhere; the
//! speedup is a ratio of same-host, same-workload medians-of-best and
//! should survive host changes even though the absolute numbers won't.

use std::time::Instant;
use vault_eval::{ExternTable, Machine, Value, DEFAULT_FUEL};
use vault_server::Json;
use vault_syntax::{parse_program, DiagSink};
use vault_vm::{compile, Vm};

/// Wall time of the best run out of `iters`, plus the outcome of that
/// run (all runs are asserted identical, so "the" outcome).
fn best_of<F: FnMut() -> (Value, u64)>(iters: usize, mut run: F) -> (f64, Value, u64) {
    let mut best = f64::INFINITY;
    let (mut value, mut fuel) = (Value::Unit, 0u64);
    for i in 0..iters {
        let start = Instant::now();
        let (v, f) = run();
        let secs = start.elapsed().as_secs_f64();
        if i == 0 {
            (value, fuel) = (v.clone(), f);
        }
        assert_eq!((&v, f), (&value, fuel), "nondeterministic kernel run");
        best = best.min(secs);
    }
    (best, value, fuel)
}

fn main() {
    let mut out_path = "BENCH_exec.json".to_string();
    let mut iters = 7usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args.next().and_then(|n| n.parse().ok()).expect("--iters N");
            }
            path => out_path = path.to_string(),
        }
    }

    let kernels = vault_corpus::programs_for("X6");
    assert!(!kernels.is_empty(), "X6 kernels missing from the corpus");

    let mut rows = Vec::new();
    let mut loop_kernel_speedups = Vec::new();
    println!(
        "{:<24} {:>12} {:>12} {:>9} {:>14} {:>12}",
        "kernel", "interp", "vm", "speedup", "vm ticks/s", "compile"
    );
    for p in &kernels {
        let mut diags = DiagSink::new();
        let program = parse_program(&p.source, &mut diags);
        assert!(!diags.has_errors(), "[{}] kernel must parse", p.id);

        // Compile time, best-of-iters, measured apart from execution.
        let mut compile_secs = f64::INFINITY;
        let mut compiled = compile(&program);
        for _ in 0..iters {
            let start = Instant::now();
            compiled = compile(&program);
            compile_secs = compile_secs.min(start.elapsed().as_secs_f64());
        }
        assert!(compiled.overflowed.is_empty(), "[{}] overflow", p.id);

        let (interp_secs, iv, ifuel) = best_of(iters, || {
            let mut m = Machine::new(&program, ExternTable::with_regions());
            let out = m.run("main", vec![]);
            (out.result.expect("kernel completes"), out.fuel_used)
        });
        let (vm_secs, vv, vfuel) = best_of(iters, || {
            let mut vm = Vm::new(&compiled, ExternTable::with_regions());
            let out = vm.run("main", vec![]);
            (out.result.expect("kernel completes"), out.fuel_used)
        });
        assert_eq!((&iv, ifuel), (&vv, vfuel), "[{}] engines diverged", p.id);
        assert!(ifuel < DEFAULT_FUEL, "[{}] kernel exhausted fuel", p.id);

        let speedup = interp_secs / vm_secs;
        let interp_tps = ifuel as f64 / interp_secs;
        let vm_tps = vfuel as f64 / vm_secs;
        println!(
            "{:<24} {:>10.3}ms {:>10.3}ms {:>8.2}x {:>13.2e} {:>10.3}ms",
            p.id,
            interp_secs * 1e3,
            vm_secs * 1e3,
            speedup,
            vm_tps,
            compile_secs * 1e3
        );
        // The loop-dominated kernels are the 2x acceptance bar; the
        // region-churn kernel spends its time in the shared RegionHeap
        // oracle, so it is reported but not gated.
        if p.id != "exec_region_churn" {
            loop_kernel_speedups.push((p.id, speedup));
        }
        rows.push(Json::Obj(vec![
            ("kernel".to_string(), Json::str(p.id)),
            ("result".to_string(), Json::str(iv.to_string())),
            ("fuel".to_string(), Json::num(ifuel)),
            ("interp_secs".to_string(), Json::Num(round6(interp_secs))),
            ("vm_secs".to_string(), Json::Num(round6(vm_secs))),
            ("compile_secs".to_string(), Json::Num(round6(compile_secs))),
            ("speedup".to_string(), Json::Num(round2(speedup))),
            (
                "interp_ticks_per_sec".to_string(),
                Json::num(interp_tps as u64),
            ),
            ("vm_ticks_per_sec".to_string(), Json::num(vm_tps as u64)),
        ]));
    }

    for (id, speedup) in &loop_kernel_speedups {
        assert!(
            *speedup >= 2.0,
            "[{id}] VM is only {speedup:.2}x the interpreter on a loop kernel \
             (the acceptance bar is 2x)"
        );
    }

    let json = Json::Obj(vec![
        (
            "bench".to_string(),
            Json::str("interpreter vs register-bytecode VM on the X6 execution kernels"),
        ),
        ("host".to_string(), vault_bench::host_meta()),
        (
            "command".to_string(),
            Json::str("cargo run --release -p vault-bench --bin exec_bench"),
        ),
        ("iters".to_string(), Json::num(iters as u64)),
        (
            "host_note".to_string(),
            Json::str(
                "best-of-N wall times on a single-core container; absolute numbers are \
                 host-specific, the speedup column is a same-host ratio",
            ),
        ),
        (
            "methodology".to_string(),
            Json::str(
                "fresh engine per run over a shared RegionHeap oracle; identical result \
                 and fuel asserted across engines before timing is reported; compile \
                 time measured separately from execution",
            ),
        ),
        ("kernels".to_string(), Json::Arr(rows)),
    ]);
    let mut text = String::from("{\n");
    if let Json::Obj(pairs) = &json {
        for (i, (k, v)) in pairs.iter().enumerate() {
            text.push_str(&format!(
                "  {}: {}{}\n",
                Json::str(k).to_line(),
                v.to_line(),
                if i + 1 < pairs.len() { "," } else { "" }
            ));
        }
    }
    text.push_str("}\n");
    std::fs::write(&out_path, &text).expect("write bench json");
    println!("wrote {out_path}");
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}
