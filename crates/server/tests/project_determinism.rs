//! Determinism of project mode: checking
//! a multi-unit project through the parallel DAG scheduler at `--jobs 4`
//! must be byte-identical to `--jobs 1` — and to the sequential
//! reference in `vault-project` — for every manifest ordering. Fifty
//! seeded shuffles of the manifest exercise reassembly under every
//! interleaving the small project admits.

use vault_core::Limits;
use vault_corpus::synth::{generate, Shape, SynthConfig};
use vault_project::{check_project, ProjectUnit};
use vault_server::{CheckService, Json, ServiceConfig, UnitIn};

/// The split floppy project plus standalone synthetic units, so shuffles
/// interleave imported units with import-free ones.
fn project_units() -> Vec<UnitIn> {
    let mut units: Vec<UnitIn> = vault_corpus::floppy::project_units()
        .into_iter()
        .map(|(name, source)| UnitIn {
            name: name.to_string(),
            source,
        })
        .collect();
    for i in 0..4u64 {
        let program = generate(&SynthConfig {
            functions: 3,
            stmts_per_fn: 8,
            seed: 0x9E37 + i,
            bug_rate: if i % 2 == 0 { 0.4 } else { 0.0 },
            shape: Shape::Mixed,
        });
        units.push(UnitIn {
            name: format!("standalone_{i}"),
            source: program.source,
        });
    }
    units
}

/// Minimal deterministic PRNG (xorshift64*) for seeded shuffles; the
/// workspace deliberately has no external dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Replace wall-time fields (nondeterministic by nature) with zero.
fn strip_timings(v: Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    if k == "wall_micros" || k == "check_micros" {
                        (k, Json::num(0))
                    } else {
                        (k, strip_timings(v))
                    }
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_timings).collect()),
        other => other,
    }
}

#[test]
fn parallel_project_checks_are_byte_identical_across_job_counts() {
    let base = project_units();
    let mut rng = Rng(0x5EED_CAFE);
    for round in 0..50 {
        let mut units = base.clone();
        shuffle(&mut units, &mut rng);

        // Sequential reference on the shuffled manifest order.
        let reference_units: Vec<ProjectUnit> = units
            .iter()
            .map(|u| ProjectUnit::new(&u.name, &u.source))
            .collect();
        let reference = check_project(&reference_units, &Limits::default());

        let mut lines = Vec::new();
        for jobs in [1usize, 4] {
            let svc = CheckService::new(ServiceConfig {
                jobs,
                cache_capacity: units.len() * 2,
                ..Default::default()
            });
            let (reports, _) = svc.check_project(units.clone());
            assert_eq!(reports.len(), reference.len());
            for (report, expect) in reports.iter().zip(&reference) {
                assert_eq!(
                    *report.summary, *expect,
                    "round {round} jobs={jobs} unit={} diverged from the \
                     sequential project reference",
                    expect.name
                );
            }
            let encoded = vault_server::proto::encode_check_project(Some(1), &reports, 0);
            lines.push(strip_timings(encoded).to_line());
        }
        assert_eq!(lines[0], lines[1], "round {round}: wire output diverged");
    }
}
