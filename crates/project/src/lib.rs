//! # vault-project
//!
//! Project mode for the Vault checker: multi-unit builds.
//!
//! A *project* is an ordered list of named compilation units (usually
//! loaded from a `vault.toml` manifest, see [`Manifest`]). Units may
//! name each other with `import "unit";` declarations; an import makes
//! the *export surface* of the imported unit — its interfaces,
//! statesets, global keys, types, and function signatures, never
//! bodies — visible while the importing unit is elaborated and checked.
//!
//! The crate builds the import dependency DAG ([`ProjectPlan::build`]),
//! rejects cycles with a stable [`vault_syntax::Code::ImportCycle`]
//! (`V601`) diagnostic and unresolved imports with
//! [`vault_syntax::Code::UnresolvedImport`] (`V602`), orders units
//! topologically (manifest order breaks ties, so the plan is
//! deterministic), and computes two fingerprints per unit:
//!
//! * an **export fingerprint** over the unit's export surface only, and
//! * a **project fingerprint** over the unit's own source *plus* the
//!   export fingerprints of its transitive dependencies.
//!
//! The split is what gives incremental project checking *early cutoff*:
//! editing a function body changes a unit's project fingerprint but not
//! its export fingerprint, so downstream units keep their cached
//! verdicts; only an interface-visible edit invalidates dependents.
//!
//! [`check_project`] is the sequential reference implementation; the
//! `vaultd` service schedules the same plan across its worker pool and
//! must produce byte-identical output.
//!
//! ## Example
//!
//! ```
//! use vault_project::{check_project, ProjectUnit};
//! use vault_core::{Limits, Verdict};
//!
//! let units = vec![
//!     ProjectUnit::new(
//!         "fs",
//!         "interface FS {\n  type FILE;\n  tracked(F) FILE fopen() [new F];\n  void fclose(tracked(F) FILE f) [-F];\n}\n",
//!     ),
//!     ProjectUnit::new(
//!         "app",
//!         "import \"fs\";\nvoid main() {\n  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n}\n",
//!     ),
//! ];
//! let summaries = check_project(&units, &Limits::default());
//! assert!(summaries.iter().all(|s| s.verdict == Verdict::Accepted));
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod manifest;

pub use graph::{
    check_project, check_unit_in_plan, cyclic_summary, export_surface, fold_graph_diags,
    imports_of, ProjectPlan, ProjectUnit, UnitPlan,
};
pub use manifest::{Manifest, ManifestEntry};
