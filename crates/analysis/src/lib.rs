//! `million-analyze`: the in-repo invariant lint engine.
//!
//! The serving engine carries invariants the type system cannot express —
//! the fused decode kernel must not allocate, the shard supervision loop
//! must not panic, quantized kernels must stay bit-deterministic, and
//! nothing may block while the block-store mutex is held. Each was
//! proven once (counting allocators, equivalence suites, chaos tests) and
//! each silently rots under ordinary refactoring. This crate turns those
//! proofs into a lexical analysis that runs on every commit:
//!
//! - [`lexer`] — a hand-rolled, dependency-free Rust lexer (the build
//!   environment cannot reach crates.io, so `syn` is unavailable);
//! - [`scope`] — a brace-matched scope tree with test-code and
//!   annotation tracking;
//! - [`policy`] — the `analysis.toml` coverage policy;
//! - [`rules`] — the four rule families;
//! - [`report`] — findings, suppressions, and rendering.
//!
//! The engine entry points are [`collect_workspace`] (filesystem walk)
//! and [`analyze_sources`] (pure: `Vec<SourceFile>` in, [`Report`] out),
//! so tests can drive the whole pipeline on in-memory fixtures.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
pub mod scope;

use policy::Policy;
use report::{AllowDirective, Report, Suppressed};
use std::collections::BTreeMap;
use std::path::Path;

/// One Rust source file to analyze.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// The crate this file belongs to (directory name under the scan
    /// root, e.g. `serverd`).
    pub crate_name: String,
    /// The module path, e.g. `serverd::shard` (crate root == crate name).
    pub module: String,
    /// Full source text.
    pub text: String,
    /// True for files that are test-only in their entirety (under
    /// `tests/`, `benches/`, or `examples/`).
    pub is_test: bool,
}

/// A lexed + scoped file, ready for the rules.
pub struct Unit {
    /// The source file.
    pub file: SourceFile,
    /// Its token and comment streams.
    pub lexed: lexer::Lexed,
    /// Its scope tree.
    pub tree: scope::ScopeTree,
    /// Its source split into lines (for snippets).
    pub lines: Vec<String>,
}

impl Unit {
    /// Lexes and scopes one source file.
    pub fn build(file: SourceFile) -> Unit {
        let lexed = lexer::lex(&file.text);
        let tree = scope::ScopeTree::build(&lexed, file.is_test);
        let lines = file.text.lines().map(|l| l.to_string()).collect();
        Unit {
            file,
            lexed,
            tree,
            lines,
        }
    }
}

/// Runs every rule over `files` under `policy` and returns the finished
/// report (sorted, suppressions applied).
pub fn analyze_sources(files: Vec<SourceFile>, policy: &Policy) -> Report {
    let units: Vec<Unit> = files.into_iter().map(Unit::build).collect();
    let mut report = Report {
        files: units.len(),
        ..Report::default()
    };

    // Group units by crate for the transitive no-alloc traversal.
    let mut crates: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, unit) in units.iter().enumerate() {
        crates.entry(&unit.file.crate_name).or_default().push(i);
    }

    let mut raw = Vec::new();
    for crate_units in crates.values() {
        report.no_alloc_regions += rules::no_alloc::check(&units, crate_units, policy, &mut raw);
    }
    for unit in &units {
        rules::no_panic::check(unit, policy, &mut raw);
        rules::determinism::check(unit, policy, &mut raw);
        rules::lock_discipline::check(unit, policy, &mut raw);
    }

    apply_suppressions(&units, raw, &mut report);
    report.finalize();
    report
}

/// Splits raw findings into live and suppressed using the `allow`
/// comments in each file; unused allows become stale.
fn apply_suppressions(units: &[Unit], raw: Vec<report::Finding>, report: &mut Report) {
    // Collect every allow directive, keyed by file path. A trailing
    // allow (code before it on the line) covers only its own line; a
    // standalone allow covers the line below it.
    let mut allows: BTreeMap<&str, Vec<(AllowDirective, bool, bool)>> = BTreeMap::new();
    for unit in units {
        for c in &unit.lexed.comments {
            if let Some((rule, reason)) = report::parse_allow(&c.text) {
                allows.entry(&unit.file.path).or_default().push((
                    AllowDirective {
                        rule,
                        file: unit.file.path.clone(),
                        line: c.line,
                        reason,
                    },
                    c.trailing,
                    false,
                ));
            }
        }
    }
    for finding in raw {
        let waiver = allows.get_mut(finding.file.as_str()).and_then(|list| {
            list.iter_mut().find(|(a, trailing, _)| {
                a.rule == finding.rule
                    && if *trailing {
                        a.line == finding.line
                    } else {
                        a.line == finding.line || a.line + 1 == finding.line
                    }
            })
        });
        match waiver {
            Some((a, _, used)) => {
                *used = true;
                report.suppressed.push(Suppressed {
                    finding,
                    reason: a.reason.clone(),
                });
            }
            None => report.findings.push(finding),
        }
    }
    for (_, list) in allows {
        for (a, _, used) in list {
            if !used {
                report.stale_allows.push(a);
            }
        }
    }
}

/// Walks the scan roots under `root` and loads every `.rs` file into a
/// [`SourceFile`], honoring the policy's `exclude` prefixes and skipping
/// `target/` and hidden directories. Files are returned in sorted path
/// order so the whole run is deterministic.
pub fn collect_workspace(root: &Path, policy: &Policy) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for scan in &policy.scan {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(&dir, root, policy, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let text = std::fs::read_to_string(root.join(&rel))?;
        files.push(source_file(&rel, text));
    }
    Ok(files)
}

fn walk(dir: &Path, root: &Path, policy: &Policy, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if Policy::path_covered(&policy.exclude, &rel) {
            continue;
        }
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, root, policy, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Derives crate and module identity from a workspace-relative path like
/// `crates/serverd/src/shard.rs` -> crate `serverd`, module
/// `serverd::shard`.
pub fn source_file(rel: &str, text: String) -> SourceFile {
    let parts: Vec<&str> = rel.split('/').collect();
    // parts = [scan_root, crate_dir, ...rest]
    let crate_name = parts.get(1).copied().unwrap_or("unknown").to_string();
    let rest = parts.get(2..).unwrap_or(&[]);
    let is_test = rest
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
    let mut module = vec![crate_name.clone()];
    // Module path: components after `src` (or after the crate dir for
    // tests/benches), with `lib.rs` and `mod.rs` collapsing into their
    // parent and `main.rs` keeping its name.
    let after_src: &[&str] = match rest.first() {
        Some(&"src") => &rest[1..],
        _ => rest,
    };
    for (i, part) in after_src.iter().enumerate() {
        let last = i + 1 == after_src.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "mod" {
                module.push(stem.to_string());
            }
        } else {
            module.push(part.to_string());
        }
    }
    SourceFile {
        path: rel.to_string(),
        crate_name,
        module: module.join("::"),
        text,
        is_test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Rule;

    #[test]
    fn module_derivation_handles_lib_mod_and_nested_files() {
        let f = source_file("crates/serverd/src/shard.rs", String::new());
        assert_eq!(f.crate_name, "serverd");
        assert_eq!(f.module, "serverd::shard");
        assert!(!f.is_test);

        let f = source_file("crates/million/src/lib.rs", String::new());
        assert_eq!(f.module, "million");

        let f = source_file("crates/million/src/cache/mod.rs", String::new());
        assert_eq!(f.module, "million::cache");

        let f = source_file("crates/serverd/src/bin/bench.rs", String::new());
        assert_eq!(f.module, "serverd::bin::bench");

        let f = source_file("crates/serverd/tests/chaos.rs", String::new());
        assert_eq!(f.module, "serverd::tests::chaos");
        assert!(f.is_test);
    }

    fn run(files: Vec<(&str, &str)>, policy_text: &str) -> Report {
        let policy = Policy::parse(policy_text).expect("test policy parses");
        analyze_sources(
            files
                .into_iter()
                .map(|(p, t)| source_file(p, t.to_string()))
                .collect(),
            &policy,
        )
    }

    #[test]
    fn suppression_covers_own_line_and_next_line() {
        let src = "\
fn hot() {
    // analyze: allow(no-panic) — startup only, cannot race
    cfg.get(0).unwrap();
    other.unwrap(); // analyze: allow(no-panic) — checked above
    third.unwrap();
}
";
        let report = run(
            vec![("crates/x/src/lib.rs", src)],
            "[no_panic]\nmodules = [\"x\"]\n",
        );
        assert_eq!(report.findings.len(), 1, "{}", report.render());
        assert_eq!(report.findings[0].line, 5);
        assert_eq!(report.suppressed.len(), 2);
        assert!(report.stale_allows.is_empty());
    }

    #[test]
    fn stale_allows_are_reported_not_hidden() {
        let src = "// analyze: allow(no-alloc) — nothing here\nfn f() {}\n";
        let report = run(vec![("crates/x/src/lib.rs", src)], "");
        assert!(report.findings.is_empty());
        assert_eq!(report.stale_allows.len(), 1);
        assert_eq!(report.stale_allows[0].rule, Rule::NoAlloc);
    }

    #[test]
    fn transitive_no_alloc_reaches_same_crate_helpers() {
        let kernel = "\
// analyze: no-alloc
pub fn kernel(x: &[f32]) -> f32 {
    helper(x)
}
";
        let helper = "\
pub fn helper(x: &[f32]) -> f32 {
    let v: Vec<f32> = x.to_vec();
    v[0]
}
";
        let report = run(
            vec![
                ("crates/k/src/kernel.rs", kernel),
                ("crates/k/src/helper.rs", helper),
            ],
            "",
        );
        assert_eq!(report.count(Rule::NoAlloc), 1, "{}", report.render());
        let f = &report.findings[0];
        assert_eq!(f.file, "crates/k/src/helper.rs");
        assert!(f.message.contains("reached via helper"), "{}", f.message);
        assert_eq!(report.no_alloc_regions, 1);
    }

    #[test]
    fn cross_crate_calls_stop_traversal() {
        let kernel = "\
// analyze: no-alloc
pub fn kernel(x: &[f32]) -> f32 {
    other_crate::alloc_heavy(x)
}
";
        let other = "pub fn alloc_heavy(x: &[f32]) -> f32 { x.to_vec()[0] }\n";
        let report = run(
            vec![
                ("crates/k/src/lib.rs", kernel),
                ("crates/other_crate/src/lib.rs", other),
            ],
            "",
        );
        assert_eq!(report.count(Rule::NoAlloc), 0, "{}", report.render());
    }

    #[test]
    fn region_markers_cover_only_the_marked_lines() {
        let src = "\
pub fn serve(n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    // analyze: no-alloc(begin)
    for i in 0..n {
        let x = format!(\"{i}\");
        drop(x);
    }
    // analyze: no-alloc(end)
    out.push(1);
    out
}
";
        let report = run(vec![("crates/x/src/lib.rs", src)], "");
        assert_eq!(report.count(Rule::NoAlloc), 1, "{}", report.render());
        assert_eq!(report.findings[0].line, 5);
        assert!(report.findings[0].message.contains("region at line 3"));
    }

    #[test]
    fn test_code_is_exempt_everywhere() {
        let src = "\
pub fn live(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}
#[cfg(test)]
mod tests {
    #[test]
    fn check() {
        super::live(Some(1));
        let v = vec![1];
        v[0];
        std::panic::catch_unwind(|| ()).unwrap();
    }
}
";
        let report = run(
            vec![("crates/x/src/lib.rs", src)],
            "[no_panic]\nmodules = [\"x\"]\nindex_modules = [\"x\"]\n",
        );
        assert!(report.findings.is_empty(), "{}", report.render());
    }

    #[test]
    fn lock_discipline_window_ends_at_drop() {
        let src = "\
impl Store {
    fn lock(&self) -> Guard {
        self.inner.lock()
    }
    fn ok(&self, tx: &Sender<u32>) {
        let inner = self.lock();
        let n = inner.free;
        drop(inner);
        tx.send(n);
    }
    fn bad(&self, tx: &Sender<u32>) {
        let inner = self.lock();
        tx.send(inner.free);
    }
}
";
        let report = run(
            vec![("crates/store/src/store.rs", src)],
            "[lock_discipline]\npaths = [\"crates/store/src/store.rs\"]\n",
        );
        assert_eq!(report.count(Rule::LockDiscipline), 1, "{}", report.render());
        assert!(report.findings[0].message.contains("channel send"));
    }
}
