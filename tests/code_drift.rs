//! Drift tests for the diagnostic-code listings: the registry in
//! `crates/lint/src/diagnostic.rs` is the single source of truth, and the
//! three places that re-state it — the README "Pre-flight checks" table,
//! the DESIGN.md pass tables and the `castanet-lint --codes` output — must
//! stay in sync with it. A new code without documentation (or a documented
//! code that no longer exists) fails here, not in review.
//!
//! The same holds for metric names the benchmark reads: `cosim-bench`
//! looks counters up by name with `unwrap_or(0)`, so a counter renamed in
//! the crates would silently read 0 there instead of failing.

use castanet_lint::{Severity, CODES};
use std::collections::BTreeMap;
use std::process::Command;

fn repo_file(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Extracts `| `CASTnnn` | severity | ...` table rows.
fn parse_code_table(text: &str) -> BTreeMap<String, String> {
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("| `CAST") else {
            continue;
        };
        let mut cells = rest.splitn(3, '|');
        let code_cell = cells.next().unwrap_or_default().trim();
        let severity_cell = cells.next().unwrap_or_default().trim();
        let code = format!("CAST{}", code_cell.trim_end_matches('`'));
        if code.len() == 7 && code[4..].chars().all(|c| c.is_ascii_digit()) {
            rows.insert(code, severity_cell.to_string());
        }
    }
    rows
}

/// Extracts every `CASTnnn` mention, expanding `CASTaaa`–`CASTbbb` ranges
/// (the DESIGN.md tables state spans, not individual rows).
fn parse_code_spans(text: &str) -> Vec<(u32, u32)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find("CAST") {
        let start = i + pos + 4;
        let digits: String = text[start..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        i = start;
        if digits.len() != 3 {
            continue;
        }
        let lo: u32 = digits.parse().unwrap();
        // A range looks like `CAST001`–`CAST010`: backtick, dash (en dash
        // or hyphen), backtick, CAST.
        let tail = &text[start + 3..];
        let hi = tail
            .strip_prefix('`')
            .and_then(|t| t.strip_prefix('–').or_else(|| t.strip_prefix('-')))
            .and_then(|t| t.strip_prefix('`'))
            .and_then(|t| t.strip_prefix("CAST"))
            .and_then(|t| t.get(..3))
            .and_then(|d| d.parse::<u32>().ok());
        spans.push((lo, hi.unwrap_or(lo)));
        let _ = bytes;
    }
    spans
}

#[test]
fn readme_table_matches_registry_exactly() {
    let table = parse_code_table(&repo_file("README.md"));
    for (code, severity, _) in CODES {
        let documented = table
            .get(*code)
            .unwrap_or_else(|| panic!("{code} missing from the README pre-flight table"));
        assert_eq!(
            documented,
            &severity.to_string(),
            "README severity drift for {code}"
        );
    }
    for code in table.keys() {
        assert!(
            CODES.iter().any(|(c, _, _)| c == code),
            "README documents {code}, which the registry no longer has"
        );
    }
}

#[test]
fn design_doc_pass_tables_cover_every_code() {
    let design = repo_file("DESIGN.md");
    let spans = parse_code_spans(&design);
    assert!(!spans.is_empty(), "no CAST code spans found in DESIGN.md");
    for (code, _, _) in CODES {
        let n: u32 = code[4..].parse().unwrap();
        assert!(
            spans.iter().any(|&(lo, hi)| lo <= n && n <= hi),
            "{code} is not covered by any DESIGN.md pass table span"
        );
    }
    // Span endpoints must themselves be (or remain) registered codes.
    for &(lo, hi) in &spans {
        for endpoint in [lo, hi] {
            let code = format!("CAST{endpoint:03}");
            assert!(
                CODES.iter().any(|(c, _, _)| *c == code),
                "DESIGN.md references {code}, which the registry does not define"
            );
        }
    }
}

#[test]
fn codes_flag_prints_the_registry_verbatim() {
    let out = Command::new(env!("CARGO_BIN_EXE_castanet-lint"))
        .arg("--codes")
        .output()
        .expect("run castanet-lint --codes");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines();
    let header = lines.next().expect("header line");
    assert!(header.starts_with("code"), "{header}");
    let printed: Vec<(String, String)> = lines
        .map(|l| {
            let mut cols = l.split_whitespace();
            (
                cols.next().unwrap_or_default().to_string(),
                cols.next().unwrap_or_default().to_string(),
            )
        })
        .collect();
    assert_eq!(printed.len(), CODES.len(), "--codes row count drift");
    for ((code, severity, _), (p_code, p_severity)) in CODES.iter().zip(&printed) {
        assert_eq!(code, p_code, "--codes order drift");
        assert_eq!(
            &severity.to_string(),
            p_severity,
            "severity drift for {code}"
        );
    }
    // Severity strings stay the documented lowercase triple.
    for (_, severity, _) in CODES {
        assert!(matches!(
            *severity,
            Severity::Error | Severity::Warning | Severity::Info
        ));
    }
}

/// Non-test source of a file: everything before its first `#[cfg(test)]`.
fn non_test_source(path: &std::path::Path) -> String {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    match text.find("#[cfg(test)]") {
        Some(at) => text[..at].to_string(),
        None => text,
    }
}

fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every string literal passed as `<prefix>"…")` in `text`.
fn call_literals<'t>(text: &'t str, prefix: &str) -> Vec<&'t str> {
    text.match_indices(prefix)
        .filter_map(|(at, _)| {
            let rest = &text[at + prefix.len()..];
            let end = rest.find('"')?;
            rest[end..].starts_with("\")").then_some(&rest[..end])
        })
        .collect()
}

#[test]
fn counters_the_benchmark_reads_are_registered_by_the_crates() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut registered = std::collections::BTreeSet::new();
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    for file in &files {
        let text = non_test_source(file);
        registered.extend(
            call_literals(&text, ".counter(\"")
                .into_iter()
                .map(str::to_string),
        );
    }
    let bench = repo_file("cosim-bench/src/main.rs");
    let read = call_literals(&bench, "counter(\"");
    assert!(
        read.iter().any(|n| n.starts_with("ring.")),
        "found no counter reads in cosim-bench/src/main.rs: {read:?}"
    );
    for name in read {
        assert!(
            registered.contains(name),
            "cosim-bench reads counter {name:?}, which no `.counter(\"…\")` call in \
             crates/*/src registers"
        );
    }
}

#[test]
fn a_compiled_time_warp_run_registers_the_benchmark_counters() {
    use castanet::{ExecMode, Telemetry};
    use coverify::scenarios::{switch_cosim_compiled, SwitchScenarioConfig};
    let cfg = SwitchScenarioConfig {
        cells_per_source: 5,
        seed: 1,
        ..SwitchScenarioConfig::default()
    };
    let tel = Telemetry::counters_only();
    let sc = switch_cosim_compiled(cfg, 1);
    let mut coupling = sc
        .coupling
        .with_telemetry(&tel)
        .into_parallel()
        .with_exec_mode(ExecMode::TimeWarp);
    coupling
        .run(castanet_netsim::time::SimTime::from_secs(1))
        .expect("time-warp run");
    let snap = tel.metrics_snapshot();
    for name in [
        "ring.originator_parks",
        "ring.follower_parks",
        "timewarp.commits",
        "timewarp.rollbacks",
        "compiled.fallback_evals",
    ] {
        assert!(
            snap.counter(name).is_some(),
            "counter {name} not registered by a time-warp run"
        );
    }
}
