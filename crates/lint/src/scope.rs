//! Rule scoping: which invariant applies to which file, and which line
//! ranges inside a file are test code (exempt from serving-path rules).

use crate::lexer::{Tok, TokKind};
use std::path::Path;

/// Serving-path modules that must be panic-free (workspace-relative).
pub const PANIC_SCOPE: &[&str] = &[
    "crates/platform/src/service.rs",
    "crates/platform/src/registry.rs",
    "crates/platform/src/supervisor.rs",
    "crates/platform/src/admission.rs",
    "crates/platform/src/store.rs",
    "crates/platform/src/rollout.rs",
    "crates/core/src/backend.rs",
    "crates/core/src/ranking.rs",
    "crates/core/src/instrument.rs",
    "crates/cli/src/commands.rs",
    "crates/server/src/json.rs",
    "crates/server/src/http.rs",
    "crates/server/src/api.rs",
    "crates/server/src/router.rs",
    "crates/server/src/server.rs",
];

/// Crates whose scoring/training/persistence code must not use hashed
/// collections (iteration order would leak into results). The CLI and the
/// bench/example crates are deliberately out: argument tables and bench
/// plumbing are not on any determinism-sensitive path, and the lint crate
/// itself is the checker.
pub const HASH_SCOPE_CRATES: &[&str] = &[
    "bayes", "core", "eval", "forest", "nn", "obs", "platform", "rng", "server", "sim",
];

/// True when the panic rule applies to `rel` (workspace-relative path,
/// `/`-separated).
pub fn in_panic_scope(rel: &str) -> bool {
    PANIC_SCOPE.contains(&rel)
}

/// True when the hash-determinism rule applies to `rel`.
pub fn in_hash_scope(rel: &str) -> bool {
    HASH_SCOPE_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// True when the metrics-name scan applies to `rel`: every crate source
/// except the checker itself (whose own strings mention metric patterns).
pub fn in_metrics_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && !rel.starts_with("crates/lint/")
}

/// Normalise a path to a `/`-separated workspace-relative string.
pub fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Inclusive line ranges covered by `#[cfg(test)]`-gated items (typically
/// `mod tests { … }` blocks). Rules skip violations inside these ranges:
/// tests may unwrap and hash freely.
pub fn test_ranges(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = match_cfg_test_attr(tokens, i) {
            // Skip any further attributes stacked on the same item.
            let mut j = after_attr;
            while let Some(next) = match_any_attr(tokens, j) {
                j = next;
            }
            let start_line = tokens[i].line;
            if let Some(end) = item_end(tokens, j) {
                let end_line = tokens[end.saturating_sub(1)].line.max(start_line);
                ranges.push((start_line, end_line));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// True when `line` falls in any of `ranges`.
pub fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(s, e)| line >= s && line <= e)
}

/// Match `#[cfg(…)]` at `i` where the parenthesised list mentions `test`.
/// Returns the index just past the closing `]`.
fn match_cfg_test_attr(tokens: &[Tok], i: usize) -> Option<usize> {
    if !is_punct(tokens, i, "#") || !is_punct(tokens, i + 1, "[") {
        return None;
    }
    if !is_ident(tokens, i + 2, "cfg") || !is_punct(tokens, i + 3, "(") {
        return None;
    }
    let mut depth = 1usize;
    let mut saw_test = false;
    let mut j = i + 4;
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") => depth += 1,
            (TokKind::Punct, ")") => depth -= 1,
            (TokKind::Ident, "test") => saw_test = true,
            _ => {}
        }
        j += 1;
    }
    if !saw_test || !is_punct(tokens, j, "]") {
        return None;
    }
    Some(j + 1)
}

/// Match any attribute `#[…]` at `i`; returns the index just past `]`.
fn match_any_attr(tokens: &[Tok], i: usize) -> Option<usize> {
    if !is_punct(tokens, i, "#") || !is_punct(tokens, i + 1, "[") {
        return None;
    }
    let mut depth = 1usize;
    let mut j = i + 2;
    while j < tokens.len() && depth > 0 {
        match (tokens[j].kind, tokens[j].text.as_str()) {
            (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, "]") => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    (depth == 0).then_some(j)
}

/// Find the end of the item starting at `i`: the index just past the
/// matching close brace of its first `{`, or just past the first `;` when
/// the item has no body (e.g. a gated `use`).
fn item_end(tokens: &[Tok], i: usize) -> Option<usize> {
    let mut j = i;
    while j < tokens.len() {
        match (tokens[j].kind, tokens[j].text.as_str()) {
            (TokKind::Punct, ";") => return Some(j + 1),
            (TokKind::Punct, "{") => {
                let mut depth = 1usize;
                let mut k = j + 1;
                while k < tokens.len() && depth > 0 {
                    match (tokens[k].kind, tokens[k].text.as_str()) {
                        (TokKind::Punct, "{") => depth += 1,
                        (TokKind::Punct, "}") => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                return (depth == 0).then_some(k);
            }
            _ => j += 1,
        }
    }
    None
}

fn is_punct(tokens: &[Tok], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

fn is_ident(tokens: &[Tok], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn panic_scope_is_exact_files() {
        assert!(in_panic_scope("crates/core/src/backend.rs"));
        assert!(in_panic_scope("crates/server/src/server.rs"));
        assert!(in_panic_scope("crates/server/src/json.rs"));
        assert!(in_panic_scope("crates/platform/src/store.rs"));
        assert!(in_panic_scope("crates/platform/src/rollout.rs"));
        assert!(!in_panic_scope("crates/platform/src/chaos.rs"));
        assert!(!in_panic_scope("crates/core/src/model.rs"));
        assert!(!in_panic_scope("crates/bench/src/bin/scale.rs"));
        assert!(!in_panic_scope("crates/cli/src/serve.rs"));
    }

    #[test]
    fn hash_scope_excludes_cli_bench_lint() {
        assert!(in_hash_scope("crates/core/src/aggregate.rs"));
        assert!(in_hash_scope("crates/obs/src/registry.rs"));
        assert!(in_hash_scope("crates/server/src/api.rs"));
        assert!(!in_hash_scope("crates/cli/src/args.rs"));
        assert!(!in_hash_scope("crates/bench/src/harness.rs"));
        assert!(!in_hash_scope("crates/bench/src/lib.rs"));
        assert!(!in_hash_scope("crates/lint/src/lexer.rs"));
        assert!(!in_hash_scope("crates/examples-crate/src/lib.rs"));
    }

    #[test]
    fn cfg_test_mod_ranges_cover_the_block() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { v.unwrap(); }\n}\nfn after() {}\n";
        let lexed = lex(src);
        let ranges = test_ranges(&lexed.tokens);
        assert_eq!(ranges.len(), 1);
        assert!(in_ranges(&ranges, 2));
        assert!(in_ranges(&ranges, 4));
        assert!(!in_ranges(&ranges, 1));
        assert!(!in_ranges(&ranges, 6));
    }

    #[test]
    fn cfg_all_test_feature_counts_as_test() {
        let src = "#[cfg(all(test, feature = \"enabled\"))]\nmod tests { fn t() {} }\n";
        let lexed = lex(src);
        let ranges = test_ranges(&lexed.tokens);
        assert_eq!(ranges.len(), 1);
    }

    #[test]
    fn cfg_feature_alone_is_not_test() {
        let src = "#[cfg(feature = \"enabled\")]\nmod real { fn f() {} }\n";
        let lexed = lex(src);
        assert!(test_ranges(&lexed.tokens).is_empty());
    }

    #[test]
    fn gated_use_statement_covers_one_line() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let lexed = lex(src);
        let ranges = test_ranges(&lexed.tokens);
        assert_eq!(ranges.len(), 1);
        assert!(in_ranges(&ranges, 2));
        assert!(!in_ranges(&ranges, 3));
    }

    #[test]
    fn stacked_attributes_before_mod_are_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\nfn live() {}\n";
        let lexed = lex(src);
        let ranges = test_ranges(&lexed.tokens);
        assert_eq!(ranges.len(), 1);
        assert!(in_ranges(&ranges, 3));
        assert!(!in_ranges(&ranges, 4));
    }
}
