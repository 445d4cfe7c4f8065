//! Docs-freshness check: every CLI invocation the guides show must name a
//! subcommand the parser knows, and every experiment binary they tell the
//! reader to run must exist. A subcommand or binary removed from the code
//! without a docs update fails CI here.

use diagnet_cli::args;
use std::path::{Path, PathBuf};

/// Documents with runnable command lines, relative to the workspace root.
const DOCS: &[&str] = &[
    "README.md",
    "SERVING.md",
    "EXPERIMENTS.md",
    "OBSERVABILITY.md",
    "DESIGN.md",
    "crates/cli/src/lib.rs",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{} must exist: {e}", path.display()))
}

/// The lines inside ``` fences, of a guide or of a `//!` header.
fn fenced_lines(text: &str) -> Vec<&str> {
    let mut inside = false;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.strip_prefix("//!").unwrap_or(line);
        if line.trim_start().starts_with("```") {
            inside = !inside;
        } else if inside {
            out.push(line);
        }
    }
    out
}

/// The subcommand a fenced line invokes: `diagnet <word>` at the start of
/// the line (after an optional `$` prompt), or `diagnet-cli -- <word>`
/// anywhere in it.
fn invoked_subcommand(line: &str) -> Option<&str> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let command = match words.as_slice() {
        ["$", rest @ ..] => rest,
        all => all,
    };
    if let ["diagnet", word, ..] = command {
        return Some(word);
    }
    words
        .windows(3)
        .find(|w| w[0].ends_with("diagnet-cli") && w[1] == "--")
        .map(|w| w[2])
}

/// Every `--bin <name>` in the text; the experiment harness is the only
/// package the guides select binaries from.
fn named_binaries(text: &str) -> Vec<&str> {
    let words: Vec<&str> = text.split_whitespace().collect();
    words
        .windows(2)
        .filter(|w| w[0].ends_with("--bin"))
        .map(|w| w[1].trim_end_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_'))
        .collect()
}

#[test]
fn documented_subcommands_parse() {
    let mut seen = 0;
    for name in DOCS {
        for line in fenced_lines(&read(name)) {
            let Some(word) = invoked_subcommand(line) else {
                continue;
            };
            seen += 1;
            assert!(
                args::parse(&[word.to_string()]).is_ok(),
                "{name} shows `{}`, but `{word}` is not a diagnet subcommand",
                line.trim()
            );
        }
    }
    assert!(
        seen >= 10,
        "only {seen} command lines found: extraction broke"
    );
}

#[test]
fn documented_experiment_binaries_exist() {
    let bins = workspace_root().join("crates/bench/src/bin");
    let mut seen = 0;
    for name in DOCS {
        for bin in named_binaries(&read(name)) {
            seen += 1;
            assert!(
                bins.join(format!("{bin}.rs")).is_file(),
                "{name} says `--bin {bin}`, but crates/bench/src/bin/{bin}.rs does not exist"
            );
        }
    }
    assert!(
        seen >= 10,
        "only {seen} `--bin` mentions found: extraction broke"
    );
}

#[test]
fn extraction_reads_the_forms_the_guides_use() {
    for (line, word) in [
        ("diagnet serve --addr 127.0.0.1:8080", Some("serve")),
        ("$ diagnet metrics --in m.prom", Some("metrics")),
        (
            "cargo run --release -p diagnet-cli -- train --data d.json",
            Some("train"),
        ),
        ("./target/release/diagnet-cli -- help", Some("help")),
        ("  core/    diagnet         the DiagNet pipeline", None),
        ("cargo build --release -p diagnet-cli", None),
    ] {
        assert_eq!(invoked_subcommand(line), word, "{line}");
    }
    assert_eq!(
        fenced_lines("a\n```sh\nb\n```\nc\n//! ```text\n//! d\n//! ```\n"),
        ["b", " d"]
    );
    assert_eq!(
        named_binaries("run `--bin fig5`, then (`--bin all`) or\n--bin scale."),
        ["fig5", "all", "scale"]
    );
}
