//! The prose docs name only what the tree has.
//!
//! Every backticked repo path in README.md, docs/ARCHITECTURE.md,
//! docs/LINTS.md and every `SKILL.md` in the tree (the build-and-verify
//! notes) must resolve:
//!
//! * a path whose first component is a top-level entry of the repo
//!   (`crates/tensor/src/matmul.rs`, `benchmark/`) must exist, as a file
//!   or a directory; one under a directory the build writes and
//!   `.gitignore` lists (`bench_results/`) resolves to that entry;
//! * a partial path with a file extension (`coordinator/mod.rs`) must
//!   end some path in the tree;
//! * a bare file name (`conv_contract.rs`, `lint.toml`) must be the
//!   name of some file in the tree.
//!
//! A trailing `:line` or `:first-last` is dropped first. Fenced code
//! blocks, tokens with spaces, placeholders (`BENCH_<pr>.json`,
//! `trace_*.json`), Rust paths (`a::b`) and absolute paths are not
//! repo paths.
//!
//! Every `FT_*` variable the same docs name, in prose or in a code
//! block, must be one `ft_harness::runner::ENV_VARS` lists, and
//! README's environment table must list exactly those.
//!
//! Every backticked Rust path outside a fenced block (`sink::Cursor`,
//! `Coordinator::train()`, `DeliveryOrder::{Fifo, Lifo}`) must resolve:
//! each segment after the first must be defined in the tree (an item,
//! a field or an enum variant) in a file that houses the segment before
//! it: a file of that name or directory, a file of that crate, or one
//! that defines or implements it. Paths into `std`, primitive types and
//! the methods `clippy.toml` bans are not the tree's.
//!
//! On a line, anything after a `deleted:` marker is history and exempt:
//! that is how a Verdict cites code or a variable that is gone.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// The docs this test reads by path, relative to the repo root; every
/// file named [`NOTES`] is read too.
const DOCS: [&str; 3] = ["README.md", "docs/ARCHITECTURE.md", "docs/LINTS.md"];

/// The file name of the build-and-verify notes.
const NOTES: &str = "SKILL.md";

/// File extensions that make a token a path even without a slash.
const EXTENSIONS: [&str; 9] = [
    ".rs", ".md", ".json", ".toml", ".yml", ".yaml", ".lock", ".sh", ".txt",
];

/// Every file and directory under the repo root, as `/`-separated
/// relative paths, skipping build output and version control.
fn tree(root: &Path) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("a readable directory") {
            let path = entry.expect("a readable entry").path();
            let name = entry_name(&path);
            if ["target", ".git", "bench_results", ".bench_build"].contains(&name.as_str()) {
                continue;
            }
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            if path.is_dir() {
                stack.push(path.clone());
            }
            out.insert(rel);
        }
    }
    out
}

fn entry_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// `line` up to its `deleted:` marker, if it has one.
fn live(line: &str) -> &str {
    match line.to_ascii_lowercase().find("deleted:") {
        Some(at) => &line[..at],
        None => line,
    }
}

/// The `FT_*` variable names on `line` (not `FT_*` itself), up to its
/// `deleted:` marker.
fn env_names(line: &str) -> Vec<&str> {
    let live = live(line);
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    live.match_indices("FT_")
        .filter(|&(at, _)| !live[..at].ends_with(word))
        .map(|(at, _)| {
            let rest = &live[at..];
            let end = rest.find(|c: char| !word(c)).unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| name.len() > "FT_".len())
        .collect()
}

/// The backticked tokens of `line` that name repo paths, with any
/// `:line` suffix dropped.
fn paths(line: &str) -> Vec<String> {
    let live = live(line);
    let mut out = Vec::new();
    for (i, token) in live.split('`').enumerate() {
        // Odd pieces sit between a pair of backticks.
        if i % 2 == 0 || token.is_empty() {
            continue;
        }
        let token = match token.rsplit_once(':') {
            Some((head, tail))
                if !tail.is_empty() && tail.chars().all(|c| c.is_ascii_digit() || c == '-') =>
            {
                head
            }
            _ => token,
        };
        let plain = token
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_-./".contains(c));
        if !plain || token.starts_with('/') || token.starts_with('-') {
            continue;
        }
        if token.contains('/') || EXTENSIONS.iter().any(|e| token.ends_with(e)) {
            out.push(token.to_owned());
        }
    }
    out
}

/// Why `path` does not resolve in `tree`, or `None` when it does.
fn unresolved(path: &str, tree: &BTreeSet<String>, ignored: &[String]) -> Option<&'static str> {
    let path = path.trim_end_matches('/');
    let first = path.split('/').next().unwrap_or(path);
    let top_level = tree.contains(first) || ignored.iter().any(|g| g == first);
    if top_level {
        let ok = tree.contains(path) || ignored.iter().any(|g| g == first);
        return (!ok).then_some("no such file or directory");
    }
    if path.contains('/') {
        if !EXTENSIONS.iter().any(|e| path.ends_with(e)) {
            // `add/sub/mul_assign`, `tiled/64`: not a path.
            return None;
        }
        let suffix = format!("/{path}");
        let ok = tree.iter().any(|p| p.ends_with(&suffix));
        return (!ok).then_some("no path in the tree ends with it");
    }
    let suffix = format!("/{path}");
    let ok = tree.iter().any(|p| p == path || p.ends_with(&suffix));
    (!ok).then_some("no file in the tree has this name")
}

/// The docs to check, relative to `root`: [`DOCS`] and every [`NOTES`].
fn docs(root: &Path, tree: &BTreeSet<String>) -> Vec<String> {
    let notes = tree.iter().filter(|p| p.rsplit('/').next() == Some(NOTES));
    let docs: Vec<String> = DOCS
        .map(str::to_owned)
        .into_iter()
        .chain(notes.cloned())
        .collect();
    assert!(docs.len() > DOCS.len(), "no {NOTES} found under {root:?}");
    docs
}

/// The names `ft_harness::runner::ENV_VARS` lists.
fn known_env() -> BTreeSet<&'static str> {
    ft_harness::runner::ENV_VARS
        .iter()
        .map(|(name, ..)| *name)
        .collect()
}

#[test]
fn every_ft_variable_in_the_docs_is_one_the_program_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let known = known_env();
    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in docs(root, &tree(root)) {
        let text = fs::read_to_string(root.join(&doc)).expect("the doc exists");
        for (n, line) in text.lines().enumerate() {
            for name in env_names(line) {
                checked += 1;
                if !known.contains(name) {
                    stale.push(format!("{doc}:{}: {name}", n + 1));
                }
            }
        }
    }
    assert!(
        checked > 20,
        "only {checked} names found: the scan is broken"
    );
    assert!(
        stale.is_empty(),
        "{} doc lines name a variable `runner::ENV_VARS` does not list \
         (fix them, or mark history with `deleted:`):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

#[test]
fn the_readme_environment_table_lists_exactly_the_variables_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Environment variables"))
        .expect("README has an `## Environment variables` section");
    let listed: BTreeSet<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .filter(|name| name.starts_with("FT_"))
        .collect();
    assert_eq!(listed, known_env());
}

#[test]
fn every_backticked_repo_path_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tree = tree(root);
    // Top-level directories the build writes, as `.gitignore` lists them.
    let gitignore = fs::read_to_string(root.join(".gitignore")).expect(".gitignore");
    let ignored: Vec<String> = gitignore
        .lines()
        .map(|l| l.trim().trim_start_matches('/').trim_end_matches('/'))
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.contains(['*', '/']))
        .map(str::to_owned)
        .collect();
    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in docs(root, &tree) {
        let text = fs::read_to_string(root.join(&doc)).expect("the doc exists");
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            for path in paths(line) {
                checked += 1;
                if let Some(why) = unresolved(&path, &tree, &ignored) {
                    stale.push(format!("{doc}:{}: `{path}`: {why}", n + 1));
                }
            }
        }
    }
    assert!(
        checked > 100,
        "only {checked} paths found: the scan is broken"
    );
    assert!(
        stale.is_empty(),
        "{} doc paths do not resolve (fix them, or mark history with `deleted:`):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

#[test]
fn the_scan_finds_paths_and_honours_the_deleted_marker() {
    assert_eq!(
        paths("see `crates/nn/src/linear.rs:180` and `lint.toml`, not `a::b` or `x y`"),
        ["crates/nn/src/linear.rs", "lint.toml"]
    );
    assert_eq!(
        paths("`BENCH_<pr>.json` `trace_*.json` `/tmp/x.rs`"),
        Vec::<String>::new()
    );
    assert_eq!(
        paths("`benchmark/` is live; deleted: `crates/lint`"),
        ["benchmark/"]
    );
    let tree: BTreeSet<String> = ["crates", "crates/a", "crates/a/mod.rs"]
        .map(str::to_owned)
        .into();
    let none: &[String] = &[];
    assert_eq!(unresolved("crates/a/mod.rs", &tree, none), None);
    assert_eq!(unresolved("a/mod.rs", &tree, none), None);
    assert_eq!(unresolved("mod.rs", &tree, none), None);
    assert_eq!(unresolved("tiled/64", &tree, none), None);
    assert!(unresolved("crates/b", &tree, none).is_some());
    assert!(unresolved("lint.toml", &tree, none).is_some());
    assert!(unresolved("b/mod.rs", &tree, none).is_some());
    assert_eq!(
        env_names("`FT_TENSOR_SIMD=0`, FT_CLIENT_THREADS; not `FT_*`, XFT_A; deleted: FT_GONE"),
        ["FT_TENSOR_SIMD", "FT_CLIENT_THREADS"]
    );
}

/// First segments of paths outside the tree: the standard library's
/// crates, primitive types and prelude types.
const EXTERNAL: [&str; 22] = [
    "std", "core", "alloc", "bool", "char", "str", "f32", "f64", "i8", "i16", "i32", "i64",
    "isize", "u8", "u16", "u32", "u64", "usize", "Option", "Result", "Vec", "Box",
];

/// Keywords whose next identifier is a definition.
const DEFINING: [&str; 10] = [
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "union",
    "macro_rules!",
];

/// The Rust paths backticked on `line` up to its `deleted:` marker, as
/// segment lists: a call's arguments and generic parameters are
/// dropped, and one `{a, b}` group expands to a path per name.
fn rust_paths(line: &str) -> Vec<Vec<String>> {
    let ident = |s: &str| {
        s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_alphanumeric() || c == '_')
    };
    let mut out = Vec::new();
    for (i, token) in live(line).split('`').enumerate() {
        if i % 2 == 0 || !token.contains("::") {
            continue;
        }
        let mut token = token;
        if let Some(at) = token.find("::<").or_else(|| token.find('<')) {
            token = &token[..at];
        }
        if token.ends_with(')') {
            token = &token[..token.find('(').unwrap_or(token.len())];
        }
        let expanded: Vec<String> = match (token.find("::{"), token.find('}')) {
            (Some(open), Some(close)) if open < close => token[open + 3..close]
                .split(',')
                .map(|name| format!("{}::{}{}", &token[..open], name.trim(), &token[close + 1..]))
                .collect(),
            _ => vec![token.to_owned()],
        };
        for path in expanded {
            let segments: Vec<String> = path.split("::").map(str::to_owned).collect();
            if segments.len() > 1 && segments.iter().all(|s| ident(s)) {
                out.push(segments);
            }
        }
    }
    out
}

/// One source file's definitions, as [`resolves`] reads them.
#[derive(Default)]
struct Source {
    /// File stem and directory names on its path.
    places: BTreeSet<String>,
    /// The crate it belongs to, if any.
    krate: Option<String>,
    /// Items, fields and variants it defines.
    defines: BTreeSet<String>,
    /// Every identifier on its `impl` lines.
    implements: BTreeSet<String>,
}

/// The identifiers of `text`, in order.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '!'))
        .filter(|w| !w.is_empty())
}

fn source(rel: &str, text: &str, krate: Option<String>) -> Source {
    let mut src = Source {
        krate,
        ..Source::default()
    };
    let stem = rel.trim_end_matches(".rs");
    src.places.extend(stem.split('/').map(str::to_owned));
    for line in text.lines() {
        let code = line.trim_start();
        if code.starts_with("//") {
            continue;
        }
        let words: Vec<&str> = identifiers(code).collect();
        for pair in words.windows(2) {
            if DEFINING.contains(&pair[0]) {
                src.defines.insert(pair[1].to_owned());
            }
        }
        if words.contains(&"impl") {
            src.implements.extend(words.iter().map(|w| (*w).to_owned()));
        }
        // A field (`name: T`) or an enum variant (`Name`, `Name(..)`,
        // `Name { .. }`, `Name = 3`) opening its line.
        let head = code
            .strip_prefix("pub(crate) ")
            .or_else(|| code.strip_prefix("pub "))
            .unwrap_or(code);
        if let Some(first) = identifiers(head).next() {
            let rest = head[first.len()..].trim_start();
            let field = rest.starts_with(':') && !rest.starts_with("::");
            let variant = first.starts_with(char::is_uppercase)
                && (rest.is_empty() || rest.starts_with([',', '(', '{', '=']));
            if head.starts_with(first) && (field || variant) {
                src.defines.insert(first.to_owned());
            }
        }
    }
    src
}

/// Every `.rs` file in `tree`, keyed by path, with the crate whose
/// `Cargo.toml` sits above it.
fn sources(root: &Path, tree: &BTreeSet<String>) -> BTreeMap<String, Source> {
    let mut crates: Vec<(String, String)> = Vec::new();
    for manifest in tree
        .iter()
        .filter(|p| entry_name(Path::new(p)) == "Cargo.toml")
    {
        let dir = manifest.trim_end_matches("Cargo.toml").to_owned();
        let text = fs::read_to_string(root.join(manifest)).expect("a readable manifest");
        // The package's name: the first `name` in the manifest.
        let name = text
            .lines()
            .find_map(|line| line.trim().strip_prefix("name = \""));
        if let Some(name) = name {
            crates.push((dir, name.trim_end_matches('"').replace('-', "_")));
        }
    }
    tree.iter()
        .filter(|p| p.ends_with(".rs"))
        .map(|rel| {
            let text = fs::read_to_string(root.join(rel)).expect("a readable source");
            let krate = crates
                .iter()
                .filter(|(dir, _)| rel.starts_with(dir.as_str()))
                .max_by_key(|(dir, _)| dir.len())
                .map(|(_, name)| name.clone());
            (rel.clone(), source(rel, &text, krate))
        })
        .collect()
}

/// Whether `path` resolves in `sources`; `banned` are the paths
/// `clippy.toml` lists.
fn resolves(path: &[String], sources: &BTreeMap<String, Source>, banned: &[String]) -> bool {
    let joined = path.join("::");
    if EXTERNAL.contains(&path[0].as_str())
        || banned
            .iter()
            .any(|b| b == &joined || b.ends_with(&format!("::{joined}")))
    {
        return true;
    }
    path.windows(2).all(|pair| {
        let (parent, child) = (&pair[0], &pair[1]);
        sources.values().any(|src| {
            src.defines.contains(child)
                && (src.places.contains(parent)
                    || src.krate.as_ref() == Some(parent)
                    || src.defines.contains(parent)
                    || src.implements.contains(parent))
        })
    })
}

/// The `path = "…"` entries of `clippy.toml`.
fn banned(root: &Path) -> Vec<String> {
    let text = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    text.split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_backticked_rust_path_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tree = tree(root);
    let sources = sources(root, &tree);
    let banned = banned(root);
    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in docs(root, &tree) {
        let text = fs::read_to_string(root.join(&doc)).expect("the doc exists");
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            for path in rust_paths(line) {
                checked += 1;
                if !resolves(&path, &sources, &banned) {
                    stale.push(format!("{doc}:{}: `{}`", n + 1, path.join("::")));
                }
            }
        }
    }
    assert!(
        checked > 150,
        "only {checked} Rust paths found: the scan is broken"
    );
    assert!(
        stale.is_empty(),
        "{} doc names are defined nowhere in the tree (fix them, or mark \
         history with `deleted:`):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

#[test]
fn the_rust_path_scan_expands_groups_and_resolves_by_housing() {
    let paths =
        |line| -> Vec<String> { rust_paths(line).into_iter().map(|p| p.join("::")).collect() };
    assert_eq!(
        paths("`a::b(x, y)` `C::<T>::d` `E::{F, G}` `#[expect(clippy::x)]` `h::i` deleted: `j::k`"),
        ["a::b", "E::F", "E::G", "h::i"]
    );
    assert_eq!(
        paths("`R<M: T>::x` `[T; N]::map` `a::*_b` `x y::z`"),
        Vec::<String>::new()
    );
    let text = "pub struct Cursor {\n    pub next: usize,\n}\nimpl Drop for Cursor {\n    fn drop(&mut self) {}\n}\npub enum Half {\n    Train,\n    Test(u8),\n}";
    let sources: BTreeMap<String, Source> = [(
        "crates/fedsim/src/sink.rs".to_owned(),
        source(
            "crates/fedsim/src/sink.rs",
            text,
            Some("ft_fedsim".to_owned()),
        ),
    )]
    .into();
    let banned = ["std::thread::spawn".to_owned()];
    let ok = |p: &str| {
        let path: Vec<String> = p.split("::").map(str::to_owned).collect();
        resolves(&path, &sources, &banned)
    };
    for live in [
        "sink::Cursor",
        "ft_fedsim::Half",
        "Cursor::next",
        "Cursor::drop",
        "Half::Test",
        "ft_fedsim::Cursor",
        "thread::spawn",
        "std::mem::take",
        "usize::MAX",
    ] {
        assert!(ok(live), "{live}");
    }
    for stale in [
        "sink::Patches",
        "Cursor::advance",
        "exec::Cursor",
        "Half::Valid",
        "thread::scope",
    ] {
        assert!(!ok(stale), "{stale}");
    }
}
