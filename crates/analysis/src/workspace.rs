//! The workspace model cross-file rules run against: every source file,
//! the symbol index over them, and the call graph.
//!
//! Per-file rules ([`crate::rules::Rule`]) see one file at a time and
//! cannot notice a duplicate seed label two crates away or a
//! transcendental hiding one call below a hot entry point. Workspace
//! rules get the whole picture.

use crate::callgraph::CallGraph;
use crate::findings::Finding;
use crate::index::SymbolIndex;
use crate::rules::RuleMeta;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Every loaded file plus the derived whole-workspace structures.
pub struct Workspace {
    /// All scanned files, in deterministic (path) order.
    pub files: Vec<SourceFile>,
    /// Function symbols across all files.
    pub index: SymbolIndex,
    /// Name-resolved call graph over [`Workspace::index`].
    pub graph: CallGraph,
    /// Path → position in [`Workspace::files`].
    by_path: BTreeMap<String, usize>,
}

impl Workspace {
    /// Builds the index and call graph over `files`.
    #[must_use]
    pub fn build(files: Vec<SourceFile>) -> Self {
        let index = SymbolIndex::build(&files);
        let graph = CallGraph::build(&files, &index);
        let by_path = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.path.clone(), i))
            .collect();
        Workspace {
            files,
            index,
            graph,
            by_path,
        }
    }

    /// The file at `path`, if it was scanned.
    #[must_use]
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.by_path.get(path).map(|&i| &self.files[i])
    }
}

/// A cross-file rule: runs once over the whole [`Workspace`].
pub trait WorkspaceRule: Sync {
    /// The rule's metadata. Its id is shared with no other rule, per-file
    /// or workspace.
    fn meta(&self) -> RuleMeta;

    /// Appends findings to `out`. As with per-file rules, suppression
    /// is applied centrally by the runner.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Pushes a workspace-rule finding, resolving snippet text through the
/// owning file.
pub(crate) fn emit_ws(
    ws: &Workspace,
    meta: RuleMeta,
    path: &str,
    line: usize,
    column: usize,
    message: String,
    out: &mut Vec<Finding>,
) {
    let snippet = ws.file(path).map(|f| f.snippet(line)).unwrap_or_default();
    out.push(Finding {
        rule: meta.id,
        severity: meta.severity,
        path: path.to_string(),
        line,
        column,
        message,
        snippet,
    });
}

/// Extracts the string literals appearing inside the parenthesized
/// argument list opening at (`line`, `open_col`), both 1-based,
/// `open_col` pointing at the `(`. Walks masked text for structure
/// (parens and quotes inside literals are blanked), reads literal
/// contents back out of the raw lines. Scans at most `MAX_ARG_LINES`
/// lines so a corrupt file cannot wedge the lint.
pub(crate) fn call_string_literals(file: &SourceFile, line: usize, open_col: usize) -> Vec<String> {
    const MAX_ARG_LINES: usize = 24;
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut li = line - 1;
    let mut ci = open_col - 1;
    let mut scanned = 0usize;
    while li < file.masked.len() && scanned <= MAX_ARG_LINES {
        let masked = file.masked[li].as_bytes();
        while ci < masked.len() {
            match masked[ci] {
                b'(' => depth += 1,
                b')' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return out;
                    }
                }
                b'"' => {
                    // Literal contents are blanked in masked text; the
                    // closing quote survives. Single-line literals only
                    // (labels and metric keys never span lines).
                    if let Some(len) = file.masked[li][ci + 1..].find('"') {
                        let raw = &file.lines[li];
                        if let Some(text) = raw.get(ci + 1..ci + 1 + len) {
                            out.push(text.to_string());
                        }
                        ci += len + 1;
                    }
                }
                _ => {}
            }
            ci += 1;
        }
        li += 1;
        ci = 0;
        scanned += 1;
    }
    out
}

/// The span of the brace block whose `{` is the first one at or after
/// (`line`, `col`) (1-based): returns `(open_line, close_line)`,
/// inclusive, by brace counting over masked text. `None` when no block
/// opens within `MAX_SEEK_LINES` or it never closes.
pub(crate) fn brace_block_span(
    file: &SourceFile,
    line: usize,
    col: usize,
) -> Option<(usize, usize)> {
    const MAX_SEEK_LINES: usize = 4;
    let mut li = line - 1;
    let mut ci = col - 1;
    let mut depth = 0usize;
    let mut open_line = None;
    let mut sought = 0usize;
    while li < file.masked.len() {
        let masked = file.masked[li].as_bytes();
        while ci < masked.len() {
            match masked[ci] {
                b'{' => {
                    depth += 1;
                    if open_line.is_none() {
                        open_line = Some(li + 1);
                    }
                }
                b'}' => {
                    if open_line.is_some() {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            return Some((open_line.expect("set above"), li + 1));
                        }
                    }
                }
                _ => {}
            }
            ci += 1;
        }
        if open_line.is_none() {
            sought += 1;
            if sought > MAX_SEEK_LINES {
                return None;
            }
        }
        li += 1;
        ci = 0;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_literals_cross_lines_and_skip_masked_parens() {
        let f = SourceFile::new(
            "crates/a/src/lib.rs",
            "key(\n    \"comp(x)\",\n    String::from(\"name\"),\n    core,\n);\n",
        );
        let col = f.masked[0].find('(').expect("open paren") + 1;
        let lits = call_string_literals(&f, 1, col);
        assert_eq!(lits, ["comp(x)", "name"]);
    }

    #[test]
    fn brace_block_span_matches_nesting() {
        let f = SourceFile::new(
            "crates/a/src/lib.rs",
            "s.spawn(move || {\n    if x {\n        y();\n    }\n});\nafter();\n",
        );
        assert_eq!(brace_block_span(&f, 1, 1), Some((1, 5)));
        assert_eq!(brace_block_span(&f, 6, 1), None, "no block after");
    }

    #[test]
    fn workspace_lookup_by_path() {
        let ws = Workspace::build(vec![
            SourceFile::new("crates/a/src/lib.rs", "pub fn a() {}\n"),
            SourceFile::new("crates/b/src/lib.rs", "pub fn b() {}\n"),
        ]);
        assert!(ws.file("crates/b/src/lib.rs").is_some());
        assert!(ws.file("crates/c/src/lib.rs").is_none());
        assert_eq!(ws.index.fns.len(), 2);
    }
}
