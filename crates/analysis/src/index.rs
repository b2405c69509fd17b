//! Workspace symbol index: every parsed item, addressable by name.
//!
//! The index is the bridge between per-file parsing ([`crate::items`])
//! and workspace queries ([`crate::callgraph`], the cross-file rules).
//! Function symbols get stable integer ids (assignment order: files
//! sorted by path, items in source order) so the call graph can use
//! dense adjacency vectors.

use crate::items::{parse_items, Item, ItemKind};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Dense id of one function symbol in a [`SymbolIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(pub u32);

/// One indexed function.
#[derive(Debug, Clone)]
pub struct FnSymbol {
    /// Dense id (index into [`SymbolIndex::fns`]).
    pub id: FnId,
    /// Function name (unqualified).
    pub name: String,
    /// Implemented type when the fn is an `impl` method.
    pub owner: Option<String>,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Crate the file belongs to (see [`SourceFile::crate_name`]).
    pub crate_name: String,
    /// 1-based declaration line.
    pub start_line: usize,
    /// 1-based body-close line.
    pub end_line: usize,
    /// Whether the definition sits in test code (`#[cfg(test)]` span,
    /// `tests/`, or `benches/`).
    pub in_test_code: bool,
}

/// The workspace-wide item index.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// Every function, in id order.
    pub fns: Vec<FnSymbol>,
    /// Name → ids of all functions with that name (trait dispatch is
    /// not resolved, so a call by name maps to every candidate).
    by_name: BTreeMap<String, Vec<FnId>>,
    /// Non-fn items per file, for rules that care about `use`/`mod`
    /// structure.
    pub other_items: BTreeMap<String, Vec<Item>>,
}

impl SymbolIndex {
    /// Builds the index over `files` (each already masked and parsed on
    /// demand). Files should be supplied in deterministic (path) order;
    /// ids follow supply order.
    #[must_use]
    pub fn build(files: &[SourceFile]) -> Self {
        let mut index = SymbolIndex::default();
        for file in files {
            let items = parse_items(file);
            let mut others = Vec::new();
            for item in items {
                match item.kind {
                    ItemKind::Fn => {
                        let id = FnId(u32::try_from(index.fns.len()).unwrap_or(u32::MAX));
                        index.by_name.entry(item.name.clone()).or_default().push(id);
                        index.fns.push(FnSymbol {
                            id,
                            name: item.name,
                            owner: item.owner,
                            path: file.path.clone(),
                            crate_name: file.crate_name.clone(),
                            start_line: item.start_line,
                            end_line: item.end_line,
                            in_test_code: file.is_test_code(item.start_line),
                        });
                    }
                    _ => others.push(item),
                }
            }
            if !others.is_empty() {
                index.other_items.insert(file.path.clone(), others);
            }
        }
        index
    }

    /// All functions named `name`, across the whole workspace.
    #[must_use]
    pub fn fns_named(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The symbol for an id.
    #[must_use]
    pub fn symbol(&self, id: FnId) -> &FnSymbol {
        &self.fns[id.0 as usize]
    }

    /// The innermost function containing `line` of `path`, if any.
    /// Innermost = the matching span with the latest start line.
    #[must_use]
    pub fn enclosing_fn(&self, path: &str, line: usize) -> Option<FnId> {
        self.fns
            .iter()
            .filter(|f| f.path == path && f.start_line <= line && line <= f.end_line)
            .max_by_key(|f| f.start_line)
            .map(|f| f.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_resolves_names_across_files() {
        let files = vec![
            SourceFile::new(
                "crates/a/src/lib.rs",
                "pub fn shared() {}\npub fn only_a() {}\n",
            ),
            SourceFile::new("crates/b/src/lib.rs", "pub fn shared() {}\n"),
        ];
        let index = SymbolIndex::build(&files);
        assert_eq!(index.fns_named("shared").len(), 2);
        assert_eq!(index.fns_named("only_a").len(), 1);
        assert!(index.fns_named("absent").is_empty());
        let sym = index.symbol(index.fns_named("only_a")[0]);
        assert_eq!(sym.crate_name, "a");
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let files = vec![SourceFile::new(
            "crates/a/src/lib.rs",
            "fn outer() {\n    fn inner() {\n        x();\n    }\n    y();\n}\n",
        )];
        let index = SymbolIndex::build(&files);
        let inner = index.enclosing_fn("crates/a/src/lib.rs", 3).expect("in fn");
        assert_eq!(index.symbol(inner).name, "inner");
        let outer = index.enclosing_fn("crates/a/src/lib.rs", 5).expect("in fn");
        assert_eq!(index.symbol(outer).name, "outer");
        assert!(index.enclosing_fn("crates/a/src/lib.rs", 99).is_none());
    }

    #[test]
    fn test_code_definitions_are_marked() {
        let files = vec![SourceFile::new(
            "crates/a/src/lib.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        )];
        let index = SymbolIndex::build(&files);
        assert!(!index.symbol(index.fns_named("real")[0]).in_test_code);
        assert!(index.symbol(index.fns_named("helper")[0]).in_test_code);
    }
}
