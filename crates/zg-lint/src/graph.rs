//! Phase 2 of the two-phase engine: link the per-file item models
//! ([`crate::model`]) into one workspace call graph.
//!
//! ## Name resolution
//!
//! Resolution is heuristic and *conservatively over-approximating*: when
//! a call target cannot be pinned down, the linker adds an edge to
//! **every** workspace function with that name, so reachability rules
//! can report false positives (handled via justifications and reviewed
//! `lint.toml` allows) but not silently miss a real path.
//!
//! * `Type::method(..)` — exact: methods of `Type`'s impl blocks
//!   (`Self` maps to the enclosing impl type). An unknown type is
//!   external: no edge.
//! * `module::func(..)` (lowercase qualifier) — free fns named `func`.
//! * `recv.chain.method(..)` — the receiver chain is resolved through
//!   local/parameter types and struct field types (`self.model.lm` →
//!   `Replica.model: ZiGongModel`, `ZiGongModel.lm: CausalLm`). A chain
//!   that resolves to a known workspace type links only that type's
//!   methods; a chain that resolves to a known *external* type (`Vec`,
//!   `Option`, ...) links nothing; an unresolvable chain links every
//!   method with that name (the trait-call over-approximation).
//! * `func(..)` — free fns named `func`; unknown names are external.
//! * a fn named as a value resolves like a call, and is dropped when it
//!   names no workspace fn. A path (`Hist::default_edges`) is exact; a
//!   bare name (`.map(helper)`) may be a local, so it is a loose edge.
//!
//! Test-scope functions are not nodes and never resolution candidates,
//! so a test helper sharing a hot-path method name cannot bend
//! reachability. Their calls, and calls outside any fn body, are kept
//! as [`Use`]s: the roots of R5.

use std::collections::BTreeMap;

use crate::model::{CallKind, CallSite, FileModel, FnItem};

/// Method names that collide with std primitive / iterator / slice
/// methods (`f64::clamp`, `Iterator::sum`, `[T]::len`, ...). An
/// *unresolvable* receiver calling one of these is treated as external
/// rather than over-approximated: linking every workspace method named
/// `sum` would wire every `xs.iter().sum()` into `Tensor::sum` and
/// drown the reachability rules in false paths. Distinctively-named
/// methods (`prefill`, `cross_entropy_logits`, ...) keep the
/// conservative link-to-all fallback.
const STD_METHOD_NAMES: [&str; 48] = [
    "abs", "ceil", "clamp", "clear", "clone", "collect", "contains", "count", "drain", "entry",
    "exp", "extend", "filter", "find", "first", "floor", "fold", "get", "insert", "is_empty",
    "iter", "join", "keys", "last", "len", "ln", "log10", "log2", "map", "max", "min", "next",
    "parse", "pop", "position", "powf", "powi", "product", "push", "recip", "remove", "retain",
    "round", "signum", "sqrt", "sum", "take", "values",
];

/// Common std/vendored receiver types treated as external: a chain that
/// resolves to one of these links no workspace edge even if a workspace
/// method shares the name.
const EXTERNAL_TYPES: [&str; 28] = [
    "Vec",
    "String",
    "str",
    "Option",
    "Result",
    "Box",
    "Rc",
    "Arc",
    "RefCell",
    "Cell",
    "BTreeMap",
    "BTreeSet",
    "VecDeque",
    "HashMap",
    "HashSet",
    "OnceLock",
    "Mutex",
    "RwLock",
    "Instant",
    "Duration",
    "SystemTime",
    "PathBuf",
    "Path",
    "File",
    "Sender",
    "Receiver",
    "JoinHandle",
    "StdRng",
];

/// One function node, flattened from [`FnItem`] with its file path.
#[derive(Debug, Clone)]
pub struct Node {
    /// Workspace-relative path.
    pub path: String,
    /// The parsed item.
    pub item: FnItem,
}

impl Node {
    /// `Type::name` / `name` — display and root-matching form.
    pub fn qname(&self) -> String {
        self.item.qualified_name()
    }
}

/// Workspace fns named by code that is not a node: a test-scope fn, or
/// the calls of one file made outside any fn body.
#[derive(Debug, Clone)]
pub struct Use {
    /// Workspace-relative path of the using code.
    pub path: String,
    /// The using code sits in test scope.
    pub in_test: bool,
    /// Every node it names, loose targets included; sorted.
    pub targets: Vec<usize>,
}

/// The linked workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Non-test functions, sorted by `(path, line)`.
    pub nodes: Vec<Node>,
    /// Forward adjacency (callee ids per node), sorted and deduped.
    pub edges: Vec<Vec<usize>>,
    /// Reverse adjacency (caller ids per node).
    pub redges: Vec<Vec<usize>>,
    /// Per node, the targets of its ambiguous uses: a method call on an
    /// unresolvable receiver whose name collides with a std method, and
    /// a bare identifier that names a free fn but may be a local. Only
    /// R5 follows them: liveness must not miss a use, while R1 and R2
    /// would drown in false paths.
    pub loose_edges: Vec<Vec<usize>>,
    /// Uses from test-scope fns and item-level calls, sorted by path.
    pub uses: Vec<Use>,
    /// Call sites that resolved to at least one workspace function.
    pub resolved_calls: usize,
    /// Call sites treated as external (no workspace target).
    pub external_calls: usize,
}

impl CallGraph {
    /// Link the item models of every scanned file.
    pub fn link(files: &[FileModel]) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        for f in files {
            for item in &f.fns {
                if item.in_test {
                    continue;
                }
                nodes.push(Node {
                    path: f.path.clone(),
                    item: item.clone(),
                });
            }
        }
        nodes.sort_by(|a, b| (&a.path, a.item.line).cmp(&(&b.path, b.item.line)));

        let index = Index::build(&nodes, files);
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        let mut loose_edges: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        let mut resolved_calls = 0usize;
        let mut external_calls = 0usize;
        for n in &nodes {
            let linked = index.link_item(&n.item);
            resolved_calls += linked.resolved;
            external_calls += linked.external;
            edges.push(linked.exact);
            loose_edges.push(linked.loose);
        }

        let mut uses: Vec<Use> = Vec::new();
        for f in files {
            let users = f.fns.iter().filter(|i| i.in_test).chain(&f.item_calls);
            for item in users {
                let linked = index.link_item(item);
                let mut targets = linked.exact;
                targets.extend(linked.loose);
                targets.sort_unstable();
                targets.dedup();
                uses.push(Use {
                    path: f.path.clone(),
                    in_test: item.in_test,
                    targets,
                });
            }
        }
        uses.sort_by(|a, b| a.path.cmp(&b.path));

        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (from, outs) in edges.iter().enumerate() {
            for &to in outs {
                redges[to].push(from);
            }
        }
        for r in &mut redges {
            r.sort_unstable();
            r.dedup();
        }

        CallGraph {
            nodes,
            edges,
            redges,
            loose_edges,
            uses,
            resolved_calls,
            external_calls,
        }
    }

    /// Total directed edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Node ids whose qualified name equals `qname` (`Type::method` or a
    /// free-fn name).
    pub fn find(&self, qname: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.qname() == qname)
            .map(|(id, _)| id)
            .collect()
    }

    /// Forward BFS from `roots`; returns the reachable set (including
    /// the roots), in ascending id order.
    pub fn reachable(&self, roots: &[usize]) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push(r);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let n = queue[head];
            head += 1;
            for &c in &self.edges[n] {
                if !seen[c] {
                    seen[c] = true;
                    queue.push(c);
                }
            }
        }
        let mut out: Vec<usize> = queue;
        out.sort_unstable();
        out
    }

    /// Shortest call chain from any of `roots` to `target` (inclusive),
    /// by BFS with smallest-id tie-breaking; `None` if unreachable.
    pub fn witness_path(&self, roots: &[usize], target: usize) -> Option<Vec<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push(r);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let n = queue[head];
            head += 1;
            if n == target {
                let mut path = vec![n];
                let mut cur = n;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &c in &self.edges[n] {
                if !seen[c] {
                    seen[c] = true;
                    parent[c] = Some(n);
                    queue.push(c);
                }
            }
        }
        None
    }

    /// Render a witness chain as `a → b → c`, elided in the middle when
    /// longer than six hops.
    pub fn render_chain(&self, path: &[usize]) -> String {
        let names: Vec<String> = path.iter().map(|&id| self.nodes[id].qname()).collect();
        if names.len() <= 6 {
            names.join(" -> ")
        } else {
            format!(
                "{} -> {} -> ... -> {} -> {}",
                names[0],
                names[1],
                names[names.len() - 2],
                names[names.len() - 1]
            )
        }
    }
}

/// Resolution indexes over the nodes. All BTreeMaps: iteration order
/// (and hence edge order) is deterministic.
struct Index<'a> {
    free: BTreeMap<&'a str, Vec<usize>>,
    methods: BTreeMap<&'a str, Vec<usize>>,
    /// `Type::method` keys are owned so lookups can be built from
    /// locally-resolved receiver types.
    typed: BTreeMap<String, Vec<usize>>,
    known_types: BTreeMap<&'a str, ()>,
    fields: BTreeMap<&'a str, BTreeMap<&'a str, &'a str>>,
}

/// One fn's call sites, resolved.
struct Linked {
    /// Exact and conservative targets, sorted and deduped.
    exact: Vec<usize>,
    /// Ambiguous targets (see [`CallGraph::loose_edges`]).
    loose: Vec<usize>,
    /// Call sites with at least one exact target.
    resolved: usize,
    /// Calls with no exact target (value uses are not counted).
    external: usize,
}

impl<'a> Index<'a> {
    fn build(nodes: &'a [Node], files: &'a [FileModel]) -> Index<'a> {
        let mut index = Index {
            free: BTreeMap::new(),
            methods: BTreeMap::new(),
            typed: BTreeMap::new(),
            known_types: BTreeMap::new(),
            fields: BTreeMap::new(),
        };
        for (id, n) in nodes.iter().enumerate() {
            match &n.item.impl_type {
                Some(t) => {
                    index.methods.entry(&n.item.name).or_default().push(id);
                    index
                        .typed
                        .entry(format!("{t}::{}", n.item.name))
                        .or_default()
                        .push(id);
                    index.known_types.insert(t, ());
                }
                None => index.free.entry(&n.item.name).or_default().push(id),
            }
        }
        for f in files {
            for s in &f.structs {
                let entry = index.fields.entry(&s.name).or_default();
                for (field, ty) in &s.fields {
                    entry.insert(field, ty);
                }
                index.known_types.insert(&s.name, ());
            }
        }
        index
    }

    fn link_item(&self, item: &FnItem) -> Linked {
        let mut linked = Linked {
            exact: Vec::new(),
            loose: Vec::new(),
            resolved: 0,
            external: 0,
        };
        for call in &item.calls {
            let (exact, loose) = self.resolve(item, call);
            if !exact.is_empty() {
                linked.resolved += 1;
            } else if !call.value {
                linked.external += 1;
            }
            linked.exact.extend_from_slice(exact);
            linked.loose.extend_from_slice(loose);
        }
        for v in [&mut linked.exact, &mut linked.loose] {
            v.sort_unstable();
            v.dedup();
        }
        linked
    }

    /// The exact (or conservative) targets of one call site, and its
    /// loose ones.
    fn resolve(&self, item: &FnItem, call: &CallSite) -> (&[usize], &[usize]) {
        let free = |name: &str| self.free.get(name).map_or(&[][..], Vec::as_slice);
        let typed = |key: String| self.typed.get(&key).map_or(&[][..], Vec::as_slice);
        match &call.kind {
            CallKind::Free(name) if call.value => (&[], free(name)),
            CallKind::Free(name) => (free(name), &[]),
            CallKind::Path { qualifier, name } => {
                let q = if qualifier == "Self" {
                    item.impl_type.as_deref().unwrap_or("Self")
                } else {
                    qualifier.as_str()
                };
                if q.starts_with(|c: char| c.is_ascii_uppercase()) {
                    (typed(format!("{q}::{name}")), &[])
                } else {
                    // Module-qualified free call.
                    (free(name), &[])
                }
            }
            CallKind::Method { name, chain } => {
                let all = self
                    .methods
                    .get(name.as_str())
                    .map_or(&[][..], Vec::as_slice);
                match resolve_chain(item, chain, &self.fields) {
                    Some(ty) if EXTERNAL_TYPES.contains(&ty.as_str()) => (&[], &[]),
                    Some(ty) if self.known_types.contains_key(ty.as_str()) => {
                        (typed(format!("{ty}::{name}")), &[])
                    }
                    // Unknown receiver type: the conservative
                    // over-approximation — every method with this name
                    // — unless the name collides with a std method,
                    // where the overwhelmingly likely target is the std
                    // one; then only R5 follows the link.
                    _ if STD_METHOD_NAMES.contains(&name.as_str()) => (&[], all),
                    _ => (all, &[]),
                }
            }
        }
    }
}

/// Resolve a dotted receiver chain to a type name: the head through
/// locals (`self` → impl type), subsequent segments through struct
/// fields. `None` when any hop is unknown.
fn resolve_chain(
    item: &FnItem,
    chain: &[String],
    fields: &BTreeMap<&str, BTreeMap<&str, &str>>,
) -> Option<String> {
    let (head, rest) = chain.split_first()?;
    let mut ty: String = if head == "self" {
        item.impl_type.clone()?
    } else {
        item.locals.get(head)?.clone()
    };
    for seg in rest {
        let next = fields.get(ty.as_str())?.get(seg.as_str())?;
        ty = (*next).to_string();
    }
    Some(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::parse_file;

    fn link(srcs: &[(&str, &str)]) -> CallGraph {
        let files: Vec<FileModel> = srcs.iter().map(|(p, s)| parse_file(p, &lex(s))).collect();
        CallGraph::link(&files)
    }

    #[test]
    fn free_calls_link_across_files() {
        let g = link(&[
            ("a.rs", "pub fn caller() { helper(); }\n"),
            ("b.rs", "pub fn helper() {}\n"),
        ]);
        let caller = g.find("caller")[0];
        let helper = g.find("helper")[0];
        assert_eq!(g.edges[caller], vec![helper]);
        assert_eq!(g.redges[helper], vec![caller]);
    }

    #[test]
    fn typed_method_resolution_through_fields() {
        let src = "\
pub struct Engine { replica: Replica }
pub struct Replica { pool: Pool }
pub struct Pool;
impl Pool { pub fn acquire(&self) {} }
impl Engine {
    pub fn run(&self) { self.replica.pool.acquire(); }
}
";
        let g = link(&[("a.rs", src)]);
        let run = g.find("Engine::run")[0];
        let acquire = g.find("Pool::acquire")[0];
        assert_eq!(g.edges[run], vec![acquire]);
    }

    #[test]
    fn unknown_receiver_over_approximates_known_external_does_not() {
        let src = "\
pub struct Queue;
impl Queue { pub fn enqueue(&self) {} }
pub fn a(q: Queue) { q.enqueue(); }
pub fn b(v: Vec<u32>) { v.enqueue(1); }
pub fn c(x: Mystery) { x.enqueue(); }
";
        let g = link(&[("a.rs", src)]);
        let push = g.find("Queue::enqueue")[0];
        // Known workspace type: exact edge.
        assert_eq!(g.edges[g.find("a")[0]], vec![push]);
        // Known external type (Vec): no edge.
        assert!(g.edges[g.find("b")[0]].is_empty());
        // Unknown type: over-approximation links every `enqueue` method.
        assert_eq!(g.edges[g.find("c")[0]], vec![push]);
    }

    #[test]
    fn std_colliding_names_skip_the_fallback() {
        let src = "\
pub struct Tensor;
impl Tensor {
    pub fn sum(&self) {}
    pub fn cross_entropy_logits(&self) {}
}
pub fn iter_sum(xs: Vec<f32>) -> f32 { xs.iter().sum() }
pub fn model_call(x: Mystery) { x.cross_entropy_logits(); }
";
        let g = link(&[("a.rs", src)]);
        // `sum` collides with `Iterator::sum`: an unresolved receiver
        // must NOT be wired into `Tensor::sum`.
        assert!(g.edges[g.find("iter_sum")[0]].is_empty());
        // Distinctive names keep the conservative fallback.
        assert_eq!(
            g.edges[g.find("model_call")[0]],
            vec![g.find("Tensor::cross_entropy_logits")[0]]
        );
    }

    #[test]
    fn self_path_calls_resolve_to_enclosing_type() {
        let src = "\
pub struct E;
impl E {
    fn chunks() {}
    pub fn exec(&self) { Self::chunks(); }
}
";
        let g = link(&[("a.rs", src)]);
        assert_eq!(g.edges[g.find("E::exec")[0]], vec![g.find("E::chunks")[0]]);
    }

    #[test]
    fn test_fns_excluded_from_nodes_and_resolution() {
        let src = "\
pub fn lib() { helper(); }
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
        let g = link(&[("a.rs", src)]);
        assert_eq!(g.nodes.len(), 1);
        // The test-only `helper` is not a resolution candidate.
        assert!(g.edges[g.find("lib")[0]].is_empty());
    }

    #[test]
    fn reachability_and_witness() {
        let g = link(&[(
            "a.rs",
            "pub fn a() { b(); }\npub fn b() { c(); }\npub fn c() {}\npub fn d() {}\n",
        )]);
        let (a, c, d) = (g.find("a")[0], g.find("c")[0], g.find("d")[0]);
        let reach = g.reachable(&[a]);
        assert!(reach.contains(&c));
        assert!(!reach.contains(&d));
        let path = g.witness_path(&[a], c).expect("reachable");
        assert_eq!(g.render_chain(&path), "a -> b -> c");
    }
}
