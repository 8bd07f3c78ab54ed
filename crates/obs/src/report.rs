//! Span trees and the EXPLAIN/profile report.
//!
//! [`profile`] runs a closure under a fresh root span with a dedicated
//! collector and returns the reconstructed [`SpanNode`] tree — per-stage
//! wall-clock timings plus whatever cardinality fields the stages
//! recorded. The workflow facades build their user-facing `EXPLAIN`
//! output from this.

use crate::trace::{self, Collector, SpanRecord, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// One node of a finished span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub record: SpanRecord,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    pub fn name(&self) -> &'static str {
        self.record.name
    }

    pub fn duration_ns(&self) -> u64 {
        self.record.duration_ns
    }

    /// A field recorded on this span.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.record.field(key)
    }

    /// Depth-first search for the first descendant (or self) named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.record.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// All descendants (including self) named `name`, in start order.
    pub fn find_all<'a>(&'a self, name: &str, out: &mut Vec<&'a SpanNode>) {
        if self.record.name == name {
            out.push(self);
        }
        for c in &self.children {
            c.find_all(name, out);
        }
    }

    /// Total number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }

    /// Render the tree as an indented per-stage report:
    ///
    /// ```text
    /// query                          1.234 ms  backend=store rows=131
    /// └─ bgp                         1.100 ms  patterns=7
    ///    ├─ scan                     0.200 ms  pattern=0 rows=784
    ///    └─ join                     0.350 ms  probe=784 build=131 out=131
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", true, true);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, root: bool) {
        let (branch, child_prefix) = if root {
            (String::new(), String::new())
        } else if last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let label = format!("{branch}{}", self.record.name);
        let mut line = format!(
            "{label:<42} {:>9.3} ms",
            self.record.duration_ns as f64 / 1e6
        );
        for (k, v) in &self.record.fields {
            line.push_str(&format!("  {k}={v}"));
        }
        out.push_str(&line);
        out.push('\n');
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(out, &child_prefix, i + 1 == self.children.len(), false);
        }
    }

    /// JSON rendering of the tree (hand-rolled, like the metrics snapshot).
    pub fn to_json(&self) -> String {
        let mut fields = String::new();
        for (i, (k, v)) in self.record.fields.iter().enumerate() {
            if i > 0 {
                fields.push_str(", ");
            }
            fields.push_str(&format!("\"{k}\": "));
            match v {
                Value::Text(s) => crate::json::push_string(&mut fields, s),
                other => fields.push_str(&other.to_string()),
            }
        }
        let children: Vec<String> = self.children.iter().map(SpanNode::to_json).collect();
        format!(
            "{{\"name\": \"{}\", \"duration_ns\": {}, \"fields\": {{{fields}}}, \"children\": [{}]}}",
            self.record.name,
            self.record.duration_ns,
            children.join(", ")
        )
    }
}

/// Reassemble the records of one trace into its span trees (roots in
/// start order; normally a single root). Records whose parent is missing
/// from the batch are treated as roots.
pub fn build_trees(records: &[SpanRecord], trace_id: u64) -> Vec<SpanNode> {
    let mut nodes: Vec<SpanNode> = records
        .iter()
        .filter(|r| r.trace_id == trace_id)
        .map(|r| SpanNode {
            record: r.clone(),
            children: Vec::new(),
        })
        .collect();
    // Children first: spans finish (and are recorded) before their
    // parents, so attaching in reverse finish order lets each child find
    // its parent still unclaimed.
    let index: HashMap<u64, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.record.span_id, i))
        .collect();
    let mut roots: Vec<SpanNode> = Vec::new();
    // Attach bottom-up by taking nodes out from the end (children were
    // recorded before parents).
    let mut taken: Vec<Option<SpanNode>> = nodes.drain(..).map(Some).collect();
    for i in 0..taken.len() {
        let node = taken[i].take().expect("visited once");
        let parent_slot = node
            .record
            .parent_id
            .and_then(|p| index.get(&p).copied())
            .filter(|&pi| pi != i);
        match parent_slot {
            Some(pi) => match taken[pi].as_mut() {
                Some(parent) => parent.children.push(node),
                None => roots.push(node), // parent already emitted (clock skew)
            },
            None => roots.push(node),
        }
    }
    for root in &mut roots {
        sort_by_start(root);
    }
    roots.sort_by_key(|r| r.record.start_ns);
    roots
}

fn sort_by_start(node: &mut SpanNode) {
    node.children.sort_by_key(|c| c.record.start_ns);
    for c in &mut node.children {
        sort_by_start(c);
    }
}

/// Run `f` under a fresh root span named `root_name`, collecting every
/// span of the new trace, and return the result plus the profile tree.
///
/// The closure receives the root [`trace::Span`] so it can record
/// top-level fields (backend, row counts). Spans opened by the observed
/// code — including spans from worker threads parented via
/// [`trace::child_of`] — land in the same tree.
pub fn profile<T>(root_name: &'static str, f: impl FnOnce(&mut trace::Span) -> T) -> (T, SpanNode) {
    let collector = Arc::new(Collector::new());
    let token = trace::subscribe(collector.clone());
    let mut root = trace::child_of(None, root_name);
    let trace_id = root.context().trace_id;
    let out = f(&mut root);
    drop(root);
    trace::unsubscribe(token);
    let records = collector.take();
    let mut trees = build_trees(&records, trace_id);
    debug_assert!(!trees.is_empty(), "root span must have been collected");
    let tree = if trees.len() == 1 {
        trees.remove(0)
    } else {
        // Extremely defensive: if the root got evicted somehow, wrap the
        // fragments under a synthetic node.
        SpanNode {
            record: SpanRecord {
                trace_id,
                span_id: 0,
                parent_id: None,
                name: root_name,
                start_ns: trees.first().map_or(0, |t| t.record.start_ns),
                duration_ns: trees.iter().map(|t| t.record.duration_ns).sum(),
                fields: Vec::new(),
            },
            children: trees,
        }
    };
    (out, tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::span;

    #[test]
    fn profile_builds_nested_tree() {
        let ((), tree) = profile("root", |root| {
            root.record("backend", "test");
            {
                let mut a = span("stage_a");
                a.record("rows", 10u64);
                let _inner = span("stage_a_inner");
            }
            let _b = span("stage_b");
        });
        assert_eq!(tree.name(), "root");
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].name(), "stage_a");
        assert_eq!(tree.children[0].children[0].name(), "stage_a_inner");
        assert_eq!(tree.children[1].name(), "stage_b");
        assert_eq!(tree.size(), 4);
        assert_eq!(
            tree.field("backend").map(ToString::to_string),
            Some("test".into())
        );
        let rendered = tree.render();
        assert!(rendered.contains("stage_a"), "{rendered}");
        assert!(rendered.contains("rows=10"), "{rendered}");
        assert!(tree.to_json().contains("\"name\": \"stage_a_inner\""));
    }

    #[test]
    fn profile_isolates_concurrent_traces() {
        // A span on another thread with its own trace must not pollute
        // this profile.
        let (_, tree) = profile("iso", |_| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _foreign = crate::trace::child_of(None, "foreign");
                });
            });
            let _mine = span("mine");
        });
        assert!(tree.find("mine").is_some());
        assert!(tree.find("foreign").is_none());
    }
}
