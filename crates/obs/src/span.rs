//! Hierarchical span traces for `dlk run --trace`.
//!
//! A [`SpanRecorder`] builds a tree of named wall-clock spans, each
//! optionally annotated with a simulated-cycle count, and renders it
//! as an indented tree with per-span wall time and percent-of-parent
//! attribution. This is single-threaded by design: it traces one
//! scenario run from the CLI, not the concurrent sweep path (that is
//! what the registry histograms are for).

use std::fmt;
use std::time::{Duration, Instant};

/// Handle to an open (or closed) span inside a [`SpanRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Node {
    name: String,
    parent: Option<usize>,
    start: Instant,
    wall: Option<Duration>,
    cycles: Option<u64>,
    children: Vec<usize>,
}

/// Records a tree of timed spans.
#[derive(Debug)]
pub struct SpanRecorder {
    nodes: Vec<Node>,
    stack: Vec<usize>,
}

impl SpanRecorder {
    /// Starts recording with an open root span.
    pub fn new(root: impl Into<String>) -> Self {
        let root = Node {
            name: root.into(),
            parent: None,
            start: Instant::now(),
            wall: None,
            cycles: None,
            children: Vec::new(),
        };
        Self { nodes: vec![root], stack: vec![0] }
    }

    /// Opens a child span under the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) -> SpanId {
        let parent = *self.stack.last().expect("root span is always open");
        let id = self.nodes.len();
        self.nodes.push(Node {
            name: name.into(),
            parent: Some(parent),
            start: Instant::now(),
            wall: None,
            cycles: None,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(id);
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `span` (and any still-open spans nested inside it),
    /// freezing its wall time.
    pub fn exit(&mut self, span: SpanId) {
        while let Some(&top) = self.stack.last() {
            if top == 0 {
                break; // the root closes only in `finish`
            }
            self.stack.pop();
            let node = &mut self.nodes[top];
            if node.wall.is_none() {
                node.wall = Some(node.start.elapsed());
            }
            if top == span.0 {
                break;
            }
        }
    }

    /// Attaches a simulated-cycle count to a span (open or closed).
    pub fn cycles(&mut self, span: SpanId, cycles: u64) {
        self.nodes[span.0].cycles = Some(cycles);
    }

    /// Closes everything still open (including the root) and returns
    /// the finished tree.
    pub fn finish(mut self) -> SpanTree {
        while let Some(top) = self.stack.pop() {
            let node = &mut self.nodes[top];
            if node.wall.is_none() {
                node.wall = Some(node.start.elapsed());
            }
        }
        SpanTree { nodes: self.nodes }
    }
}

/// A finished span tree; `Display` renders the indented trace.
#[derive(Debug)]
pub struct SpanTree {
    nodes: Vec<Node>,
}

impl SpanTree {
    /// Number of spans in the tree (root included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree is only the root span.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    fn render(
        &self,
        out: &mut fmt::Formatter<'_>,
        id: usize,
        prefix: &str,
        last: bool,
    ) -> fmt::Result {
        let node = &self.nodes[id];
        let wall = node.wall.unwrap_or_default();
        let (branch, child_prefix) = if node.parent.is_none() {
            (String::new(), String::new())
        } else if last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let label = format!("{branch}{}", node.name);
        write!(out, "{label:<40} {:>10}", format_wall(wall))?;
        if let Some(parent) = node.parent {
            let parent_wall = self.nodes[parent].wall.unwrap_or_default();
            if parent_wall > Duration::ZERO {
                let pct = 100.0 * wall.as_secs_f64() / parent_wall.as_secs_f64();
                write!(out, " {pct:>5.1}%")?;
            }
        }
        if let Some(cycles) = node.cycles {
            write!(out, "  [{cycles} cycles]")?;
        }
        writeln!(out)?;
        for (at, &child) in node.children.iter().enumerate() {
            self.render(out, child, &child_prefix, at + 1 == node.children.len())?;
        }
        Ok(())
    }
}

impl fmt::Display for SpanTree {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(out, 0, "", true)
    }
}

fn format_wall(wall: Duration) -> String {
    let nanos = wall.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", wall.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_structure_and_render() {
        let mut rec = SpanRecorder::new("root");
        let a = rec.enter("build");
        rec.exit(a);
        let b = rec.enter("run");
        let c = rec.enter("attack");
        rec.cycles(c, 1234);
        rec.exit(c);
        rec.exit(b);
        let tree = rec.finish();
        assert_eq!(tree.len(), 4);
        let rendered = format!("{tree}");
        assert!(rendered.contains("root"), "{rendered}");
        assert!(rendered.contains("├─ build"), "{rendered}");
        assert!(rendered.contains("└─ run"), "{rendered}");
        assert!(rendered.contains("└─ attack"), "{rendered}");
        assert!(rendered.contains("[1234 cycles]"), "{rendered}");
        assert!(rendered.contains('%'), "{rendered}");
    }

    #[test]
    fn exit_closes_nested_open_spans() {
        let mut rec = SpanRecorder::new("root");
        let outer = rec.enter("outer");
        let _inner = rec.enter("inner"); // never explicitly exited
        rec.exit(outer);
        let next = rec.enter("sibling");
        rec.exit(next);
        let tree = rec.finish();
        // `sibling` must be a child of root, not of `inner`.
        let rendered = format!("{tree}");
        assert!(rendered.contains("└─ sibling"), "{rendered}");
    }

    #[test]
    fn finish_closes_the_root() {
        let rec = SpanRecorder::new("root");
        let tree = rec.finish();
        assert!(tree.is_empty());
    }

    #[test]
    fn wall_formatting_scales() {
        assert_eq!(format_wall(Duration::from_nanos(5)), "5ns");
        assert_eq!(format_wall(Duration::from_micros(5)), "5.00us");
        assert_eq!(format_wall(Duration::from_millis(5)), "5.00ms");
        assert_eq!(format_wall(Duration::from_secs(5)), "5.00s");
    }
}
