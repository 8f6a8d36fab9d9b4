//! Performance classes (§2.3).
//!
//! A performance class is a set of paths the network treats "the same"; the
//! set `C` of all classes partitions the measured paths `P`. The inference
//! algorithm never *uses* the classes — it does not assume any knowledge of
//! the differentiation criteria (§2.1) — but the ground-truth model, the
//! equivalent neutral network, and the evaluation metrics do.

use nni_topology::{PathId, Topology};

/// Errors raised when validating a class partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassError {
    /// A path appears in more than one class.
    Overlapping(PathId),
    /// A path appears in no class.
    Unclassified(PathId),
    /// A class references a path id outside the topology.
    UnknownPath(PathId),
    /// There are no classes at all.
    Empty,
}

impl std::fmt::Display for ClassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassError::Overlapping(p) => write!(f, "path {p} is in two classes"),
            ClassError::Unclassified(p) => write!(f, "path {p} has no class"),
            ClassError::UnknownPath(p) => write!(f, "path {p} does not exist"),
            ClassError::Empty => write!(f, "a partition needs at least one class"),
        }
    }
}

impl std::error::Error for ClassError {}

/// A validated partition of the paths `P` into performance classes `C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classes {
    /// `members[n]` = sorted paths of class `n`.
    members: Vec<Vec<PathId>>,
    /// `class_of[p]` = class index of path `p`.
    class_of: Vec<usize>,
}

impl Classes {
    /// Validates and builds a partition. `members[n]` lists the paths of the
    /// `n`-th class; together the classes must cover every path of the
    /// topology exactly once.
    pub fn new(topology: &Topology, members: Vec<Vec<PathId>>) -> Result<Classes, ClassError> {
        if members.is_empty() {
            return Err(ClassError::Empty);
        }
        let n_paths = topology.path_count();
        let mut class_of = vec![usize::MAX; n_paths];
        for (n, class) in members.iter().enumerate() {
            for &p in class {
                if p.index() >= n_paths {
                    return Err(ClassError::UnknownPath(p));
                }
                if class_of[p.index()] != usize::MAX {
                    return Err(ClassError::Overlapping(p));
                }
                class_of[p.index()] = n;
            }
        }
        if let Some(i) = class_of.iter().position(|&c| c == usize::MAX) {
            return Err(ClassError::Unclassified(PathId(i)));
        }
        let members = members
            .into_iter()
            .map(|mut v| {
                v.sort();
                v
            })
            .collect();
        Ok(Classes { members, class_of })
    }

    /// The trivial single-class partition (a neutral network's view: with one
    /// class, by definition all links are neutral, §2.3).
    pub fn single(topology: &Topology) -> Classes {
        let all: Vec<PathId> = topology.path_ids().collect();
        Classes::new(topology, vec![all]).expect("single class always valid")
    }

    /// Number of classes `|C|`.
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// Class index of a path.
    pub fn class_of(&self, p: PathId) -> usize {
        self.class_of[p.index()]
    }

    /// Member paths of class `n` (sorted).
    pub fn members(&self, n: usize) -> &[PathId] {
        &self.members[n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_topology::library::dumbbell;

    #[test]
    fn valid_partition_accepted() {
        let t = dumbbell(2, 2);
        let c = Classes::new(&t.topology, t.classes.clone()).unwrap();
        assert_eq!(c.count(), 2);
        assert_eq!(c.class_of(PathId(0)), 0);
        assert_eq!(c.class_of(PathId(3)), 1);
        assert_eq!(c.members(0), &[PathId(0), PathId(1)]);
    }

    #[test]
    fn overlap_rejected() {
        let t = dumbbell(2, 1);
        let err = Classes::new(
            &t.topology,
            vec![vec![PathId(0), PathId(1)], vec![PathId(1), PathId(2)]],
        )
        .unwrap_err();
        assert_eq!(err, ClassError::Overlapping(PathId(1)));
    }

    #[test]
    fn uncovered_path_rejected() {
        let t = dumbbell(2, 1);
        let err = Classes::new(&t.topology, vec![vec![PathId(0)], vec![PathId(2)]]).unwrap_err();
        assert_eq!(err, ClassError::Unclassified(PathId(1)));
    }

    #[test]
    fn unknown_path_rejected() {
        let t = dumbbell(1, 1);
        let err = Classes::new(
            &t.topology,
            vec![vec![PathId(0), PathId(9)], vec![PathId(1)]],
        )
        .unwrap_err();
        assert_eq!(err, ClassError::UnknownPath(PathId(9)));
    }

    #[test]
    fn empty_partition_rejected() {
        let t = dumbbell(1, 1);
        assert_eq!(
            Classes::new(&t.topology, vec![]).unwrap_err(),
            ClassError::Empty
        );
    }

    #[test]
    fn single_class_covers_everything() {
        let t = dumbbell(3, 2);
        let c = Classes::single(&t.topology);
        assert_eq!(c.count(), 1);
        for p in t.topology.path_ids() {
            assert_eq!(c.class_of(p), 0);
        }
    }

    #[test]
    fn class_queries() {
        let t = dumbbell(2, 2);
        let c = Classes::new(&t.topology, t.classes.clone()).unwrap();
        assert_eq!(c.members(0), &[PathId(0), PathId(1)]);
        assert_eq!(c.members(1), &[PathId(2), PathId(3)]);
        assert_eq!(c.class_of(PathId(0)), 0);
        assert_eq!(c.class_of(PathId(3)), 1);
    }
}
