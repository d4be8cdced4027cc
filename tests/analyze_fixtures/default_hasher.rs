//! Known-bad fixture: std maps on the default (SipHash) hasher in a
//! serving-path crate, keyed by ids the program hands out itself. Must trip
//! `default-hasher-on-serving-path` three times — the field, the set and the
//! constructor — and not on the import or the explicit-hasher map.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

pub struct TableIndex {
    dims: HashMap<u32, usize>,
    pinned: HashSet<u32>,
    offsets: HashMap<u32, u64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>>,
}

impl TableIndex {
    pub fn new() -> Self {
        TableIndex {
            dims: HashMap::new(),
            pinned: Default::default(),
            offsets: Default::default(),
        }
    }

    pub fn dim(&self, table: u32) -> Option<usize> {
        self.dims.get(&table).copied()
    }
}
