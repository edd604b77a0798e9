//! Interning for the detection pipeline and the wire format.
//!
//! Merging per-rank STGs used to clone every [`StateKey`] it touched —
//! once per vertex and twice per edge, per rank. Keys are cheap for
//! context-free sites but a context-aware [`StateKey::Path`] owns a full
//! call-path vector, so the clones dominated `merge_stgs` on deep call
//! trees. The [`SymbolTable`] instead stores each distinct key once and
//! hands out dense `u32` symbols; everything downstream (pooling, sorting,
//! labelling) works on symbols and resolves back to the stored key only
//! when a label is actually needed.
//!
//! The table is generic over the key type: the detection pipeline interns
//! `&StateKey` borrowed from the STGs (never cloning a key), and the wire
//! format ([`crate::wire`]) interns owned `String` labels to build the
//! per-batch label dictionary.
//!
//! [`StateKey`]: crate::stg::StateKey

use std::collections::HashMap;
use std::hash::Hash;

/// Dense id of an interned key.
pub type Sym = u32;

/// Interns keys to dense [`Sym`] ids.
///
/// Each distinct key is stored once in insertion order; `Sym`s index that
/// order. For borrowed keys (`K = &T`) the table never clones the
/// underlying value.
#[derive(Debug)]
pub struct SymbolTable<K> {
    map: HashMap<K, Sym>,
    keys: Vec<K>,
}

impl<K> Default for SymbolTable<K> {
    fn default() -> Self {
        SymbolTable { map: HashMap::new(), keys: Vec::new() }
    }
}

impl<K: Eq + Hash + Clone> SymbolTable<K> {
    /// An empty table.
    pub fn new() -> SymbolTable<K> {
        SymbolTable::default()
    }

    /// Intern a key, returning its symbol (stable across repeat calls).
    pub fn intern(&mut self, key: K) -> Sym {
        if let Some(&sym) = self.map.get(&key) {
            return sym;
        }
        let sym = Sym::try_from(self.keys.len()).expect("more than u32::MAX distinct keys");
        self.keys.push(key.clone());
        self.map.insert(key, sym);
        sym
    }

    /// Resolve a symbol back to its key.
    pub fn key(&self, sym: Sym) -> &K {
        &self.keys[sym as usize]
    }

    /// Look up a key's symbol without interning it.
    pub fn find(&self, key: &K) -> Option<Sym> {
        self.map.get(key).copied()
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The interned keys in symbol order; `Sym` indexes this slice.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Consume the table, returning the keys in symbol order.
    pub fn into_keys(self) -> Vec<K> {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stg::StateKey;
    use vapro_sim::CallSite;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let a = StateKey::Site(CallSite("a"));
        let b = StateKey::Site(CallSite("b"));
        let mut t = SymbolTable::new();
        let sa = t.intern(&a);
        let sb = t.intern(&b);
        assert_eq!(t.intern(&a), sa);
        assert_ne!(sa, sb);
        assert_eq!(t.len(), 2);
        assert_eq!(*t.key(sa), &a);
        assert_eq!(*t.key(sb), &b);
    }

    #[test]
    fn equal_keys_from_different_owners_share_a_symbol() {
        // Two separately-allocated but equal keys intern to one symbol —
        // exactly the cross-rank pooling situation.
        let k1 = StateKey::Site(CallSite("loop:MPI_Allreduce"));
        let k2 = StateKey::Site(CallSite("loop:MPI_Allreduce"));
        let mut t = SymbolTable::new();
        assert_eq!(t.intern(&k1), t.intern(&k2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn find_does_not_intern() {
        let a = StateKey::Start;
        let mut t = SymbolTable::new();
        assert_eq!(t.find(&&a), None);
        let s = t.intern(&a);
        assert_eq!(t.find(&&a), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn owned_string_keys_build_a_dictionary() {
        // The wire-format use: intern owned labels, read them back in
        // symbol order as the batch dictionary.
        let mut t: SymbolTable<String> = SymbolTable::new();
        let a = t.intern("alpha".to_string());
        let b = t.intern("beta".to_string());
        assert_eq!(t.intern("alpha".to_string()), a);
        assert_eq!(t.keys(), &["alpha".to_string(), "beta".to_string()]);
        assert_eq!(t.into_keys(), vec!["alpha".to_string(), "beta".to_string()]);
        let _ = b;
    }
}
