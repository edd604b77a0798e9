//! Interning for the wire format.
//!
//! The [`SymbolTable`] stores each distinct key once and hands out dense
//! `u32` symbols: [`crate::wire`] interns a period's state labels to
//! build the batch's label dictionary, so a frame carries every label
//! once and its fragment groups refer to it by id.

use std::collections::HashMap;
use std::hash::Hash;

/// Dense id of an interned key.
pub type Sym = u32;

/// Interns keys to dense [`Sym`] ids.
///
/// Each distinct key is stored once in insertion order; `Sym`s index that
/// order.
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
        // vapro-lint: allow(R6, one owned key per distinct symbol, on first sight only)
        self.keys.push(key.clone());
        self.map.insert(key, sym);
        sym
    }

    /// Consume the table, returning the keys in symbol order.
    pub fn into_keys(self) -> Vec<K> {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_string_keys_build_a_dictionary() {
        // The wire-format use: intern owned labels, read them back in
        // symbol order as the batch dictionary.
        let mut t: SymbolTable<String> = SymbolTable::new();
        let a = t.intern("alpha".to_string());
        let b = t.intern("beta".to_string());
        assert_eq!(t.intern("alpha".to_string()), a);
        assert_ne!(a, b);
        assert_eq!(t.into_keys(), vec!["alpha".to_string(), "beta".to_string()]);
    }
}
