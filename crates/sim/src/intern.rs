//! A global string interner producing cheap, copyable [`Symbol`] handles.
//!
//! The simulator's hot path (task dispatch, DMA pricing, stage accounting)
//! used to key its maps by `String` stage labels and template names — every
//! event paid for a clone, a heap allocation and a string hash. Interning
//! turns those labels into `u32` handles: strings are hashed **once** when a
//! job is built, and the per-event path compares and hashes plain integers.
//!
//! Design notes:
//!
//! * The interner is a process-global table behind a `RwLock`. Reads (the
//!   overwhelmingly common case: resolving a symbol back to text at report
//!   time) take the shared lock; inserting a new string takes the exclusive
//!   lock with a double-check so concurrent interners agree on one id.
//! * Interned strings are leaked (`Box::leak`) so `resolve` can hand out
//!   `&'static str` without copying. The set of distinct labels in a run is
//!   tiny (stage names, template names, level slugs), so the leak is bounded
//!   and intentional.
//! * Symbol ids depend on interning order, which under the parallel scenario
//!   runner depends on thread interleaving. **Never order user-visible
//!   output by raw symbol id** — sort by the resolved string instead (see
//!   `Symbol::resolve`). Ids are stable *within* a process, which is all the
//!   per-event maps need.
//!
//! # Example
//!
//! ```
//! use reach_sim::Symbol;
//!
//! let a = Symbol::intern("gemm");
//! let b = Symbol::intern("gemm");
//! assert_eq!(a, b);
//! assert_eq!(a.resolve(), "gemm");
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string handle: `Copy`, 4 bytes, integer compare/hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn global() -> &'static RwLock<Interner> {
    static GLOBAL: OnceLock<RwLock<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `s`, returning the canonical handle for that text. Repeated
    /// calls with equal strings return equal symbols.
    #[must_use]
    pub fn intern(s: &str) -> Symbol {
        let lock = global();
        if let Some(&id) = lock.read().expect("interner poisoned").map.get(s) {
            return Symbol(id);
        }
        let mut g = lock.write().expect("interner poisoned");
        // Double-check: another thread may have inserted between the locks.
        if let Some(&id) = g.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(g.strings.len()).expect("interner overflow");
        g.strings.push(leaked);
        g.map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned text. O(1): one shared-lock acquisition and a vec index.
    #[must_use]
    pub fn resolve(self) -> &'static str {
        global().read().expect("interner poisoned").strings[self.0 as usize]
    }

    /// The raw id. Only meaningful within this process; do not persist or
    /// sort user-visible output by it.
    #[must_use]
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.resolve())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.resolve())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_text_same_symbol() {
        let a = Symbol::intern("stage-a");
        let b = Symbol::intern("stage-a");
        let c = Symbol::intern("stage-b");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn resolve_round_trips() {
        let s = Symbol::intern("round-trip-check");
        assert_eq!(s.resolve(), "round-trip-check");
        assert_eq!(s.to_string(), "round-trip-check");
        assert_eq!(format!("{s:?}"), "Symbol(\"round-trip-check\")");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let ids: Vec<Symbol> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| Symbol::intern("contended-label")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn from_str_and_ids_agree_with_intern() {
        let a = Symbol::from("from-str-label");
        let b = Symbol::intern("from-str-label");
        let c = Symbol::intern("from-str-other");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        // The empty string is a label like any other.
        assert_eq!(Symbol::intern("").resolve(), "");
    }
}
