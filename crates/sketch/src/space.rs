//! Space accounting.
//!
//! The paper's central claim is a space bound — `Θ̃(m/α²)` words — so this
//! workspace measures space explicitly instead of trusting asymptotics.
//! Every sketch, every sub-algorithm and the full estimator implement
//! [`SpaceUsage`], reporting the number of resident 64-bit words of
//! *algorithmic state*: counters, hash coefficients, stored samples and
//! candidate lists. Transient per-update scratch space is excluded, as is
//! constant per-object overhead (a handful of lengths and parameters),
//! matching how space is counted in the streaming literature.
//!
//! Each type counts its words once, in [`SpaceUsage::space_ledger`]: an
//! attribution tree ([`LedgerNode`]) with explicit `overhead` leaves for
//! the literal constants. [`SpaceUsage::space_words`] is the sum of that
//! tree, so the ledger's leaf sum equals the reported total by
//! construction; the absolute counts are pinned by the workspace's
//! storage and two-pass tables.

use kcov_obs::LedgerNode;

/// Number of resident 64-bit words of algorithmic state.
pub trait SpaceUsage {
    /// Attribute this object's resident words (and, where tracked, its
    /// update heat and measured ingest time) into `node`. Structured
    /// types add one child per component; a type without structure adds
    /// its words to `node.words`.
    fn space_ledger(&self, node: &mut LedgerNode);

    /// Current space in 64-bit words: the word total of a fresh
    /// [`SpaceUsage::space_ledger`] walk.
    fn space_words(&self) -> usize {
        let mut node = LedgerNode::new();
        self.space_ledger(&mut node);
        node.total_words() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(usize);
    impl SpaceUsage for Fixed {
        fn space_ledger(&self, node: &mut LedgerNode) {
            node.words += self.0 as u64;
        }
    }

    struct Pair(Fixed, Fixed);
    impl SpaceUsage for Pair {
        fn space_ledger(&self, node: &mut LedgerNode) {
            self.0.space_ledger(node.child("a"));
            self.1.space_ledger(node.child("b"));
            node.leaf("overhead", 1);
        }
    }

    #[test]
    fn space_words_sums_the_ledger_tree() {
        assert_eq!(Fixed(7).space_words(), 7);
        assert_eq!(Pair(Fixed(7), Fixed(3)).space_words(), 11);
    }

    #[test]
    fn a_leaf_ledger_accumulates_into_its_node() {
        let mut node = LedgerNode::new();
        Fixed(7).space_ledger(&mut node);
        Fixed(3).space_ledger(&mut node);
        assert_eq!(node.words, 10);
        assert!(node.is_leaf());
    }
}
