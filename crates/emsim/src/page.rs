//! The [`Page`] trait: every node type stored in a [`BlockFile`](crate::BlockFile)
//! reports its size in machine words so the simulator can enforce the block
//! capacity `B`.

/// A value that can be stored in one disk block.
///
/// Implementations must return the number of words the value would occupy when
/// laid out on disk. The simulator checks `words() ≤ B` whenever the page is
/// written; violations are counted in
/// [`IoStats::capacity_violations`](crate::IoStats::capacity_violations) and
/// panic in debug builds, because a node layout that does not fit in a block
/// breaks every I/O bound built on top of it.
pub trait Page {
    /// Size of the page in machine words.
    fn words(&self) -> usize;
}

/// Helper: number of words needed to store `n` entries of `entry_words` words
/// each plus a fixed header.
pub fn entries_words(header_words: usize, n: usize, entry_words: usize) -> usize {
    header_words + n * entry_words
}

/// Helper: how many entries of `entry_words` words fit in a block of
/// `block_words` words after reserving `header_words`, never less than
/// `min_entries` so that degenerate test configurations still work.
pub fn entries_per_block(
    block_words: usize,
    header_words: usize,
    entry_words: usize,
    min_entries: usize,
) -> usize {
    let usable = block_words.saturating_sub(header_words);
    (usable / entry_words.max(1)).max(min_entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_per_block_reserves_header() {
        assert_eq!(entries_per_block(64, 4, 2, 1), 30);
        assert_eq!(entries_per_block(64, 0, 2, 1), 32);
        // Degenerate: never below the minimum.
        assert_eq!(entries_per_block(8, 8, 2, 4), 4);
    }

    #[test]
    fn entries_words_adds_header() {
        assert_eq!(entries_words(3, 10, 2), 23);
    }
}
