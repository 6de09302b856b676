//! Identifier newtypes and block sizing.
//!
//! HDFS organizes files into equal-sized blocks (64 MB by default in the
//! paper's Hadoop 0.20.2) replicated across DataNodes. These newtypes keep
//! the three id spaces — nodes, blocks, files — statically distinct.

/// Identifier of a DataNode (also the TaskTracker on the same host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of one HDFS block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// Identifier of one HDFS file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file{}", self.0)
    }
}

/// A block size in bytes.
///
/// # Examples
///
/// ```
/// use adapt_dfs::BlockSize;
///
/// let b = BlockSize::from_mb(64);
/// assert_eq!(b.bytes(), 64 * 1024 * 1024);
/// // Transfer time over a 8 Mb/s link:
/// let seconds = b.transfer_seconds(8.0);
/// assert!((seconds - 64.0 * 8.0 / 8.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockSize(u64);

impl BlockSize {
    /// The paper's default block size, 64 MB.
    pub const DEFAULT: BlockSize = BlockSize(64 * 1024 * 1024);

    /// Creates a block size from raw bytes.
    pub fn from_bytes(bytes: u64) -> Self {
        BlockSize(bytes)
    }

    /// Creates a block size from mebibytes.
    pub fn from_mb(mb: u64) -> Self {
        BlockSize(mb * 1024 * 1024)
    }

    /// The size in bytes.
    pub fn bytes(&self) -> u64 {
        self.0
    }

    /// The size in mebibytes (floating point).
    pub fn as_mb(&self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Seconds needed to transfer one block over a link of
    /// `bandwidth_mbps` *megabits* per second — the unit the paper uses
    /// ("we limited the network bandwidth from 4Mb/s to 32Mb/s").
    ///
    /// Returns `f64::INFINITY` for non-positive bandwidth.
    pub fn transfer_seconds(&self, bandwidth_mbps: f64) -> f64 {
        if bandwidth_mbps <= 0.0 {
            return f64::INFINITY;
        }
        // 1 MB = 8 megabits (the paper's "64MB over 1 Mb/s takes several
        // minutes" arithmetic uses decimal-vs-binary loosely; we use
        // 8 bits/byte on mebibytes).
        self.as_mb() * 8.0 / bandwidth_mbps
    }
}

impl std::fmt::Display for BlockSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{}MB", self.0 / (1024 * 1024))
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_readably() {
        assert_eq!(NodeId(2).to_string(), "node2");
        assert_eq!(BlockId(9).to_string(), "blk9");
        assert_eq!(FileId(1).to_string(), "file1");
    }

    #[test]
    fn block_size_conversions() {
        assert_eq!(BlockSize::from_mb(64), BlockSize::DEFAULT);
        assert_eq!(BlockSize::from_mb(1).bytes(), 1_048_576);
        assert!((BlockSize::from_mb(128).as_mb() - 128.0).abs() < 1e-12);
        assert_eq!(BlockSize::from_bytes(123).bytes(), 123);
    }

    #[test]
    fn transfer_time_matches_paper_arithmetic() {
        // 64 MB over 1 Mb/s: 64 * 8 = 512 s ("up to several minutes").
        let t = BlockSize::DEFAULT.transfer_seconds(1.0);
        assert!((t - 512.0).abs() < 1e-9);
        // 64 MB over 8 Mb/s: 64 s.
        assert!((BlockSize::DEFAULT.transfer_seconds(8.0) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_handles_zero_bandwidth() {
        assert!(BlockSize::DEFAULT.transfer_seconds(0.0).is_infinite());
        assert!(BlockSize::DEFAULT.transfer_seconds(-1.0).is_infinite());
    }

    #[test]
    fn display_formats_mb_and_bytes() {
        assert_eq!(BlockSize::from_mb(64).to_string(), "64MB");
        assert_eq!(BlockSize::from_bytes(100).to_string(), "100B");
    }
}
