//! Snapshot codec for PDE state shared by scheme snapshots: per-node
//! combined lists flattened into zero-copy arena sections.

use crate::pde::PdeEntry;
use congest::arena::{SharedBytes, U32View, U64View};
use congest::wire::invalid_data;
use congest::NodeId;
use std::io;

/// Per-node combined lists (`PdeOutput::lists`) flattened behind
/// zero-copy views — the query-side replacement for `Vec<Vec<PdeEntry>>`
/// where the lists are hot state of a scheme (RTC's short-range lists).
/// The four arrays are its four SoA snapshot sections (row offsets,
/// estimates, sources, tags), so a load is four views and an O(n) offsets
/// check, and load → re-save is a byte passthrough.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatLists {
    /// `starts[v]..starts[v + 1]` delimits node `v`'s list (`n + 1`
    /// offsets).
    starts: U64View,
    /// All estimates back to back.
    ests: U64View,
    /// Sources, parallel to `ests`.
    srcs: U32View,
    /// Truncation tags (one byte each, 0/1), parallel to `ests`.
    tags: SharedBytes,
}

impl FlatLists {
    /// Flattens owned per-node lists (the build-side constructor).
    pub fn from_lists(lists: &[Vec<PdeEntry>]) -> Self {
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut starts = Vec::with_capacity(lists.len() + 1);
        let mut ests = Vec::with_capacity(total);
        let mut srcs = Vec::with_capacity(total);
        let mut tags = Vec::with_capacity(total);
        starts.push(0u64);
        for list in lists {
            for e in list {
                ests.push(e.est);
                srcs.push(e.src.0);
                tags.push(u8::from(e.tag));
            }
            starts.push(ests.len() as u64);
        }
        FlatLists {
            starts: U64View::from_vals(&starts),
            ests: U64View::from_vals(&ests),
            srcs: U32View::from_vals(&srcs),
            tags: SharedBytes::from_vec(tags),
        }
    }

    /// Number of nodes covered (rows).
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// `true` when no node is covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of node `v`'s list.
    #[inline]
    pub fn row_len(&self, v: NodeId) -> usize {
        (self.starts.get(v.index() + 1) - self.starts.get(v.index())) as usize
    }

    /// Iterates node `v`'s list in stored order.
    #[inline]
    pub fn iter_row(&self, v: NodeId) -> impl Iterator<Item = PdeEntry> + '_ {
        let lo = self.starts.get(v.index()) as usize;
        let hi = self.starts.get(v.index() + 1) as usize;
        let tags = &self.tags.as_slice()[lo..hi];
        self.ests
            .iter_range(lo..hi)
            .zip(self.srcs.iter_range(lo..hi))
            .zip(tags)
            .map(|((est, src), &tag)| PdeEntry {
                est,
                src: NodeId(src),
                tag: tag != 0,
            })
    }

    /// Decodes back into owned per-node lists (tests and cold paths).
    pub fn to_lists(&self) -> Vec<Vec<PdeEntry>> {
        (0..self.len())
            .map(|v| self.iter_row(NodeId::from_index(v)).collect())
            .collect()
    }

    /// Emits the lists into a snapshot arena, the views' backing bytes
    /// verbatim.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) {
        a.section(self.starts.as_bytes());
        a.section(self.ests.as_bytes());
        a.section(self.srcs.as_bytes());
        a.section(self.tags.as_slice());
    }

    /// Reads what [`FlatLists::write_arena`] wrote: four zero-copy views
    /// plus O(n) offset checks and a tag byte scan.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> io::Result<Self> {
        let starts = c.u64v()?;
        let ests = c.u64v()?;
        let srcs = c.u32v()?;
        let tags = c.shared()?;
        let n = starts
            .len()
            .checked_sub(1)
            .ok_or_else(|| invalid_data("list starts section empty"))?;
        let total = ests.len();
        if srcs.len() != total || tags.len() != total {
            return Err(invalid_data("list SoA sections disagree on length"));
        }
        if starts.get(0) != 0
            || (0..n).any(|v| starts.get(v) > starts.get(v + 1))
            || starts.get(n) != total as u64
        {
            return Err(invalid_data("list offsets inconsistent"));
        }
        if tags.as_slice().iter().any(|&b| b > 1) {
            return Err(invalid_data("invalid list tag byte"));
        }
        Ok(FlatLists {
            starts,
            ests,
            srcs,
            tags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_lists_round_trip_through_the_arena() {
        let lists = vec![
            vec![
                PdeEntry {
                    est: 4,
                    src: NodeId(2),
                    tag: true,
                },
                PdeEntry {
                    est: 9,
                    src: NodeId(5),
                    tag: false,
                },
            ],
            vec![],
            vec![PdeEntry {
                est: 1,
                src: NodeId(0),
                tag: false,
            }],
        ];
        let fl = FlatLists::from_lists(&lists);
        assert_eq!(fl.len(), 3);
        assert_eq!(fl.row_len(NodeId(0)), 2);
        assert_eq!(fl.row_len(NodeId(1)), 0);
        assert_eq!(fl.to_lists(), lists);

        // The arena round trip is a byte passthrough.
        let mut aw = congest::arena::ArenaWriter::new();
        fl.write_arena(&mut aw);
        let mut buf = Vec::new();
        aw.finish(&mut buf).unwrap();
        let r = congest::arena::ArenaReader::parse(SharedBytes::from_vec(buf.clone())).unwrap();
        let back = FlatLists::read_arena(&mut r.cursor()).unwrap();
        assert_eq!(back, fl);
        let mut aw2 = congest::arena::ArenaWriter::new();
        back.write_arena(&mut aw2);
        let mut buf2 = Vec::new();
        aw2.finish(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }
}
